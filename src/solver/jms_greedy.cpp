#include "solver/jms_greedy.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "exec/thread_pool.h"
#include "obs/registry.h"
#include "obs/scoped_timer.h"

namespace esharing::solver {

namespace {

struct JmsMetrics {
  obs::Counter& solves;
  obs::Counter& iterations;
  obs::Counter& stars_evaluated;
  obs::Gauge& num_threads;
  obs::Histogram& solve_seconds;

  static JmsMetrics& get() {
    static JmsMetrics m{
        obs::Registry::global().counter("solver.jms_greedy.solves"),
        obs::Registry::global().counter("solver.jms_greedy.iterations"),
        obs::Registry::global().counter("solver.jms_greedy.stars_evaluated"),
        obs::Registry::global().gauge("solver.jms_greedy.num_threads"),
        obs::Registry::global().histogram("solver.jms_greedy.solve_seconds"),
    };
    return m;
  }
};

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kUnassigned = static_cast<std::size_t>(-1);

struct Star {
  std::size_t facility{0};
  double ratio{kInf};
  std::size_t take{0};  ///< how many cheapest unconnected clients to connect
};

/// Strict "a wins over b" in the deterministic reduction. Scanning
/// facilities (and prefix sizes) in ascending order with this comparator
/// selects the lexicographic (ratio, facility, take) minimum — exactly the
/// candidate a sequential first-strict-minimum scan keeps.
bool better(const Star& a, const Star& b) {
  if (a.ratio != b.ratio) return a.ratio < b.ratio;
  if (a.facility != b.facility) return a.facility < b.facility;
  return a.take < b.take;
}

/// What the solve keeps per facility between iterations: its best star,
/// the unconnected client its last walk stopped at (see evaluate_star) and
/// whether its cost row holds a NaN. `stop_client` is kUnassigned when the
/// walk ran to the end of the row.
struct CachedStar {
  Star star;
  double stop_cost{kInf};
  std::size_t stop_client{kUnassigned};
  bool row_has_nan{false};
};

/// A client whose connection state the last opening changed; `cost` is its
/// connection cost before a switch, or its new cost when newly connected.
struct ClientChange {
  std::size_t client;
  double cost;
};

/// Facility i's best star from scratch given its fee and the current
/// assignment, with the same sums in the same order as the reference, so
/// every ratio is the same double: the switching gain in client-index
/// order, then the walk over the cached (cost, client) ordering, skipping
/// connected clients. The walk stops at the first unconnected client whose
/// cost proves that no longer prefix can win (the stop bound below) and
/// records it as the stop entry. A row holding a NaN cost breaks the
/// sorted order the bound relies on, so its walks never stop early.
///
/// Stop bound. Let u = 2^-53, n = the number of clients, g_k = k u/(1-k u),
/// and M = fee + gain + c_max, where c_max is the largest cost in i's row;
/// every term is >= 0. The k-th candidate is computed as
/// fl(fl(fl(fee + P_k) - gain) / k), where P_k is the recursive sum of the
/// first k walked costs, whose exact sum S_k satisfies
/// |P_k - S_k| <= g_{k-1} S_k. Taking gain as the given double, one more
/// rounding per operation gives, against the exact
/// R_k = (fee + S_k - gain) / k,
///   |ratio_k - R_k| <= g_{k+2} (fee + S_k + gain) / k <= g_{n+2} M =: D,
/// since S_k / k <= c_max. Say the walk has computed candidates 1..k, the
/// best so far is (r, t) with t <= k, and the next unconnected cost is
/// c >= r + (2k+1) D. Every later cost is >= c (sorted order), and
/// R_k >= ratio_k - D >= r - D, so for every m > k
///   R_m >= (k (r - D) + (m - k)(r + (2k+1) D)) / m >= r + D,
/// hence ratio_m >= r: no later candidate wins the strict first-minimum
/// scan. The code uses (n + 4) 2^-52 M in place of D; the factor of about
/// 2 covers g's denominator and the roundings in forming the threshold
/// (|r| <= M + D), for any n with (n + 4) u < 2^-12.
void evaluate_star(CachedStar& cached, const CostOracle& oracle,
                   std::size_t i, double fee,
                   const std::vector<std::size_t>& assigned,
                   const std::vector<double>& current_cost) {
  const std::vector<double>& row = oracle.row(i);
  double gain = 0.0;
  for (std::size_t j = 0; j < assigned.size(); ++j) {
    if (assigned[j] != kUnassigned && row[j] < current_cost[j]) {
      gain += current_cost[j] - row[j];
    }
  }

  const auto& sorted = oracle.sorted_row(i);
  const double delta = static_cast<double>(assigned.size() + 4) *
                       std::numeric_limits<double>::epsilon() *
                       (fee + gain + sorted.back().first);
  const bool can_stop = !cached.row_has_nan && std::isfinite(delta);
  cached.star = Star{i, kInf, 0};
  cached.stop_cost = kInf;
  cached.stop_client = kUnassigned;
  double prefix = 0.0;
  std::size_t taken = 0;
  for (const auto& [cij, j] : sorted) {
    if (assigned[j] != kUnassigned) continue;
    if (can_stop && cached.star.take != 0) {
      const double threshold =
          cached.star.ratio + static_cast<double>(2 * taken + 1) * delta;
      if (cij >= threshold) {
        cached.stop_cost = cij;
        cached.stop_client = j;
        return;
      }
    }
    prefix += cij;
    ++taken;
    const double ratio = (fee + prefix - gain) / static_cast<double>(taken);
    if (const Star cand{i, ratio, taken}; better(cand, cached.star)) {
      cached.star = cand;
    }
  }
}

/// Whether facility f's cached star is exactly what evaluate_star would
/// return after the last opening, which switched the clients in `switched`
/// and newly connected those in `connected`. The caller excludes the
/// facility just opened: its fee and its own switched clients' gain terms
/// changed. The star is current when
///   (a) no gain term of f changed: f is no cheaper than each switched
///       client's old cost (that term was skipped and stays skipped) and
///       than each new client's new cost;
///   (b) every newly connected client sorts strictly after f's stop entry
///       in (cost, client) order, so the walk up to and including the stop
///       entry visits the same clients;
///   (c) the cached walk stopped early instead of running to the end of
///       the row (a row walked to the end has just lost a client).
/// A fresh evaluation then repeats the same operations on the same doubles
/// (the stop bound's inputs fee, gain and c_max included) and stops at the
/// same entry.
bool still_current(const CachedStar& cached, const std::vector<double>& row,
                   const std::vector<ClientChange>& switched,
                   const std::vector<ClientChange>& connected) {
  if (cached.stop_client == kUnassigned) return false;
  for (const ClientChange& c : switched) {
    if (row[c.client] < c.cost) return false;
  }
  for (const ClientChange& c : connected) {
    const double cij = row[c.client];
    if (cij < c.cost) return false;
    if (cij < cached.stop_cost ||
        (cij == cached.stop_cost && c.client <= cached.stop_client)) {
      return false;
    }
  }
  return true;
}

/// Facilities per parallel chunk. The grain is a fixed constant — chunk
/// boundaries (and thus the reduction) never depend on the thread count.
constexpr std::size_t kFacilityGrain = 8;

/// One iteration's scan: the winning star and how many stars were
/// evaluated to find it.
struct Scan {
  Star best;
  std::size_t evaluated{0};
};

}  // namespace

FlSolution jms_greedy(const CostOracle& oracle, const JmsOptions& options) {
  const FlInstance& instance = oracle.instance();
  instance.validate();
  const std::size_t nf = instance.facilities.size();
  const std::size_t nc = instance.clients.size();
  // num_threads now names a pool width: 0 = the process-wide exec pool
  // width (ESHARING_THREADS), 1 = sequential, n = n lanes.
  const std::size_t threads = exec::resolve_width(options.num_threads);

  const obs::ScopedTimer timer(JmsMetrics::get().solve_seconds);
  if (obs::enabled()) {
    JmsMetrics::get().solves.add();
    JmsMetrics::get().num_threads.set(static_cast<double>(threads));
  }

  std::vector<bool> open(nf, false);
  std::vector<std::size_t> assigned(nc, kUnassigned);
  std::vector<double> current_cost(nc, kInf);  // connection cost of assigned
  std::size_t unconnected = nc;

  // The first scan evaluates every facility; after each opening only the
  // facilities still_current rejects are evaluated again. The cache holds
  // what a full rescan would compute, star for star, so the winner below
  // is the full rescan's winner.
  std::vector<CachedStar> stars(nf);
  // The first scan builds every row and sorted row, on the pool when
  // threads > 1; their storage comes from this thread.
  oracle.reserve_rows();
  std::vector<ClientChange> switched;
  std::vector<ClientChange> connected;
  std::size_t last_opened = kUnassigned;  // none before the first scan

  while (unconnected > 0) {
    if (obs::enabled()) JmsMetrics::get().iterations.add();
    // Chunk-ordered reduction over disjoint facility ranges on the exec
    // pool. `better` is a strict total order and each Star depends on its
    // own facility alone, so the folded minimum is bit-identical to the
    // sequential scan at every width (and every grain).
    const bool first_scan = last_opened == kUnassigned;
    const Scan scan = exec::parallel_reduce<Scan>(
        nf, kFacilityGrain, Scan{},
        [&](std::size_t b, std::size_t e) {
          Scan chunk;
          for (std::size_t f = b; f < e; ++f) {
            CachedStar& cached = stars[f];
            const std::vector<double>& row = oracle.row(f);
            if (first_scan) {
              cached.row_has_nan =
                  std::any_of(row.begin(), row.end(),
                              [](double x) { return std::isnan(x); });
            }
            if (first_scan || f == last_opened ||
                !still_current(cached, row, switched, connected)) {
              const double fee =
                  open[f] ? 0.0 : instance.facilities[f].opening_cost;
              evaluate_star(cached, oracle, f, fee, assigned, current_cost);
              ++chunk.evaluated;
            }
            if (better(cached.star, chunk.best)) chunk.best = cached.star;
          }
          return chunk;
        },
        [](Scan acc, const Scan& s) {
          if (s.best.take != 0 &&
              (acc.best.take == 0 || better(s.best, acc.best))) {
            acc.best = s.best;
          }
          acc.evaluated += s.evaluated;
          return acc;
        },
        threads);
    if (obs::enabled()) JmsMetrics::get().stars_evaluated.add(scan.evaluated);

    const Star& best = scan.best;
    if (best.take == 0) {
      // Cannot happen on a valid instance (every facility can always take
      // one client), but guard against NaN costs rather than spin forever.
      throw std::logic_error("jms_greedy: no improving star found");
    }

    // Open the winning facility, switch movable clients, connect its star,
    // and record each change for the next scan's still_current.
    const std::size_t i = best.facility;
    open[i] = true;
    last_opened = i;
    switched.clear();
    connected.clear();
    const std::vector<double>& row = oracle.row(i);
    for (std::size_t j = 0; j < nc; ++j) {
      if (assigned[j] != kUnassigned && row[j] < current_cost[j]) {
        switched.push_back({j, current_cost[j]});
        assigned[j] = i;
        current_cost[j] = row[j];
      }
    }
    std::size_t taken = 0;
    for (const auto& [cij, j] : oracle.sorted_row(i)) {
      if (taken >= best.take) break;
      if (assigned[j] != kUnassigned) continue;
      connected.push_back({j, cij});
      assigned[j] = i;
      current_cost[j] = cij;
      ++taken;
      --unconnected;
    }
  }

  // Tighten once: every client moves to its cheapest open facility. Then
  // drop facilities that ended up with no clients (a facility can lose all
  // its clients to later stars; keeping it would pay f_i for nothing) —
  // pruning unused facilities cannot change any client's cheapest choice,
  // so the assignment and connection cost carry over without a second
  // assignment pass.
  std::vector<std::size_t> opened;
  for (std::size_t i = 0; i < nf; ++i) {
    if (open[i]) opened.push_back(i);
  }
  FlSolution tight = assign_to_open(oracle, opened);
  std::vector<bool> used(nf, false);
  for (std::size_t f : tight.assignment) used[f] = true;
  std::vector<std::size_t> pruned;
  for (std::size_t f : tight.open) {
    if (used[f]) pruned.push_back(f);
  }
  if (pruned.size() == tight.open.size()) return tight;

  FlSolution sol;
  sol.assignment = std::move(tight.assignment);
  sol.connection_cost = tight.connection_cost;
  for (std::size_t f : pruned) {
    sol.opening_cost += instance.facilities[f].opening_cost;
  }
  sol.open = std::move(pruned);
  return sol;
}

FlSolution jms_greedy(const FlInstance& instance, const JmsOptions& options) {
  instance.validate();
  const CostOracle oracle(instance);
  return jms_greedy(oracle, options);
}

FlSolution jms_greedy(const FlInstance& instance) {
  return jms_greedy(instance, JmsOptions{});
}

}  // namespace esharing::solver
