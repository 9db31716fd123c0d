#include "solver/local_search.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "exec/thread_pool.h"
#include "obs/registry.h"
#include "obs/scoped_timer.h"

namespace esharing::solver {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Safety cap on improving moves per search.
constexpr std::size_t kMaxIterations = 1000;
/// Gains at or below this are noise: the search treats them as no gain.
constexpr double kMinImprovement = 1e-9;

struct LocalSearchMetrics {
  obs::Counter& solves;
  obs::Counter& iterations;
  obs::Counter& moves_evaluated;
  obs::Histogram& solve_seconds;

  static LocalSearchMetrics& get() {
    static LocalSearchMetrics m{
        obs::Registry::global().counter("solver.local_search.solves"),
        obs::Registry::global().counter("solver.local_search.iterations"),
        obs::Registry::global().counter("solver.local_search.moves_evaluated"),
        obs::Registry::global().histogram("solver.local_search.solve_seconds"),
    };
    return m;
  }
};

/// One candidate move: open `force_open` and/or close `force_close`
/// (nf = no-op on that side). Open moves have force_close == nf, close
/// moves force_open == nf, swaps set both.
struct Move {
  std::size_t force_open;
  std::size_t force_close;
};

/// Each client's two cheapest connections over the current open set:
/// best[j] is the nearest open cost, nearest[j] the lowest-index facility
/// attaining it, and second[j] the cheapest over the other open facilities
/// (equal to best[j] on a tie, infinity with one facility open).
struct OpenNearest {
  std::vector<double> best;
  std::vector<double> second;
  std::vector<std::size_t> nearest;
};

OpenNearest nearest_open(const CostOracle& oracle,
                         const std::vector<bool>& open) {
  const std::size_t nf = open.size();
  const std::size_t nc = oracle.instance().clients.size();
  OpenNearest near{std::vector<double>(nc, kInf),
                   std::vector<double>(nc, kInf),
                   std::vector<std::size_t>(nc, nf)};
  for (std::size_t i = 0; i < nf; ++i) {
    if (!open[i]) continue;
    const std::vector<double>& row = oracle.row(i);
    for (std::size_t j = 0; j < nc; ++j) {
      const double c = row[j];
      if (c < near.best[j]) {
        near.second[j] = near.best[j];
        near.best[j] = c;
        near.nearest[j] = i;
      } else if (c < near.second[j]) {
        near.second[j] = c;
      }
    }
  }
  return near;
}

/// Total cost of `open` with the move's overrides applied, in
/// O(facilities + clients): opening costs summed in ascending facility
/// order, then each client's cheapest connection in ascending client
/// order. That connection is the nearest open cost — or the second-nearest
/// when the move closes the nearest facility — min'd with the opened
/// facility's cost. min is exact, so every total is bit-identical to
/// rescanning the effective open set's rows. Returns infinity for an
/// empty effective set.
double evaluate(const CostOracle& oracle, const std::vector<bool>& open,
                const OpenNearest& near, std::size_t force_open,
                std::size_t force_close) {
  const FlInstance& inst = oracle.instance();
  const std::size_t nf = open.size();
  double total = 0.0;
  bool any_open = false;
  for (std::size_t i = 0; i < nf; ++i) {
    const bool on = (open[i] || i == force_open) && i != force_close;
    if (on) {
      total += inst.facilities[i].opening_cost;
      any_open = true;
    }
  }
  if (!any_open) return kInf;
  const std::vector<double>* opened =
      force_open < nf ? &oracle.row(force_open) : nullptr;
  for (std::size_t j = 0; j < inst.clients.size(); ++j) {
    double best =
        near.nearest[j] == force_close ? near.second[j] : near.best[j];
    if (opened != nullptr) best = std::min(best, (*opened)[j]);
    total += best;
  }
  return total;
}

}  // namespace

FlSolution local_search(const CostOracle& oracle, const FlSolution& initial,
                        const LocalSearchOptions& options) {
  const FlInstance& instance = oracle.instance();
  instance.validate();
  if (initial.open.empty()) {
    throw std::invalid_argument("local_search: empty initial open set");
  }
  const std::size_t nf = instance.facilities.size();
  // num_threads = pool width request: 0 = process-wide exec pool width.
  const std::size_t threads = exec::resolve_width(options.num_threads);

  const obs::ScopedTimer timer(LocalSearchMetrics::get().solve_seconds);
  if (obs::enabled()) LocalSearchMetrics::get().solves.add();

  // Materialize every row up front so move evaluations only read: batch
  // materialization on the exec pool (row slots publish atomically, so
  // overlapping access would be safe regardless — this is for throughput).
  oracle.ensure_all_rows(threads);

  std::vector<bool> open(nf, false);
  for (std::size_t i : initial.open) {
    if (i >= nf) {
      throw std::invalid_argument("local_search: facility index out of range");
    }
    open[i] = true;
  }
  OpenNearest near = nearest_open(oracle, open);
  double current = evaluate(oracle, open, near, nf, nf);

  std::vector<Move> moves;
  std::vector<double> move_cost;
  for (std::size_t iter = 0; iter < kMaxIterations; ++iter) {
    // Canonical move order: opens, closes, swaps (out-major). The
    // sequential selection below depends on this order, so it is part of
    // the determinism contract.
    moves.clear();
    for (std::size_t i = 0; i < nf; ++i) {
      if (!open[i]) moves.push_back({i, nf});
    }
    for (std::size_t i = 0; i < nf; ++i) {
      if (open[i]) moves.push_back({nf, i});
    }
    if (options.allow_swaps) {
      for (std::size_t out = 0; out < nf; ++out) {
        if (!open[out]) continue;
        for (std::size_t in = 0; in < nf; ++in) {
          if (!open[in] && in != out) moves.push_back({in, out});
        }
      }
    }

    // Evaluate all candidates (parallelizable: each is independent), then
    // select sequentially with the original evolving-threshold rule.
    if (obs::enabled()) {
      LocalSearchMetrics::get().iterations.add();
      LocalSearchMetrics::get().moves_evaluated.add(moves.size());
    }
    // Per-index writes into move_cost: safe for any chunking, and the
    // sequential selection below reads them in canonical move order, so
    // the result never depends on the width. The grain is a fixed
    // constant; each move evaluation is O(facilities + clients).
    move_cost.assign(moves.size(), kInf);
    exec::parallel_for(
        moves.size(), /*grain=*/4,
        [&](std::size_t b, std::size_t e, std::size_t) {
          for (std::size_t m = b; m < e; ++m) {
            move_cost[m] = evaluate(oracle, open, near, moves[m].force_open,
                                    moves[m].force_close);
          }
        },
        threads);
    double best = current;
    std::size_t best_open = nf, best_close = nf;
    for (std::size_t m = 0; m < moves.size(); ++m) {
      if (move_cost[m] < best - kMinImprovement) {
        best = move_cost[m];
        best_open = moves[m].force_open;
        best_close = moves[m].force_close;
      }
    }

    if (best >= current - kMinImprovement) break;  // local optimum
    if (best_open < nf) open[best_open] = true;
    if (best_close < nf) open[best_close] = false;
    current = best;
    near = nearest_open(oracle, open);
  }

  std::vector<std::size_t> open_set;
  for (std::size_t i = 0; i < nf; ++i) {
    if (open[i]) open_set.push_back(i);
  }
  return assign_to_open(oracle, open_set);
}

FlSolution local_search(const FlInstance& instance, const FlSolution& initial,
                        const LocalSearchOptions& options) {
  const CostOracle oracle(instance);
  return local_search(oracle, initial, options);
}

FlSolution local_search_from_scratch(const FlInstance& instance,
                                     const LocalSearchOptions& options) {
  instance.validate();
  const CostOracle oracle(instance);
  // Start from the single facility with the cheapest (opening + service)
  // cost; local search opens the rest as needed.
  std::size_t best = 0;
  double best_cost = kInf;
  for (std::size_t i = 0; i < instance.facilities.size(); ++i) {
    const auto sol = assign_to_open(oracle, {i});
    if (sol.total_cost() < best_cost) {
      best_cost = sol.total_cost();
      best = i;
    }
  }
  return local_search(oracle, assign_to_open(oracle, {best}), options);
}

}  // namespace esharing::solver
