#include "solver/cost_oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>  // lint-ok: raw-thread std::this_thread::yield only, no spawning

#include "exec/thread_pool.h"
#include "obs/registry.h"
#include "solver/instance_delta.h"

namespace esharing::solver {

namespace {

struct OracleMetrics {
  obs::Counter& row_materializations;
  obs::Counter& row_hits;
  obs::Counter& sorted_materializations;
  obs::Counter& sorted_hits;
  obs::Counter& rows_reused;
  obs::Counter& rows_invalidated;
  obs::Counter& sorted_invalidated;

  static OracleMetrics& get() {
    static OracleMetrics m{
        obs::Registry::global().counter(
            "solver.cost_oracle.row_materializations"),
        obs::Registry::global().counter("solver.cost_oracle.row_hits"),
        obs::Registry::global().counter(
            "solver.cost_oracle.sorted_materializations"),
        obs::Registry::global().counter("solver.cost_oracle.sorted_hits"),
        obs::Registry::global().counter("solver.cost_oracle.rows_reused"),
        obs::Registry::global().counter("solver.cost_oracle.rows_invalidated"),
        obs::Registry::global().counter(
            "solver.cost_oracle.sorted_invalidated"),
    };
    return m;
  }
};

/// One facility row per chunk in batch materialization: a row is O(clients)
/// hypots, heavy enough that finer grain buys load balance, not overhead.
constexpr std::size_t kRowGrain = 1;

}  // namespace

CostOracle::CostOracle(const FlInstance& instance)
    : instance_(&instance),
      rows_(instance.facilities.size()),
      row_state_(new std::atomic<std::uint8_t>[instance.facilities.size()]),
      sorted_rows_(instance.facilities.size()),
      sorted_state_(new std::atomic<std::uint8_t>[instance.facilities.size()]) {
  const std::size_t nc = instance.clients.size();
  client_x_.reserve(nc);
  client_y_.reserve(nc);
  client_w_.reserve(nc);
  for (const FlClient& c : instance.clients) {
    client_x_.push_back(c.location.x);
    client_y_.push_back(c.location.y);
    client_w_.push_back(c.weight);
  }
  for (std::size_t i = 0; i < instance.facilities.size(); ++i) {
    row_state_[i].store(kEmpty, std::memory_order_relaxed);
    sorted_state_[i].store(kEmpty, std::memory_order_relaxed);
  }
}

void CostOracle::materialize_row(std::size_t facility,
                                 std::atomic<std::uint8_t>& state) const {
  if (obs::enabled()) OracleMetrics::get().row_materializations.add();
  const std::size_t nc = client_x_.size();
  const double fx = instance_->facilities[facility].location.x;
  const double fy = instance_->facilities[facility].location.y;
  std::vector<double>& r = rows_[facility];
  r.resize(nc);
  // SoA kernel: the exact FlInstance::connection_cost expression
  // a_j * hypot(fx - cx, fy - cy), streamed over contiguous planes.
  for (std::size_t j = 0; j < nc; ++j) {
    r[j] = client_w_[j] * std::hypot(fx - client_x_[j], fy - client_y_[j]);
  }
  state.store(kReady, std::memory_order_release);
}

const std::vector<double>& CostOracle::row(std::size_t facility) const {
  if (facility >= rows_.size()) {
    throw std::out_of_range("CostOracle::row: facility index out of range");
  }
  std::atomic<std::uint8_t>& state = row_state_[facility];
  if (state.load(std::memory_order_acquire) == kReady) {
    if (obs::enabled()) {
      // Hit counting sits in the solvers' innermost loops (millions of
      // accesses per solve) — batch per thread instead of one RMW per hit.
      thread_local obs::CounterShard hits(OracleMetrics::get().row_hits);
      hits.add();
    }
    return rows_[facility];
  }
  std::uint8_t expected = kEmpty;
  if (state.compare_exchange_strong(expected, kBuilding,
                                    std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
    materialize_row(facility, state);
  } else {
    // Another thread won the slot; its kReady release-store makes the row
    // contents visible to this acquire spin.
    while (state.load(std::memory_order_acquire) != kReady) {
      std::this_thread::yield();
    }
  }
  return rows_[facility];
}

const std::vector<std::pair<double, std::size_t>>& CostOracle::sorted_row(
    std::size_t facility) const {
  if (facility >= sorted_rows_.size()) {
    throw std::out_of_range("CostOracle::sorted_row: facility index out of range");
  }
  std::atomic<std::uint8_t>& state = sorted_state_[facility];
  if (state.load(std::memory_order_acquire) == kReady) {
    if (obs::enabled()) {
      thread_local obs::CounterShard hits(OracleMetrics::get().sorted_hits);
      hits.add();
    }
    return sorted_rows_[facility];
  }
  std::uint8_t expected = kEmpty;
  if (state.compare_exchange_strong(expected, kBuilding,
                                    std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
    if (obs::enabled()) OracleMetrics::get().sorted_materializations.add();
    const std::vector<double>& r = row(facility);
    std::vector<std::pair<double, std::size_t>>& sorted =
        sorted_rows_[facility];
    sorted.reserve(r.size());
    for (std::size_t j = 0; j < r.size(); ++j) sorted.emplace_back(r[j], j);
    std::sort(sorted.begin(), sorted.end());
    state.store(kReady, std::memory_order_release);
  } else {
    while (state.load(std::memory_order_acquire) != kReady) {
      std::this_thread::yield();
    }
  }
  return sorted_rows_[facility];
}

void CostOracle::ensure_rows(std::size_t begin, std::size_t end,
                             std::size_t width) const {
  if (end > rows_.size() || begin > end) {
    throw std::out_of_range("CostOracle::ensure_rows: bad facility range");
  }
  exec::parallel_for(
      end - begin, kRowGrain,
      [&](std::size_t b, std::size_t e, std::size_t) {
        for (std::size_t i = begin + b; i < begin + e; ++i) {
          static_cast<void>(row(i));
        }
      },
      width);
}

void CostOracle::ensure_all_rows(std::size_t width) const {
  ensure_rows(0, rows_.size(), width);
}

void CostOracle::reserve_rows() const {
  const std::size_t nc = client_x_.size();
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (row_state_[i].load(std::memory_order_acquire) == kEmpty) {
      rows_[i].reserve(nc);
    }
    if (sorted_state_[i].load(std::memory_order_acquire) == kEmpty) {
      sorted_rows_[i].reserve(nc);
    }
  }
}

void CostOracle::apply_delta(const InstanceDelta& delta) {
  const std::size_t nc_old = client_x_.size();
  const std::size_t nf_old = rows_.size();
  const std::size_t nc_new = instance_->clients.size();
  const std::size_t nf_new = instance_->facilities.size();
  if (delta.remove_clients.size() > nc_old ||
      delta.remove_facilities.size() > nf_old ||
      nc_old - delta.remove_clients.size() + delta.add_clients.size() !=
          nc_new ||
      nf_old - delta.remove_facilities.size() + delta.add_facilities.size() !=
          nf_new) {
    throw std::logic_error(
        "CostOracle::apply_delta: instance size does not match the oracle's "
        "pre-delta view plus this delta — apply_delta(instance, delta) must "
        "run first, with the same delta");
  }
  for (const WeightUpdate& u : delta.weight_updates) {
    if (u.client >= nc_old) {
      throw std::logic_error(
          "CostOracle::apply_delta: weight update names a client beyond the "
          "pre-delta instance");
    }
  }
  for (std::size_t j : delta.remove_clients) {
    if (j >= nc_old) {
      throw std::logic_error(
          "CostOracle::apply_delta: client removal beyond the pre-delta "
          "instance");
    }
  }
  for (std::size_t i : delta.remove_facilities) {
    if (i >= nf_old) {
      throw std::logic_error(
          "CostOracle::apply_delta: facility removal beyond the pre-delta "
          "instance");
    }
  }

  const bool clients_changed = !delta.weight_updates.empty() ||
                               !delta.remove_clients.empty() ||
                               !delta.add_clients.empty();

  std::vector<std::size_t> removed_f = delta.remove_facilities;
  std::sort(removed_f.begin(), removed_f.end());
  // Descending so per-row erasures keep later indices valid.
  std::vector<std::size_t> removed_c = delta.remove_clients;
  std::sort(removed_c.begin(), removed_c.end(), std::greater<>());

  std::uint64_t reused = 0;
  std::uint64_t invalidated = 0;
  std::uint64_t sorted_dropped = 0;

  std::vector<std::vector<double>> new_rows;
  std::vector<std::vector<std::pair<double, std::size_t>>> new_sorted;
  new_rows.reserve(nf_new);
  new_sorted.reserve(nf_new);
  std::unique_ptr<std::atomic<std::uint8_t>[]> new_row_state(
      new std::atomic<std::uint8_t>[nf_new]);
  std::unique_ptr<std::atomic<std::uint8_t>[]> new_sorted_state(
      new std::atomic<std::uint8_t>[nf_new]);

  std::size_t next_removed = 0;
  for (std::size_t i = 0; i < nf_old; ++i) {
    if (next_removed < removed_f.size() && removed_f[next_removed] == i) {
      ++next_removed;
      if (row_state_[i].load(std::memory_order_relaxed) == kReady) {
        ++invalidated;
      }
      if (sorted_state_[i].load(std::memory_order_relaxed) == kReady) {
        ++sorted_dropped;
      }
      continue;
    }
    const std::size_t ni = new_rows.size();
    const std::uint8_t rstate = row_state_[i].load(std::memory_order_relaxed);
    if (rstate == kReady) {
      std::vector<double>& r = rows_[i];
      if (clients_changed) {
        // Patch in place against the PRE-delta SoA planes (a re-weighted
        // client keeps its coordinates); every touched entry is recomputed
        // with the exact fresh-oracle kernel expression, so the patched
        // row is bit-identical to a cold materialization.
        const double fx = instance_->facilities[ni].location.x;
        const double fy = instance_->facilities[ni].location.y;
        for (const WeightUpdate& u : delta.weight_updates) {
          if (client_w_[u.client] == u.weight) continue;
          r[u.client] = u.weight * std::hypot(fx - client_x_[u.client],
                                              fy - client_y_[u.client]);
        }
        for (std::size_t j : removed_c) {
          r.erase(r.begin() + static_cast<std::ptrdiff_t>(j));
        }
        for (const FlClient& c : delta.add_clients) {
          r.push_back(c.weight *
                      std::hypot(fx - c.location.x, fy - c.location.y));
        }
      }
      ++reused;
    }
    new_rows.push_back(std::move(rows_[i]));
    new_row_state[ni].store(rstate, std::memory_order_relaxed);
    const std::uint8_t sstate =
        sorted_state_[i].load(std::memory_order_relaxed);
    if (clients_changed) {
      // Any client change can reorder the row; force a fresh sort.
      if (sstate == kReady) ++sorted_dropped;
      new_sorted.emplace_back();
      new_sorted_state[ni].store(kEmpty, std::memory_order_relaxed);
    } else {
      new_sorted.push_back(std::move(sorted_rows_[i]));
      new_sorted_state[ni].store(sstate, std::memory_order_relaxed);
    }
  }
  for (std::size_t i = new_rows.size(); i < nf_new; ++i) {
    new_rows.emplace_back();
    new_sorted.emplace_back();
    new_row_state[i].store(kEmpty, std::memory_order_relaxed);
    new_sorted_state[i].store(kEmpty, std::memory_order_relaxed);
  }

  // Only now mutate the SoA planes (row patching above read the old ones).
  for (const WeightUpdate& u : delta.weight_updates) {
    client_w_[u.client] = u.weight;
  }
  for (std::size_t j : removed_c) {
    client_x_.erase(client_x_.begin() + static_cast<std::ptrdiff_t>(j));
    client_y_.erase(client_y_.begin() + static_cast<std::ptrdiff_t>(j));
    client_w_.erase(client_w_.begin() + static_cast<std::ptrdiff_t>(j));
  }
  for (const FlClient& c : delta.add_clients) {
    client_x_.push_back(c.location.x);
    client_y_.push_back(c.location.y);
    client_w_.push_back(c.weight);
  }

  rows_ = std::move(new_rows);
  sorted_rows_ = std::move(new_sorted);
  row_state_ = std::move(new_row_state);
  sorted_state_ = std::move(new_sorted_state);
  ++revision_;

  if (obs::enabled()) {
    OracleMetrics& m = OracleMetrics::get();
    m.rows_reused.add(reused);
    m.rows_invalidated.add(invalidated);
    m.sorted_invalidated.add(sorted_dropped);
  }
}

FlSolution assign_to_open(const CostOracle& oracle,
                          const std::vector<std::size_t>& open) {
  if (open.empty()) {
    throw std::invalid_argument("assign_to_open: empty open set");
  }
  for (std::size_t f : open) {
    if (f >= oracle.num_facilities()) {
      throw std::invalid_argument("assign_to_open: facility index out of range");
    }
  }
  FlSolution sol;
  sol.open = open;
  std::sort(sol.open.begin(), sol.open.end());
  sol.open.erase(std::unique(sol.open.begin(), sol.open.end()), sol.open.end());
  sol.assignment.resize(oracle.num_clients());
  for (std::size_t j = 0; j < oracle.num_clients(); ++j) {
    double best = std::numeric_limits<double>::infinity();
    std::size_t best_f = sol.open.front();
    for (std::size_t f : sol.open) {
      const double c = oracle.cost(f, j);
      if (c < best) {
        best = c;
        best_f = f;
      }
    }
    sol.assignment[j] = best_f;
    sol.connection_cost += best;
  }
  for (std::size_t f : sol.open) {
    sol.opening_cost += oracle.instance().facilities[f].opening_cost;
  }
  return sol;
}

}  // namespace esharing::solver
