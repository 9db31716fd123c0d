#include "solver_reference.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

namespace esharing::solver::reference {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kUnassigned = static_cast<std::size_t>(-1);
// local_search's move cap and noise floor (solver/local_search.cpp).
constexpr std::size_t kMaxIterations = 1000;
constexpr double kMinImprovement = 1e-9;

struct Star {
  std::size_t facility{0};
  double ratio{kInf};
  std::size_t take{0};
};

/// Pre-refactor local-search evaluation over an eager cost matrix.
double evaluate(const FlInstance& inst,
                const std::vector<std::vector<double>>& cost,
                const std::vector<bool>& open) {
  double total = 0.0;
  bool any = false;
  for (std::size_t i = 0; i < open.size(); ++i) {
    if (open[i]) {
      any = true;
      total += inst.facilities[i].opening_cost;
    }
  }
  if (!any) return kInf;
  for (std::size_t j = 0; j < inst.clients.size(); ++j) {
    double best = kInf;
    for (std::size_t i = 0; i < open.size(); ++i) {
      if (open[i]) best = std::min(best, cost[i][j]);
    }
    total += best;
  }
  return total;
}

}  // namespace

FlSolution jms_greedy(const FlInstance& instance) {
  instance.validate();
  const std::size_t nf = instance.facilities.size();
  const std::size_t nc = instance.clients.size();

  std::vector<bool> open(nf, false);
  std::vector<std::size_t> assigned(nc, kUnassigned);
  std::vector<double> current_cost(nc, kInf);
  std::size_t unconnected = nc;

  std::vector<std::pair<double, std::size_t>> costs;
  costs.reserve(nc);

  while (unconnected > 0) {
    Star best;
    for (std::size_t i = 0; i < nf; ++i) {
      const double fee = open[i] ? 0.0 : instance.facilities[i].opening_cost;

      double gain = 0.0;
      costs.clear();
      for (std::size_t j = 0; j < nc; ++j) {
        const double cij = instance.connection_cost(i, j);
        if (assigned[j] == kUnassigned) {
          costs.emplace_back(cij, j);
        } else if (cij < current_cost[j]) {
          gain += current_cost[j] - cij;
        }
      }
      std::sort(costs.begin(), costs.end());

      double prefix = 0.0;
      for (std::size_t k = 0; k < costs.size(); ++k) {
        prefix += costs[k].first;
        const double ratio = (fee + prefix - gain) / static_cast<double>(k + 1);
        if (ratio < best.ratio) {
          best = {i, ratio, k + 1};
        }
      }
    }

    if (best.take == 0) {
      throw std::logic_error("jms_greedy: no improving star found");
    }

    const std::size_t i = best.facility;
    open[i] = true;
    costs.clear();
    for (std::size_t j = 0; j < nc; ++j) {
      const double cij = instance.connection_cost(i, j);
      if (assigned[j] == kUnassigned) {
        costs.emplace_back(cij, j);
      } else if (cij < current_cost[j]) {
        assigned[j] = i;
        current_cost[j] = cij;
      }
    }
    std::sort(costs.begin(), costs.end());
    for (std::size_t k = 0; k < best.take && k < costs.size(); ++k) {
      const std::size_t j = costs[k].second;
      assigned[j] = i;
      current_cost[j] = costs[k].first;
      --unconnected;
    }
  }

  FlSolution sol;
  for (std::size_t i = 0; i < nf; ++i) {
    if (open[i]) sol.open.push_back(i);
  }
  sol.assignment = std::move(assigned);
  FlSolution tight = assign_to_open(instance, sol.open);

  std::vector<bool> used(nf, false);
  for (std::size_t f : tight.assignment) used[f] = true;
  std::vector<std::size_t> pruned;
  for (std::size_t f : tight.open) {
    if (used[f]) pruned.push_back(f);
  }
  return assign_to_open(instance, pruned);
}

FlSolution local_search(const FlInstance& instance, const FlSolution& initial,
                        const LocalSearchOptions& options) {
  instance.validate();
  if (initial.open.empty()) {
    throw std::invalid_argument("local_search: empty initial open set");
  }
  const std::size_t nf = instance.facilities.size();
  const std::size_t nc = instance.clients.size();
  std::vector<std::vector<double>> cost(nf, std::vector<double>(nc));
  for (std::size_t i = 0; i < nf; ++i) {
    for (std::size_t j = 0; j < nc; ++j) {
      cost[i][j] = instance.connection_cost(i, j);
    }
  }

  std::vector<bool> open(nf, false);
  for (std::size_t i : initial.open) {
    if (i >= nf) {
      throw std::invalid_argument("local_search: facility index out of range");
    }
    open[i] = true;
  }
  double current = evaluate(instance, cost, open);

  for (std::size_t iter = 0; iter < kMaxIterations; ++iter) {
    double best = current;
    std::size_t best_open = nf, best_close = nf;

    for (std::size_t i = 0; i < nf; ++i) {
      if (open[i]) continue;
      open[i] = true;
      const double c = evaluate(instance, cost, open);
      open[i] = false;
      if (c < best - kMinImprovement) {
        best = c;
        best_open = i;
        best_close = nf;
      }
    }
    for (std::size_t i = 0; i < nf; ++i) {
      if (!open[i]) continue;
      open[i] = false;
      const double c = evaluate(instance, cost, open);
      open[i] = true;
      if (c < best - kMinImprovement) {
        best = c;
        best_open = nf;
        best_close = i;
      }
    }
    if (options.allow_swaps) {
      for (std::size_t out = 0; out < nf; ++out) {
        if (!open[out]) continue;
        open[out] = false;
        for (std::size_t in = 0; in < nf; ++in) {
          if (open[in] || in == out) continue;
          open[in] = true;
          const double c = evaluate(instance, cost, open);
          open[in] = false;
          if (c < best - kMinImprovement) {
            best = c;
            best_open = in;
            best_close = out;
          }
        }
        open[out] = true;
      }
    }

    if (best >= current - kMinImprovement) break;
    if (best_open < nf) open[best_open] = true;
    if (best_close < nf) open[best_close] = false;
    current = best;
  }

  std::vector<std::size_t> open_set;
  for (std::size_t i = 0; i < nf; ++i) {
    if (open[i]) open_set.push_back(i);
  }
  return assign_to_open(instance, open_set);
}

}  // namespace esharing::solver::reference
