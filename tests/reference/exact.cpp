#include "exact.h"

#include <limits>
#include <stdexcept>
#include <vector>

#include "solver/cost_oracle.h"

namespace esharing::solver::reference {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Depth-first branch and bound. State: for each facility, open / closed /
/// undecided (decided in index order). Lower bound: opening costs of the
/// already-open set plus, per client, the cheapest connection among
/// facilities that are open or still undecided.
class BranchAndBound {
 public:
  explicit BranchAndBound(const FlInstance& inst) : inst_(inst), oracle_(inst) {
    state_.assign(inst.facilities.size(), State::kUndecided);
  }

  FlSolution solve() {
    recurse(0, 0.0);
    if (best_open_.empty()) {
      throw std::logic_error("exact_facility_location: no feasible solution");
    }
    return assign_to_open(inst_, best_open_);
  }

 private:
  enum class State { kUndecided, kOpen, kClosed };

  double lower_bound(double opened_cost) const {
    double bound = opened_cost;
    for (std::size_t j = 0; j < inst_.clients.size(); ++j) {
      double cheapest = kInf;
      for (std::size_t i = 0; i < inst_.facilities.size(); ++i) {
        if (state_[i] != State::kClosed) {
          cheapest = std::min(cheapest, oracle_.cost(i, j));
        }
      }
      if (cheapest == kInf) return kInf;  // some client unservable
      bound += cheapest;
    }
    return bound;
  }

  void recurse(std::size_t idx, double opened_cost) {
    const double bound = lower_bound(opened_cost);
    if (bound >= best_cost_) return;
    if (idx == inst_.facilities.size()) {
      // All decided; the bound is now the exact cost of this open set.
      best_cost_ = bound;
      best_open_.clear();
      for (std::size_t i = 0; i < state_.size(); ++i) {
        if (state_[i] == State::kOpen) best_open_.push_back(i);
      }
      return;
    }
    state_[idx] = State::kOpen;
    recurse(idx + 1, opened_cost + inst_.facilities[idx].opening_cost);
    state_[idx] = State::kClosed;
    recurse(idx + 1, opened_cost);
    state_[idx] = State::kUndecided;
  }

  const FlInstance& inst_;
  CostOracle oracle_;
  std::vector<State> state_;
  double best_cost_{kInf};
  std::vector<std::size_t> best_open_;
};

}  // namespace

FlSolution exact_facility_location(const FlInstance& instance,
                                   std::size_t max_facilities) {
  instance.validate();
  if (instance.facilities.size() > max_facilities) {
    throw std::invalid_argument(
        "exact_facility_location: too many candidate facilities for exact search");
  }
  return BranchAndBound(instance).solve();
}

}  // namespace esharing::solver::reference
