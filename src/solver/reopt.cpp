#include "solver/reopt.h"

#include <stdexcept>
#include <utility>

#include "obs/registry.h"
#include "obs/scoped_timer.h"
#include "solver/jms_greedy.h"
#include "solver/local_search.h"

namespace esharing::solver {

namespace {

struct ReoptMetrics {
  obs::Counter& epochs;
  obs::Counter& zero_delta_hits;
  obs::Counter& warm_solves;
  obs::Counter& cold_solves;
  obs::Histogram& resolve_seconds;

  static ReoptMetrics& get() {
    static ReoptMetrics m{
        obs::Registry::global().counter("solver.reopt.epochs"),
        obs::Registry::global().counter("solver.reopt.zero_delta_hits"),
        obs::Registry::global().counter("solver.reopt.warm_solves"),
        obs::Registry::global().counter("solver.reopt.cold_solves"),
        obs::Registry::global().histogram("solver.reopt.resolve_seconds"),
    };
    return m;
  }
};

}  // namespace

ReoptimizationSession::ReoptimizationSession(
    FlInstance instance, ReoptOptions options,
    std::function<double(geo::Point)> opening_cost)
    : options_(options),
      opening_cost_(std::move(opening_cost)),
      instance_(std::move(instance)),
      oracle_(instance_) {
  instance_.validate();
  last_ = jms_greedy(oracle_, JmsOptions{options_.num_threads});
  stats_.baseline_cost = last_.total_cost();
  stats_.final_cost = last_.total_cost();
  stats_.cold = true;
}

ReoptimizationSession::ReoptimizationSession(
    FromStateTag, FlInstance instance, FlSolution last, ReoptOptions options,
    std::function<double(geo::Point)> opening_cost)
    : options_(options),
      opening_cost_(std::move(opening_cost)),
      instance_(std::move(instance)),
      oracle_(instance_) {
  instance_.validate();
  last_ = std::move(last);
  stats_.baseline_cost = last_.total_cost();
  stats_.final_cost = last_.total_cost();
}

std::unique_ptr<ReoptimizationSession> ReoptimizationSession::from_state(
    FlInstance instance, FlSolution last, ReoptOptions options,
    std::function<double(geo::Point)> opening_cost) {
  if (last.assignment.size() != instance.clients.size()) {
    throw std::invalid_argument(
        "ReoptimizationSession::from_state: solution assigns " +
        std::to_string(last.assignment.size()) + " clients, the instance has " +
        std::to_string(instance.clients.size()));
  }
  if (last.open.empty()) {
    throw std::invalid_argument(
        "ReoptimizationSession::from_state: solution opens no facility");
  }
  for (std::size_t f : last.open) {
    if (f >= instance.facilities.size()) {
      throw std::invalid_argument(
          "ReoptimizationSession::from_state: open facility index " +
          std::to_string(f) + " out of range");
    }
  }
  for (std::size_t f : last.assignment) {
    if (f >= instance.facilities.size()) {
      throw std::invalid_argument(
          "ReoptimizationSession::from_state: assignment index " +
          std::to_string(f) + " out of range");
    }
  }
  return std::unique_ptr<ReoptimizationSession>(new ReoptimizationSession(
      FromStateTag{}, std::move(instance), std::move(last), options,
      std::move(opening_cost)));
}

const FlSolution& ReoptimizationSession::reoptimize(const InstanceDelta& delta) {
  if (delta.empty()) {
    // Zero-delta contract: the cached solution, bit-identically, with no
    // instance/oracle/row work at all.
    stats_ = ReoptStats{.zero_delta = true,
                        .baseline_cost = last_.total_cost(),
                        .final_cost = last_.total_cost()};
    if (obs::enabled()) ReoptMetrics::get().zero_delta_hits.add();
    return last_;
  }

  const obs::ScopedTimer timer(ReoptMetrics::get().resolve_seconds);
  apply_delta(instance_, delta);  // validates first
  oracle_.apply_delta(delta);

  stats_ = ReoptStats{};
  std::vector<std::size_t> carried = remap_open_set(last_.open, delta);
  if (carried.empty()) {
    // The delta removed every previously open facility — nothing to warm
    // from; fall back to a cold solve.
    last_ = jms_greedy(oracle_, JmsOptions{options_.num_threads});
    stats_.cold = true;
    stats_.baseline_cost = last_.total_cost();
    if (obs::enabled()) ReoptMetrics::get().cold_solves.add();
  } else {
    // "Keep yesterday's plan" is the baseline the warm re-solve must never
    // lose to; local_search's never-worse guarantee makes that structural.
    FlSolution baseline = assign_to_open(oracle_, carried);
    stats_.baseline_cost = baseline.total_cost();
    last_ = local_search(
        oracle_, baseline,
        {.allow_swaps = false, .num_threads = options_.num_threads});
    if (obs::enabled()) ReoptMetrics::get().warm_solves.add();
  }
  stats_.final_cost = last_.total_cost();
  if (obs::enabled()) ReoptMetrics::get().epochs.add();
  return last_;
}

const FlSolution& ReoptimizationSession::reoptimize_to(
    const std::vector<FlClient>& target) {
  if (!opening_cost_) {
    throw std::logic_error(
        "ReoptimizationSession::reoptimize_to: constructed without an "
        "opening-cost fn — new candidate sites cannot be priced");
  }
  return reoptimize(diff_colocated(instance_, target, opening_cost_));
}

}  // namespace esharing::solver
