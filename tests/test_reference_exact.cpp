#include "exact.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "stats/rng.h"
#include "stats/spatial.h"

namespace esharing::solver::reference {
namespace {

using geo::Point;

TEST(ExactSolver, TrivialSingleSite) {
  const auto inst = colocated_instance({{{0, 0}, 1.0}}, {10.0});
  const auto sol = exact_facility_location(inst);
  EXPECT_EQ(sol.num_open(), 1u);
  EXPECT_DOUBLE_EQ(sol.total_cost(), 10.0);
}

TEST(ExactSolver, ChoosesCheaperOfTwoStructures) {
  // Two sites 100 apart, weights 1. Opening both: 2f. One: f + 100.
  // f = 40 -> open both (80 < 140); f = 60 -> open one (160 > 120? no:
  // open both costs 120, one costs 160) -> both again; f = 120 -> one.
  const std::vector<FlClient> clients{{{0, 0}, 1.0}, {{100, 0}, 1.0}};
  const auto both = exact_facility_location(
      colocated_instance(clients, {40.0, 40.0}));
  EXPECT_EQ(both.num_open(), 2u);
  const auto one = exact_facility_location(
      colocated_instance(clients, {120.0, 120.0}));
  EXPECT_EQ(one.num_open(), 1u);
  EXPECT_DOUBLE_EQ(one.total_cost(), 220.0);
}

TEST(ExactSolver, MatchesBruteForceExpectation) {
  // Asymmetric opening costs: the optimum must pick the cheap facility.
  const std::vector<FlClient> clients{{{0, 0}, 1.0}, {{10, 0}, 1.0}};
  const auto sol = exact_facility_location(
      colocated_instance(clients, {1000.0, 5.0}));
  ASSERT_EQ(sol.num_open(), 1u);
  EXPECT_EQ(sol.open[0], 1u);
  EXPECT_DOUBLE_EQ(sol.total_cost(), 15.0);
}

TEST(ExactSolver, NeverWorseThanAnySingleton) {
  stats::Rng rng(3);
  const auto pts = stats::uniform_points(rng, {{0, 0}, {500, 500}}, 10);
  std::vector<FlClient> clients;
  std::vector<double> costs;
  for (Point p : pts) {
    clients.push_back({p, rng.uniform(0.5, 2.0)});
    costs.push_back(rng.uniform(50.0, 500.0));
  }
  const auto inst = colocated_instance(clients, costs);
  const auto best = exact_facility_location(inst);
  for (std::size_t f = 0; f < inst.facilities.size(); ++f) {
    EXPECT_LE(best.total_cost(),
              assign_to_open(inst, {f}).total_cost() + 1e-9);
  }
}

TEST(ExactSolver, RejectsTooManyFacilities) {
  std::vector<FlClient> clients;
  std::vector<double> costs;
  for (int i = 0; i < 25; ++i) {
    clients.push_back({{static_cast<double>(i), 0.0}, 1.0});
    costs.push_back(1.0);
  }
  const auto inst = colocated_instance(clients, costs);
  EXPECT_THROW((void)exact_facility_location(inst), std::invalid_argument);
  // A raised limit accepts larger instances (kept small enough here that
  // the exponential search still finishes instantly).
  std::vector<FlClient> few(clients.begin(), clients.begin() + 14);
  std::vector<double> few_costs(costs.begin(), costs.begin() + 14);
  EXPECT_NO_THROW((void)exact_facility_location(
      colocated_instance(few, few_costs), 14));
}

}  // namespace
}  // namespace esharing::solver::reference
