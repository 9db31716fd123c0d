#include "solver/jms_greedy.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "exact.h"
#include "stats/rng.h"
#include "stats/spatial.h"

namespace esharing::solver {
namespace {

using geo::Point;

TEST(JmsGreedy, SingleClusterOpensOneFacility) {
  // Tight cluster with expensive openings: one facility should serve all.
  std::vector<FlClient> clients;
  std::vector<double> costs;
  for (int i = 0; i < 5; ++i) {
    clients.push_back({{static_cast<double>(i), 0.0}, 1.0});
    costs.push_back(100.0);
  }
  const auto sol = jms_greedy(colocated_instance(clients, costs));
  EXPECT_EQ(sol.num_open(), 1u);
  EXPECT_DOUBLE_EQ(sol.opening_cost, 100.0);
}

TEST(JmsGreedy, CheapOpeningsOpenEverywhere) {
  std::vector<FlClient> clients;
  std::vector<double> costs;
  for (int i = 0; i < 5; ++i) {
    clients.push_back({{i * 100.0, 0.0}, 1.0});
    costs.push_back(0.001);
  }
  const auto sol = jms_greedy(colocated_instance(clients, costs));
  EXPECT_EQ(sol.num_open(), 5u);
  EXPECT_DOUBLE_EQ(sol.connection_cost, 0.0);
}

TEST(JmsGreedy, TwoDistantClustersOpenTwoFacilities) {
  std::vector<FlClient> clients;
  std::vector<double> costs;
  for (int i = 0; i < 4; ++i) {
    clients.push_back({{static_cast<double>(i), 0.0}, 1.0});
    clients.push_back({{10000.0 + i, 0.0}, 1.0});
    costs.push_back(50.0);
    costs.push_back(50.0);
  }
  const auto sol = jms_greedy(colocated_instance(clients, costs));
  EXPECT_EQ(sol.num_open(), 2u);
  EXPECT_LT(sol.connection_cost, 20.0);
}

TEST(JmsGreedy, EveryClientAssignedToNearestOpen) {
  stats::Rng rng(1);
  const auto pts = stats::uniform_points(rng, {{0, 0}, {1000, 1000}}, 40);
  std::vector<FlClient> clients;
  std::vector<double> costs;
  for (Point p : pts) {
    clients.push_back({p, rng.uniform(0.5, 3.0)});
    costs.push_back(rng.uniform(500.0, 1500.0));
  }
  const auto inst = colocated_instance(clients, costs);
  const auto sol = jms_greedy(inst);
  ASSERT_EQ(sol.assignment.size(), inst.clients.size());
  for (std::size_t j = 0; j < inst.clients.size(); ++j) {
    const double assigned = inst.connection_cost(sol.assignment[j], j);
    for (std::size_t f : sol.open) {
      EXPECT_LE(assigned, inst.connection_cost(f, j) + 1e-9);
    }
  }
}

TEST(JmsGreedy, NoUselessOpenFacility) {
  stats::Rng rng(2);
  const auto pts = stats::uniform_points(rng, {{0, 0}, {1000, 1000}}, 30);
  std::vector<FlClient> clients;
  std::vector<double> costs;
  for (Point p : pts) {
    clients.push_back({p, 1.0});
    costs.push_back(800.0);
  }
  const auto sol = jms_greedy(colocated_instance(clients, costs));
  std::vector<bool> used(pts.size(), false);
  for (std::size_t f : sol.assignment) used[f] = true;
  for (std::size_t f : sol.open) EXPECT_TRUE(used[f]);
}

TEST(JmsGreedy, ClientWeightsShiftTheChoice) {
  // A heavy client far from the cluster pulls a facility open next to it.
  std::vector<FlClient> light{{{0, 0}, 1.0}, {{10, 0}, 1.0}, {{2000, 0}, 0.01}};
  std::vector<FlClient> heavy{{{0, 0}, 1.0}, {{10, 0}, 1.0}, {{2000, 0}, 50.0}};
  const std::vector<double> costs{100.0, 100.0, 100.0};
  const auto sol_light = jms_greedy(colocated_instance(light, costs));
  const auto sol_heavy = jms_greedy(colocated_instance(heavy, costs));
  EXPECT_EQ(sol_light.num_open(), 1u);
  EXPECT_EQ(sol_heavy.num_open(), 2u);
}

/// Property: the greedy is within its proven 1.61 approximation factor of
/// the exact optimum on random small instances (we allow 1.62 for float
/// slack). This is the paper's Algorithm 1 guarantee.
class JmsApproximationRatio : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JmsApproximationRatio, WithinFactorOfExactOptimum) {
  stats::Rng rng(GetParam());
  const std::size_t n = 8 + rng.index(6);  // 8..13 colocated sites
  const auto pts = stats::uniform_points(rng, {{0, 0}, {1000, 1000}}, n);
  std::vector<FlClient> clients;
  std::vector<double> costs;
  for (Point p : pts) {
    clients.push_back({p, rng.uniform(0.5, 4.0)});
    costs.push_back(rng.uniform(100.0, 2000.0));
  }
  const auto inst = colocated_instance(clients, costs);
  const auto greedy = jms_greedy(inst);
  const auto exact = reference::exact_facility_location(inst);
  EXPECT_LE(greedy.total_cost(), 1.62 * exact.total_cost())
      << "greedy=" << greedy.total_cost() << " exact=" << exact.total_cost();
  EXPECT_GE(greedy.total_cost(), exact.total_cost() - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, JmsApproximationRatio,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace esharing::solver
