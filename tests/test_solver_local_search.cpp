#include "solver/local_search.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "solver/jms_greedy.h"
#include "exact.h"
#include "stats/rng.h"
#include "stats/spatial.h"

namespace esharing::solver {
namespace {

using geo::Point;

FlInstance random_instance(std::uint64_t seed, std::size_t n) {
  stats::Rng rng(seed);
  const auto pts = stats::uniform_points(rng, {{0, 0}, {1000, 1000}}, n);
  std::vector<FlClient> clients;
  std::vector<double> costs;
  for (Point p : pts) {
    clients.push_back({p, rng.uniform(0.5, 3.0)});
    costs.push_back(rng.uniform(100.0, 1500.0));
  }
  return colocated_instance(clients, costs);
}

TEST(LocalSearch, NeverWorsensTheInput) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto inst = random_instance(seed, 25);
    const auto start = assign_to_open(inst, {0});
    const auto improved = local_search(inst, start);
    EXPECT_LE(improved.total_cost(), start.total_cost() + 1e-9);
  }
}

TEST(LocalSearch, FixesAnObviouslyBadStart) {
  // Two far clusters; starting with only one facility, local search must
  // open a second one near the other cluster.
  std::vector<FlClient> clients;
  std::vector<double> costs;
  for (int i = 0; i < 4; ++i) {
    clients.push_back({{static_cast<double>(i), 0.0}, 1.0});
    clients.push_back({{50000.0 + i, 0.0}, 1.0});
    costs.push_back(100.0);
    costs.push_back(100.0);
  }
  const auto inst = colocated_instance(clients, costs);
  const auto improved = local_search(inst, assign_to_open(inst, {0}));
  EXPECT_EQ(improved.num_open(), 2u);
  EXPECT_LT(improved.connection_cost, 50.0);
}

TEST(LocalSearch, ClosesRedundantFacilities) {
  // Start with everything open and expensive openings: close-to-optimal
  // plans keep only a couple of facilities.
  const auto inst = random_instance(3, 15);
  std::vector<std::size_t> all;
  for (std::size_t i = 0; i < inst.facilities.size(); ++i) all.push_back(i);
  const auto start = assign_to_open(inst, all);
  const auto improved = local_search(inst, start);
  EXPECT_LT(improved.num_open(), inst.facilities.size());
  EXPECT_LT(improved.total_cost(), start.total_cost());
}

class LocalSearchQuality : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LocalSearchQuality, WithinFactor3OfExactOptimum) {
  stats::Rng rng(GetParam());
  const std::size_t n = 6 + rng.index(7);
  const auto inst = random_instance(GetParam() ^ 0xf00dULL, n);
  const auto ls = local_search_from_scratch(inst);
  const auto best = reference::exact_facility_location(inst);
  EXPECT_LE(ls.total_cost(), 3.0 * best.total_cost() + 1e-9);
  EXPECT_GE(ls.total_cost(), best.total_cost() - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, LocalSearchQuality,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(LocalSearch, PolishesJmsSolutions) {
  // Local search on top of the greedy can only help; verify it returns a
  // valid, not-worse solution and stays consistent after recost().
  for (std::uint64_t seed = 20; seed < 25; ++seed) {
    const auto inst = random_instance(seed, 40);
    const auto greedy = jms_greedy(inst);
    const auto polished = local_search(inst, greedy);
    EXPECT_LE(polished.total_cost(), greedy.total_cost() + 1e-9);
    const auto checked = recost(inst, polished);
    EXPECT_NEAR(checked.total_cost(), polished.total_cost(), 1e-9);
  }
}

TEST(LocalSearch, SwapFreeModeStillImproves) {
  const auto inst = random_instance(5, 20);
  LocalSearchOptions opts;
  opts.allow_swaps = false;
  const auto start = assign_to_open(inst, {0});
  const auto improved = local_search(inst, start, opts);
  EXPECT_LE(improved.total_cost(), start.total_cost() + 1e-9);
}

TEST(LocalSearch, Validates) {
  const auto inst = random_instance(6, 5);
  FlSolution empty;
  EXPECT_THROW((void)local_search(inst, empty), std::invalid_argument);
  FlSolution bad;
  bad.open = {99};
  EXPECT_THROW((void)local_search(inst, bad), std::invalid_argument);
}

}  // namespace
}  // namespace esharing::solver
