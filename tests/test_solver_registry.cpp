#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "solver/jms_greedy.h"
#include "solver/jv_primal_dual.h"
#include "solver/registry.h"
#include "stats/rng.h"
#include "stats/spatial.h"

namespace esharing::solver {
namespace {

FlInstance small_instance(std::size_t n, double f, std::uint64_t seed) {
  stats::Rng rng(seed);
  const auto pts = stats::uniform_points(rng, {{0, 0}, {2000, 2000}}, n);
  std::vector<FlClient> clients;
  std::vector<double> costs;
  for (const geo::Point p : pts) {
    clients.push_back({p, 1.0});
    costs.push_back(f);
  }
  return colocated_instance(std::move(clients), std::move(costs));
}

void expect_valid(const FlInstance& inst, const FlSolution& sol) {
  ASSERT_FALSE(sol.open.empty());
  ASSERT_EQ(sol.assignment.size(), inst.clients.size());
  for (const std::size_t fi : sol.open) ASSERT_LT(fi, inst.facilities.size());
  for (const std::size_t fi : sol.assignment) {
    ASSERT_NE(std::find(sol.open.begin(), sol.open.end(), fi), sol.open.end());
  }
  // recost() throws on inconsistent solutions and returns identical costs
  // for consistent ones. k_median reports opening_cost 0 by convention
  // (the budgeted formulation prices no openings).
  const FlSolution again = recost(inst, sol);
  EXPECT_DOUBLE_EQ(again.connection_cost, sol.connection_cost);
  EXPECT_TRUE(sol.opening_cost == again.opening_cost ||
              sol.opening_cost == 0.0)
      << "opening_cost " << sol.opening_cost << " vs recosted "
      << again.opening_cost;
}

TEST(SolverRegistry, ListsAllBuiltinsSorted) {
  const auto names = solver_names();
  const std::vector<std::string> expected{"exact",    "jms",     "jv",
                                          "k_median", "local_search",
                                          "meyerson"};
  for (const auto& name : expected) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << "missing builtin " << name;
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_EQ(names, expected);  // the built-ins are the whole table
}

TEST(SolverRegistry, JmsRouteIsBitIdenticalToDirectCall) {
  const auto inst = small_instance(80, 9000.0, 11);
  const FlSolution direct = jms_greedy(inst);
  const FlSolution routed = solve("jms", inst);
  EXPECT_EQ(routed.open, direct.open);
  EXPECT_EQ(routed.assignment, direct.assignment);
  EXPECT_EQ(routed.connection_cost, direct.connection_cost);
  EXPECT_EQ(routed.opening_cost, direct.opening_cost);
}

TEST(SolverRegistry, JvRouteIsBitIdenticalToDirectCall) {
  const auto inst = small_instance(60, 9000.0, 12);
  const FlSolution direct = jv_primal_dual(inst);
  const FlSolution routed = solve("jv", inst);
  EXPECT_EQ(routed.open, direct.open);
  EXPECT_EQ(routed.assignment, direct.assignment);
  EXPECT_EQ(routed.connection_cost, direct.connection_cost);
  EXPECT_EQ(routed.opening_cost, direct.opening_cost);
}

TEST(SolverRegistry, EveryBuiltinReturnsAValidSolution) {
  // Small enough for "exact" (branch-and-bound caps candidate facilities).
  const auto inst = small_instance(16, 8000.0, 13);
  for (const std::string& name : solver_names()) {
    // validate(name) rejects non-default values for fields a solver
    // ignores, so each solver only gets the knobs it consumes.
    SolveOptions opt;
    if (name == "k_median") {
      opt.k = 4;
      opt.seed = 99;
    } else if (name == "meyerson") {
      opt.seed = 99;
    } else if (name == "local_search") {
      opt.max_iterations = 50;
    }
    const FlSolution sol = solve(name, inst, opt);
    SCOPED_TRACE("solver: " + name);
    expect_valid(inst, sol);
  }
}

TEST(SolverRegistry, KMedianRespectsBudgetAndRequiresK) {
  const auto inst = small_instance(40, 8000.0, 14);
  SolveOptions opt;
  opt.k = 3;
  const FlSolution sol = solve("k_median", inst, opt);
  EXPECT_EQ(sol.num_open(), 3u);
  try {
    (void)solve("k_median", inst);  // default options leave k == 0
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("k"), std::string::npos);
  }
}

TEST(SolverRegistry, UnknownNameErrorListsRegisteredSolvers) {
  const auto inst = small_instance(5, 1000.0, 15);
  try {
    (void)solve("simulated_annealing", inst);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("simulated_annealing"), std::string::npos);
    EXPECT_NE(what.find("jms"), std::string::npos);
    EXPECT_NE(what.find("meyerson"), std::string::npos);
  }
}

TEST(SolverRegistry, ExactCapIsEnforced) {
  const auto inst = small_instance(30, 8000.0, 17);
  SolveOptions opt;
  opt.exact_max_facilities = 8;  // instance has 30 candidates
  EXPECT_THROW((void)solve("exact", inst, opt), std::invalid_argument);
}

}  // namespace
}  // namespace esharing::solver
