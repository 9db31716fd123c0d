#include "solver/registry.h"

#include <array>
#include <stdexcept>

#include "geo/spatial_index.h"
#include "obs/registry.h"
#include "solver/exact.h"
#include "solver/jms_greedy.h"
#include "solver/jv_primal_dual.h"
#include "solver/k_median.h"
#include "solver/local_search.h"
#include "solver/meyerson.h"

namespace esharing::solver {

namespace {

/// Meyerson is an online algorithm over a request stream; as an offline
/// baseline it streams the instance's clients in index order (weight =
/// arrivals) with the uniform opening cost set to the mean facility
/// opening cost, then snaps every opened location onto the nearest
/// candidate facility so the result is a solution of the given instance.
FlSolution solve_meyerson(const FlInstance& instance,
                          const SolveOptions& options) {
  instance.validate();
  double mean_f = 0.0;
  for (const FlFacility& f : instance.facilities) mean_f += f.opening_cost;
  mean_f /= static_cast<double>(instance.facilities.size());
  if (!(mean_f > 0.0)) {
    throw std::invalid_argument(
        "solve(\"meyerson\"): the mean facility opening cost must be "
        "positive (a zero cost would open a station at every request)");
  }

  MeyersonPlacer placer(mean_f, options.seed);
  for (const FlClient& c : instance.clients) {
    placer.process(c.location, c.weight);
  }

  std::vector<geo::Point> sites;
  sites.reserve(instance.facilities.size());
  for (const FlFacility& f : instance.facilities) sites.push_back(f.location);
  const geo::SpatialIndex site_index(sites);

  std::vector<std::size_t> open;
  open.reserve(placer.facilities().size());
  for (geo::Point p : placer.facilities()) {
    open.push_back(site_index.nearest(p));
  }
  return assign_to_open(instance, open);
}

FlSolution solve_k_median(const FlInstance& instance,
                          const SolveOptions& options) {
  if (options.k == 0) {
    throw std::invalid_argument(
        "solve(\"k_median\"): options.k = 0 is invalid: the k-median "
        "formulation opens exactly k stations, set options.k to the "
        "station budget (1 <= k <= #facilities)");
  }
  return k_median(instance, options.k, options.seed);
}

FlSolution solve_jms(const FlInstance& instance, const SolveOptions& options) {
  if (options.warm_start != nullptr) {
    const CostOracle oracle(instance);
    return jms_greedy_warm(oracle, options.warm_start->open,
                           JmsOptions{options.num_threads});
  }
  return jms_greedy(instance, JmsOptions{options.num_threads});
}

FlSolution solve_jv(const FlInstance& instance, const SolveOptions&) {
  return jv_primal_dual(instance);
}

FlSolution solve_local_search(const FlInstance& instance,
                              const SolveOptions& options) {
  LocalSearchOptions ls;
  ls.max_iterations = options.max_iterations;
  ls.min_improvement = options.min_improvement;
  ls.allow_swaps = options.allow_swaps;
  ls.num_threads = options.num_threads;
  if (options.warm_start != nullptr) {
    return local_search(instance, *options.warm_start, ls);
  }
  return local_search_from_scratch(instance, ls);
}

FlSolution solve_exact(const FlInstance& instance,
                       const SolveOptions& options) {
  return exact_facility_location(instance, options.exact_max_facilities);
}

/// Which SolveOptions fields each built-in consumes (see
/// SolveOptions::validate). A field marked false with a non-default value
/// is a contradiction, not a preference — reject it loudly.
struct ConsumedFields {
  bool num_threads{false};
  bool k{false};
  bool seed{false};
  bool local_search_knobs{false};  ///< max_iterations/allow_swaps/min_improvement
  bool exact_max_facilities{false};
  bool warm_start{false};
};

struct Builtin {
  std::string_view name;
  ConsumedFields fields;
  FlSolution (*fn)(const FlInstance&, const SolveOptions&);
};

/// The built-in solvers, sorted by name.
constexpr std::array<Builtin, 6> kBuiltins{{
    {"exact", {.exact_max_facilities = true}, solve_exact},
    {"jms", {.num_threads = true, .warm_start = true}, solve_jms},
    {"jv", {}, solve_jv},
    {"k_median", {.k = true, .seed = true}, solve_k_median},
    {"local_search",
     {.num_threads = true, .local_search_knobs = true, .warm_start = true},
     solve_local_search},
    {"meyerson", {.seed = true}, solve_meyerson},
}};

const Builtin* find_builtin(std::string_view name) {
  for (const Builtin& b : kBuiltins) {
    if (b.name == name) return &b;
  }
  return nullptr;
}

}  // namespace

void SolveOptions::validate(std::string_view name) const {
  const Builtin* builtin = find_builtin(name);
  if (builtin == nullptr) return;  // solve() rejects unknown names
  const ConsumedFields& c = builtin->fields;
  const SolveOptions defaults;
  const auto reject = [&](const char* field, const std::string& why) {
    throw std::invalid_argument("solve(\"" + std::string(name) +
                                "\"): option " + field + " " + why);
  };
  const auto unread = [&](const char* field, bool consumed, bool changed) {
    if (!consumed && changed) {
      reject(field,
             "is not consumed by this solver — it would be silently "
             "ignored, not applied");
    }
  };
  unread("num_threads", c.num_threads, num_threads != defaults.num_threads);
  unread("k", c.k, k != defaults.k);
  unread("seed", c.seed, seed != defaults.seed);
  unread("max_iterations", c.local_search_knobs,
         max_iterations != defaults.max_iterations);
  unread("allow_swaps", c.local_search_knobs,
         allow_swaps != defaults.allow_swaps);
  unread("min_improvement", c.local_search_knobs,
         min_improvement != defaults.min_improvement);
  unread("exact_max_facilities", c.exact_max_facilities,
         exact_max_facilities != defaults.exact_max_facilities);
  unread("warm_start", c.warm_start, warm_start != nullptr);
  if (c.k && k == 0) {
    reject("k",
           "= 0 is invalid: the k-median formulation opens exactly k "
           "stations, set the station budget (1 <= k <= #facilities)");
  }
  if (c.local_search_knobs && max_iterations == 0) {
    reject("max_iterations",
           "= 0 is contradictory: the solver could never apply a single "
           "improving move");
  }
}

FlSolution solve(std::string_view name, const FlInstance& instance,
                 const SolveOptions& options) {
  const Builtin* builtin = find_builtin(name);
  if (builtin == nullptr) {
    std::string known;
    for (const Builtin& b : kBuiltins) {
      if (!known.empty()) known += ", ";
      known += b.name;
    }
    throw std::invalid_argument("solve: unknown solver '" + std::string(name) +
                                "'; built-ins: " + known);
  }
  options.validate(name);
  if (obs::enabled()) {
    obs::Registry::global()
        .counter("solver.registry.solves." + std::string(name))
        .add();
  }
  return builtin->fn(instance, options);
}

std::vector<std::string> solver_names() {
  std::vector<std::string> out;
  out.reserve(kBuiltins.size());
  for (const Builtin& b : kBuiltins) out.emplace_back(b.name);
  return out;
}

}  // namespace esharing::solver
