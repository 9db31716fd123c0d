#pragma once

/// \file inputs.h
/// Seeded input generators shared by the workloads: a clustered (hotspot)
/// city, the trip-end and telemetry streams drawn from it, the 100x100-cell
/// serving bootstrap, and decision digests for the output checks. Every
/// generator is a pure function of its arguments, so one seed gives one
/// input set.
///
/// Each workload's city layout and its history are fixed (kLayoutSeed); the
/// run's --seed draws the live streams from them. Runs on different seeds
/// then differ in their samples, not in how hard the city is, which keeps
/// the run-to-run spread of the metrics small.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/esharing.h"
#include "geo/point.h"
#include "solver/meyerson.h"
#include "stats/rng.h"
#include "stream/event.h"
#include "stream/pipeline.h"

namespace perfbench {

/// A square city whose trip ends cluster around weighted hotspots, with a
/// uniform background share.
struct City {
  double area_m{10000.0};
  std::vector<esharing::geo::Point> hotspots;
  std::vector<double> hotspot_weight;
  double sigma_m{250.0};
  double background{0.2};
};

/// Seed of the fixed city layouts and histories.
inline constexpr std::uint64_t kLayoutSeed = 20200707;

[[nodiscard]] City make_city(std::uint64_t seed, double area_m,
                             std::size_t hotspots, double sigma_m,
                             double background);

/// One destination drawn from the city (clamped to the square).
[[nodiscard]] esharing::geo::Point draw_point(const City& city,
                                              esharing::stats::Rng& rng);

[[nodiscard]] std::vector<esharing::geo::Point> draw_points(
    const City& city, std::uint64_t seed, std::size_t n);

/// The serving city of decide_openloop: 10 km square, 100x100 cells of
/// 100 m.
[[nodiscard]] City decide_city();

/// Bootstrap `system` for serving on `city`: aggregate the city's fixed
/// history of trip ends into the 100x100 cell grid, plan offline with a
/// flat opening cost, start the online tier, and return the KS reference
/// sample. Two calls with the same arguments build identical tier-one state.
std::vector<esharing::geo::Point> bootstrap_serving(
    esharing::core::ESharing& system, const City& city);

/// The daemon pipeline configuration decide_openloop serves with (and
/// verifies against): two shards, pool lanes — the esharing-serve default.
[[nodiscard]] esharing::stream::PipelineConfig serving_pipeline_config();

/// Simulated seconds between consecutive trip-end requests. The benchmark
/// replays a city's trip stream faster than real time: event time advances
/// one trip end per simulated second whatever the offered wall-clock rate,
/// so the stream state's one-hour windows hold what a real hour holds.
inline constexpr double kSimSecondsPerRequest = 1.0;

/// `count` trip-end requests: request j has event time
/// j * kSimSecondsPerRequest (monotone) and `ref` j.
[[nodiscard]] std::vector<esharing::stream::Event> decide_requests(
    const City& city, std::uint64_t seed, std::size_t count);

/// A battery-telemetry batch of `n` events at event time `time`.
[[nodiscard]] std::vector<esharing::stream::Event> telemetry_batch(
    const City& city, esharing::stats::Rng& rng, std::size_t n,
    esharing::data::Seconds time);

/// The metro replay log: one trip end per simulated second over `city`,
/// with battery telemetry every 50th event.
[[nodiscard]] std::vector<esharing::stream::Event> metro_log(
    const City& city, std::uint64_t seed, std::size_t trips);

/// Current value of a counter in the global obs registry (0 when the
/// counter was never registered). Read in the traced run only.
[[nodiscard]] std::uint64_t obs_counter(const std::string& name);

/// FNV-1a digest of a decision sequence (opened, facility, cost bits).
[[nodiscard]] std::uint64_t decision_digest(
    const std::vector<esharing::solver::OnlineDecision>& decisions);
[[nodiscard]] std::uint64_t fnv_mix(std::uint64_t h, const void* data,
                                    std::size_t n);

}  // namespace perfbench
