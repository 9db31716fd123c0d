#include "inputs.h"

#include <algorithm>

#include "obs/registry.h"

namespace perfbench {

using esharing::geo::Point;
namespace stream = esharing::stream;

namespace {

constexpr std::size_t kGridCells = 100;        // 100x100 demand cells
constexpr std::size_t kBootstrapTrips = 12000;  // serving history
// Cells with fewer history trip ends are noise, not demand sites; the
// threshold keeps the offline instance near 550 sites, which JMS plans in
// about a quarter of a second.
constexpr double kMinCellTrips = 6.0;
constexpr std::size_t kKsReference = 400;
constexpr double kServingOpeningCost = 10000.0;

}  // namespace

City make_city(std::uint64_t seed, double area_m, std::size_t hotspots,
               double sigma_m, double background) {
  esharing::stats::Rng rng(seed);
  City city;
  city.area_m = area_m;
  city.sigma_m = sigma_m;
  city.background = background;
  for (std::size_t i = 0; i < hotspots; ++i) {
    city.hotspots.push_back(
        {rng.uniform(0.0, area_m), rng.uniform(0.0, area_m)});
    city.hotspot_weight.push_back(rng.uniform(1.0, 4.0));
  }
  return city;
}

Point draw_point(const City& city, esharing::stats::Rng& rng) {
  if (city.hotspots.empty() || rng.bernoulli(city.background)) {
    return {rng.uniform(0.0, city.area_m), rng.uniform(0.0, city.area_m)};
  }
  const Point c = city.hotspots[rng.weighted_index(city.hotspot_weight)];
  const auto clamp = [&](double v) { return std::clamp(v, 0.0, city.area_m); };
  return {clamp(c.x + rng.normal(0.0, city.sigma_m)),
          clamp(c.y + rng.normal(0.0, city.sigma_m))};
}

std::vector<Point> draw_points(const City& city, std::uint64_t seed,
                               std::size_t n) {
  esharing::stats::Rng rng(seed);
  std::vector<Point> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(draw_point(city, rng));
  return out;
}

City decide_city() {
  return make_city(kLayoutSeed, 100.0 * kGridCells, 60, 200.0, 0.15);
}

std::vector<Point> bootstrap_serving(esharing::core::ESharing& system,
                                     const City& city) {
  const auto history =
      draw_points(city, kLayoutSeed ^ 0xb007ULL, kBootstrapTrips);
  const double cell_m = city.area_m / static_cast<double>(kGridCells);
  std::vector<double> arrivals(kGridCells * kGridCells, 0.0);
  for (const Point& p : history) {
    const auto col = std::min(static_cast<std::size_t>(p.x / cell_m),
                              kGridCells - 1);
    const auto row = std::min(static_cast<std::size_t>(p.y / cell_m),
                              kGridCells - 1);
    arrivals[row * kGridCells + col] += 1.0;
  }
  std::vector<esharing::data::DemandSite> sites;
  for (std::size_t cell = 0; cell < arrivals.size(); ++cell) {
    if (arrivals[cell] < kMinCellTrips) continue;
    const double col = static_cast<double>(cell % kGridCells);
    const double row = static_cast<double>(cell / kGridCells);
    sites.push_back({{(col + 0.5) * cell_m, (row + 0.5) * cell_m},
                     arrivals[cell],
                     cell});
  }
  (void)system.plan_offline(sites,
                            [](Point) { return kServingOpeningCost; });
  std::vector<Point> reference(
      history.begin(),
      history.begin() + static_cast<std::ptrdiff_t>(
                            std::min(history.size(), kKsReference)));
  system.start_online(reference);
  return reference;
}

stream::PipelineConfig serving_pipeline_config() {
  stream::PipelineConfig cfg;
  cfg.bus.shard_count = 2;
  cfg.lanes = 0;
  return cfg;
}

std::vector<stream::Event> decide_requests(const City& city,
                                           std::uint64_t seed,
                                           std::size_t count) {
  esharing::stats::Rng rng(seed);
  std::vector<stream::Event> out;
  out.reserve(count);
  for (std::size_t j = 0; j < count; ++j) {
    stream::Event e;
    e.kind = stream::EventKind::kTripEnd;
    e.time = static_cast<esharing::data::Seconds>(static_cast<double>(j) *
                                                  kSimSecondsPerRequest);
    e.origin = draw_point(city, rng);
    e.where = draw_point(city, rng);
    e.bike_id = static_cast<std::int64_t>(j % 4999);
    e.user_max_walk_m = 400.0;
    e.user_min_reward = 0.05;
    e.ref = static_cast<std::int64_t>(j);
    out.push_back(e);
  }
  return out;
}

std::vector<stream::Event> telemetry_batch(const City& city,
                                           esharing::stats::Rng& rng,
                                           std::size_t n,
                                           esharing::data::Seconds time) {
  std::vector<stream::Event> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    stream::Event e;
    e.kind = stream::EventKind::kBatteryLevel;
    e.time = time;
    e.where = draw_point(city, rng);
    e.bike_id = static_cast<std::int64_t>(rng.index(4999));
    e.soc = rng.uniform(0.05, 0.95);
    out.push_back(e);
  }
  return out;
}

std::vector<stream::Event> metro_log(const City& city, std::uint64_t seed,
                                     std::size_t trips) {
  esharing::stats::Rng rng(seed);
  std::vector<stream::Event> log;
  log.reserve(trips + trips / 50 + 1);
  for (std::size_t i = 0; i < trips; ++i) {
    stream::Event e;
    e.kind = stream::EventKind::kTripEnd;
    e.time = static_cast<esharing::data::Seconds>(i);
    e.where = draw_point(city, rng);
    log.push_back(e);
    if (i % 50 == 13) {
      stream::Event b;
      b.kind = stream::EventKind::kBatteryLevel;
      b.time = e.time;
      b.where = e.where;
      b.bike_id = static_cast<std::int64_t>(i % 5000);
      b.soc = rng.uniform(0.05, 0.95);
      log.push_back(b);
    }
  }
  return log;
}

std::uint64_t obs_counter(const std::string& name) {
  for (const auto& c : esharing::obs::Registry::global().snapshot().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

std::uint64_t fnv_mix(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t decision_digest(
    const std::vector<esharing::solver::OnlineDecision>& decisions) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& d : decisions) {
    const unsigned char opened = d.opened ? 1 : 0;
    const std::uint64_t facility = d.facility;
    h = fnv_mix(h, &opened, sizeof(opened));
    h = fnv_mix(h, &facility, sizeof(facility));
    h = fnv_mix(h, &d.connection_cost, sizeof(d.connection_cost));
  }
  return h;
}

}  // namespace perfbench
