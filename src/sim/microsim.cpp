#include "sim/microsim.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "data/binning.h"
#include "geo/spatial_index.h"
#include "stats/spatial.h"

namespace esharing::sim {

using data::TripRecord;
using geo::Point;

namespace {

constexpr double kRideSpeedMps = 4.0;  ///< e-bike cruise speed
/// The nightly charging shift starts at this local time of day.
constexpr Seconds kChargingShiftAt = 22 * data::kSecondsPerHour;
/// Size of the KS reference subsample (as in sim::Simulation).
constexpr std::size_t kHistorySampleCap = 400;

}  // namespace

MicroSimulation::MicroSimulation(const data::SyntheticCity& city,
                                 MicroSimConfig config, std::uint64_t seed)
    : city_(city),
      config_(config),
      rng_(seed),
      system_(config.esharing, seed ^ 0x5151515151ULL),
      fleet_(city.config().num_bikes, config.energy, seed ^ 0x246802468ULL),
      bikes_(city.config().num_bikes) {
  if (!(config_.walk_radius_m > 0.0)) {
    throw std::invalid_argument("MicroSimulation: walk radius must be positive");
  }
}

void MicroSimulation::bootstrap(const std::vector<TripRecord>& history) {
  if (history.empty()) {
    throw std::invalid_argument("MicroSimulation::bootstrap: empty history");
  }
  data::Seconds lo = history.front().start_time, hi = lo;
  for (const auto& t : history) {
    lo = std::min(lo, t.start_time);
    hi = std::max(hi, t.start_time);
  }
  const auto grid = city_.grid();
  const auto sites = data::demand_sites_in_window(grid, city_.projection(),
                                                  history, lo, hi + 1);
  const double mean_f = config_.mean_opening_cost;
  system_.plan_offline(sites, [mean_f](Point p) {
    return mean_f * (0.5 + stats::hash_noise(p, 100.0, 0xbead5ULL));
  });
  auto sample = data::destinations_in_window(city_.projection(), history, lo,
                                             hi + 1);
  if (sample.size() > kHistorySampleCap) {
    rng_.shuffle(sample);
    sample.resize(kHistorySampleCap);
  }
  system_.start_online(std::move(sample));

  // Park the fleet at the planned stations, spread round-robin.
  const auto parkings = system_.parking_locations();
  for (std::size_t b = 0; b < bikes_.size(); ++b) {
    bikes_[b] = {parkings[b % parkings.size()], false};
  }
  bootstrapped_ = true;
}

std::optional<std::size_t> MicroSimulation::find_bike(Point from,
                                                      double trip_m) const {
  // Nearest parked bike within the walk radius whose battery survives the
  // trip; among reachable-but-drained bikes none qualifies.
  double best = std::numeric_limits<double>::infinity();
  std::optional<std::size_t> best_bike;
  for (std::size_t b = 0; b < bikes_.size(); ++b) {
    if (bikes_[b].in_ride) continue;
    const double d = geo::distance(bikes_[b].position, from);
    if (d > config_.walk_radius_m || d >= best) continue;
    if (!fleet_.can_ride(b, trip_m)) continue;
    best = d;
    best_bike = b;
  }
  return best_bike;
}

void MicroSimulation::handle_request(Point origin, Point destination,
                                     MicroSimMetrics& metrics) {
  ++metrics.demand;

  // Any parked bike within reach at all?
  bool any_reachable = false;
  for (std::size_t b = 0; b < bikes_.size() && !any_reachable; ++b) {
    any_reachable = !bikes_[b].in_ride &&
                    geo::distance(bikes_[b].position, origin) <=
                        config_.walk_radius_m;
  }

  // The drop-off parking is assigned online at request time (Algorithm 2).
  const auto decision = system_.handle_request(destination);
  const Point parking =
      system_.placer().stations()[decision.facility].location;

  const auto bike = find_bike(origin, geo::distance(origin, parking) + 500.0);
  if (!bike.has_value()) {
    if (any_reachable) {
      ++metrics.lost_low_battery;
    } else {
      ++metrics.lost_no_bike;
    }
    return;
  }

  ++metrics.served;
  metrics.walk_to_bike_m += geo::distance(bikes_[*bike].position, origin);
  metrics.walk_from_parking_m += geo::distance(parking, destination);

  BikeState& state = bikes_[*bike];
  state.in_ride = true;
  const double ride_m = geo::distance(state.position, parking);
  const auto ride_s = static_cast<Seconds>(ride_m / kRideSpeedMps) + 1;
  engine_.schedule_in(ride_s, [this, b = *bike, parking, ride_m]() {
    bikes_[b].in_ride = false;
    bikes_[b].position = parking;
    fleet_.ride(b, ride_m);
  });
}

void MicroSimulation::charging_shift(MicroSimMetrics& metrics) {
  // Pile up low bikes at their nearest parking and run the operators.
  const auto parkings = system_.parking_locations();
  std::vector<core::EnergyStation> stations;
  stations.reserve(parkings.size());
  for (Point p : parkings) stations.push_back({p, {}});
  const geo::SpatialIndex parking_index(parkings);
  for (std::size_t b = 0; b < bikes_.size(); ++b) {
    if (!bikes_[b].in_ride && fleet_.is_low(b)) {
      stations[parking_index.nearest(bikes_[b].position)]
          .low_bikes.push_back(b);
    }
  }
  const auto round = core::run_charging_round_multi(
      stations, config_.esharing.incentive.costs,
      config_.esharing.charging_operator, config_.n_operators);
  for (std::size_t s : round.route) {
    for (std::size_t b : stations[s].low_bikes) fleet_.recharge(b);
  }
  metrics.rounds.push_back(round);
}

MicroSimMetrics MicroSimulation::run(const std::vector<TripRecord>& live) {
  if (!bootstrapped_) {
    throw std::logic_error("MicroSimulation::run: bootstrap first");
  }
  std::vector<TripRecord> trips = live;
  data::sort_by_start_time(trips);
  MicroSimMetrics metrics;
  if (trips.empty()) return metrics;

  // Schedule every trip request.
  for (const auto& trip : trips) {
    const Point origin = city_.start_point(trip);
    const Point dest = city_.end_point(trip);
    engine_.schedule(trip.start_time, [this, origin, dest, &metrics]() {
      handle_request(origin, dest, metrics);
    });
  }
  // Nightly charging shifts across the horizon.
  const auto first_day = data::day_index(trips.front().start_time);
  const auto last_day = data::day_index(trips.back().start_time);
  for (auto day = first_day; day <= last_day; ++day) {
    const Seconds at = day * data::kSecondsPerDay + kChargingShiftAt;
    if (at < engine_.now()) continue;
    engine_.schedule(at, [this, &metrics]() { charging_shift(metrics); });
  }

  engine_.run();
  return metrics;
}

}  // namespace esharing::sim
