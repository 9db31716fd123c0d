#include "sim/simulation.h"

#include <algorithm>
#include <stdexcept>

#include "obs/registry.h"
#include "stats/spatial.h"

namespace esharing::sim {

using data::Seconds;
using data::TripRecord;
using geo::Point;

namespace {

/// Size of the KS reference: a shuffled subsample of the historical
/// destinations (MicroSimulation uses the same 400).
constexpr std::size_t kHistorySampleCap = 400;

struct SimObsMetrics {
  obs::Counter& trips;
  obs::Counter& charging_rounds;
  obs::Histogram& charging_round_cost;

  static SimObsMetrics& get() {
    static SimObsMetrics m{
        obs::Registry::global().counter("sim.simulation.trips"),
        obs::Registry::global().counter("sim.simulation.charging_rounds"),
        obs::Registry::global().histogram(
            "sim.simulation.charging_round_cost",
            {1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6}),
    };
    return m;
  }
};

}  // namespace

void SimConfig::validate() const {
  esharing.validate();
  const auto fail = [](const std::string& field, double got,
                       const std::string& why) {
    throw std::invalid_argument("SimConfig: " + field + " = " +
                                std::to_string(got) + " is invalid: " + why);
  };
  if (!(energy.consumption_per_km > 0.0)) {
    fail("energy.consumption_per_km", energy.consumption_per_km,
         "bikes must drain charge when ridden, or low-battery piles never "
         "form");
  }
  if (!(energy.low_threshold > 0.0 && energy.low_threshold <= 1.0)) {
    fail("energy.low_threshold", energy.low_threshold,
         "the low-battery threshold is a state-of-charge fraction in (0, 1]");
  }
  if (!(energy.low_tail_fraction >= 0.0 && energy.low_tail_fraction <= 1.0)) {
    fail("energy.low_tail_fraction", energy.low_tail_fraction,
         "the share of the fleet seeded low must lie in [0, 1]");
  }
  if (!(energy.min_soc >= 0.0 && energy.min_soc < 1.0)) {
    fail("energy.min_soc", energy.min_soc,
         "the floor state of charge must lie in [0, 1)");
  }
  if (!(mean_opening_cost > 0.0)) {
    fail("mean_opening_cost", mean_opening_cost,
         "the opening-cost field mean must be positive or every request "
         "opens a station");
  }
  if (charging_period <= 0) {
    fail("charging_period", static_cast<double>(charging_period),
         "the operator round period is a duration in seconds and must be "
         "positive");
  }
  if (!(user_max_walk_lo_m >= 0.0)) {
    fail("user_max_walk_lo_m", user_max_walk_lo_m,
         "walking tolerances are distances and cannot be negative");
  }
  if (!(user_max_walk_hi_m >= user_max_walk_lo_m)) {
    fail("user_max_walk_hi_m", user_max_walk_hi_m,
         "the sampling range upper bound must be >= user_max_walk_lo_m");
  }
  if (!(user_min_reward_hi >= user_min_reward_lo)) {
    fail("user_min_reward_hi", user_min_reward_hi,
         "the sampling range upper bound must be >= user_min_reward_lo");
  }
}

double SimMetrics::total_charging_cost() const {
  double sum = incentives_paid;
  for (const auto& r : charging_rounds) sum += r.total_cost(0.0);
  return sum;
}

double SimMetrics::total_moving_distance_m() const {
  double sum = 0.0;
  for (const auto& r : charging_rounds) sum += r.moving_distance_m;
  return sum;
}

double SimMetrics::mean_pct_charged() const {
  if (charging_rounds.empty()) return 100.0;
  double sum = 0.0;
  for (const auto& r : charging_rounds) sum += r.pct_charged();
  return sum / static_cast<double>(charging_rounds.size());
}

Simulation::Simulation(const data::SyntheticCity& city, SimConfig config,
                       std::uint64_t seed)
    : city_(city),
      config_(config),
      rng_(seed),
      system_(config.esharing, seed ^ 0xa5a5a5a5a5a5a5a5ULL),
      fleet_(city.config().num_bikes, config.energy, seed ^ 0x0f0f0f0f0f0f0fULL),
      bike_pos_(city.config().num_bikes, Point{0.0, 0.0}) {
  config_.validate();
}

void Simulation::bootstrap(const std::vector<TripRecord>& history) {
  if (history.empty()) {
    throw std::invalid_argument("Simulation::bootstrap: empty history");
  }
  Seconds lo = history.front().start_time, hi = history.front().start_time;
  for (const auto& t : history) {
    lo = std::min(lo, t.start_time);
    hi = std::max(hi, t.start_time);
  }
  const auto grid = city_.grid();
  const auto sites = data::demand_sites_in_window(grid, city_.projection(),
                                                  history, lo, hi + 1);

  // Reproducible uniform random opening-cost field with the configured mean
  // (paper: "uniformly randomly distributed with mean of 10 km").
  const double mean_f = config_.mean_opening_cost;
  const double cell = city_.config().grid_cell_m;
  const std::uint64_t field_seed = 0xfeedc0dedeadbeefULL;
  auto opening_cost = [mean_f, cell, field_seed](Point p) {
    return mean_f * (0.5 + stats::hash_noise(p, cell, field_seed));
  };
  system_.plan_offline(sites, opening_cost);

  // KS reference: a capped subsample of historical destinations.
  auto dests = data::destinations_in_window(city_.projection(), history, lo, hi + 1);
  if (dests.size() > kHistorySampleCap) {
    rng_.shuffle(dests);
    dests.resize(kHistorySampleCap);
  }
  system_.start_online(std::move(dests));

  // Bikes start at their first-seen start location, or at an offline
  // parking for bikes that never appear in the history.
  const auto parkings = system_.parking_locations();
  for (std::size_t b = 0; b < bike_pos_.size(); ++b) {
    bike_pos_[b] = parkings[b % parkings.size()];
  }
  std::vector<bool> seen(bike_pos_.size(), false);
  for (const auto& t : history) {
    const auto b = static_cast<std::size_t>(t.bike_id - 1) % bike_pos_.size();
    if (!seen[b]) {
      seen[b] = true;
      bike_pos_[b] = city_.start_point(t);
    }
  }

  // Station inventory: bikes counted at their nearest parking (footnote 2
  // removals trigger once a station's last bike is picked up).
  station_bikes_.assign(system_.placer().stations().size(), 0);
  for (std::size_t b = 0; b < bike_pos_.size(); ++b) {
    ++station_bikes_[nearest_active_station(bike_pos_[b])];
  }

  open_incentive_session();
  next_round_at_ = hi + 1 + config_.charging_period;
  bootstrapped_ = true;
}

std::size_t Simulation::nearest_active_station(Point p) const {
  // The placer maintains a spatial index over its stations; a miss (no
  // active station) keeps this helper's legacy fallback of index 0.
  const std::size_t i = system_.placer().nearest_active(p);
  return i >= system_.placer().stations().size() ? 0 : i;
}

void Simulation::open_incentive_session() {
  const auto parkings = system_.parking_locations();
  session_station_snapshot_.clear();
  session_station_snapshot_.reserve(parkings.size());
  for (Point p : parkings) session_station_snapshot_.push_back({p, {}});
  session_index_ = geo::SpatialIndex(parkings);
  for (std::size_t b = 0; b < bike_pos_.size(); ++b) {
    if (fleet_.is_low(b)) {
      const std::size_t s = session_index_.nearest(bike_pos_[b]);
      session_station_snapshot_[s].low_bikes.push_back(b);
    }
  }
  session_.emplace(session_station_snapshot_,
                   config_.esharing.incentive);
}

void Simulation::close_charging_period(SimMetrics& metrics) {
  if (!session_.has_value()) return;
  metrics.incentives_paid += session_->total_incentives_paid();
  metrics.offers_made += session_->offers_made();
  metrics.relocations += session_->relocations();

  const auto round = system_.charge(*session_);
  for (std::size_t s : round.route) {
    for (std::size_t b : session_->stations()[s].low_bikes) {
      fleet_.recharge(b);
    }
  }
  metrics.charging_rounds.push_back(round);
  if (obs::enabled()) {
    SimObsMetrics::get().charging_rounds.add();
    SimObsMetrics::get().charging_round_cost.observe(round.total_cost(0.0));
    obs::Registry::global().emit(
        "sim.charging_round",
        {{"stations_visited", round.stations_visited},
         {"bikes_charged", round.bikes_charged},
         {"cost", round.total_cost(0.0)}});
  }
  open_incentive_session();
}

void Simulation::process_trip(const TripRecord& trip, SimMetrics& metrics) {
  while (trip.start_time >= next_round_at_) {
    close_charging_period(metrics);
    next_round_at_ += config_.charging_period;
  }

  const Point dest = city_.end_point(trip);
  const auto decision = system_.handle_request(dest);
  const Point assigned =
      system_.placer().stations()[decision.facility].location;
  station_bikes_.resize(system_.placer().stations().size(), 0);

  const auto bike =
      static_cast<std::size_t>(trip.bike_id - 1) % bike_pos_.size();
  const Point origin = bike_pos_[bike];

  // Pick-up empties the origin station's inventory; footnote 2: a
  // station whose last bike leaves is removed from P (it can be
  // re-established online later).
  const std::size_t origin_station = nearest_active_station(origin);
  if (station_bikes_[origin_station] > 0) {
    --station_bikes_[origin_station];
  }
  if (station_bikes_[origin_station] == 0 &&
      system_.placer().num_active() > 1) {
    system_.placer().remove_station(origin_station);
    ++stations_removed_;
  }

  // Tier-two offer at pickup time.
  core::Offer offer;
  if (session_.has_value() && !session_station_snapshot_.empty()) {
    // session_index_ mirrors the session snapshot's station locations.
    const std::size_t pickup_station = session_index_.nearest(origin);
    const core::UserBehavior user{
        rng_.uniform(config_.user_max_walk_lo_m, config_.user_max_walk_hi_m),
        rng_.uniform(config_.user_min_reward_lo, config_.user_min_reward_hi)};
    offer = session_->handle_pickup(
        pickup_station, assigned, user,
        [this](std::size_t b, double dist) { return fleet_.can_ride(b, dist); });
  }

  if (offer.accepted) {
    // The user rides the low-energy bike to the aggregation station and
    // walks the extra distance to the destination; their intended bike
    // stays where it was.
    // The departing bike is the low-energy one (it sits at the same
    // pickup station the user walked to); the origin decrement above
    // already accounts for it.
    const Point target = session_->stations()[offer.to_station].location;
    fleet_.ride(offer.bike, offer.ride_m);
    bike_pos_[offer.bike] = target;
    ++station_bikes_[nearest_active_station(target)];
    metrics.walking_cost_m += geo::distance(dest, target);
  } else {
    const double ride = geo::distance(origin, assigned);
    fleet_.ride(bike, ride);
    bike_pos_[bike] = assigned;
    ++station_bikes_[nearest_active_station(assigned)];
    metrics.walking_cost_m += geo::distance(dest, assigned);
  }
  ++metrics.trips;
  if (obs::enabled()) SimObsMetrics::get().trips.add();
}

SimMetrics Simulation::run(const std::vector<TripRecord>& live) {
  if (!bootstrapped_) {
    throw std::logic_error("Simulation::run: bootstrap first");
  }
  std::vector<TripRecord> trips = live;
  data::sort_by_start_time(trips);

  SimMetrics metrics;
  for (const auto& trip : trips) process_trip(trip, metrics);

  // Flush the open period so its incentives/charging land in the metrics.
  close_charging_period(metrics);
  next_round_at_ += config_.charging_period;
  metrics.stations_final = system_.placer().num_active();
  metrics.stations_online_opened = system_.placer().num_online_opened();
  metrics.stations_removed = stations_removed_;
  return metrics;
}

}  // namespace esharing::sim
