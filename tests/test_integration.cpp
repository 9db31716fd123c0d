/// Cross-module integration tests: the paper's qualitative claims verified
/// end-to-end on synthetic workloads (small scale so the suite stays fast).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numbers>
#include <unordered_map>
#include <utility>

#include "core/deviation_placer.h"
#include "core/demand_forecast.h"
#include "core/esharing.h"
#include "data/binning.h"
#include "data/csv.h"
#include "data/synthetic_city.h"
#include "solver/jms_greedy.h"
#include "solver/meyerson.h"
#include "stats/ks2d.h"
#include "stats/rng.h"
#include "stats/spatial.h"

namespace esharing {
namespace {

using geo::Point;

/// Theorem 1's adversarial stream: requests at (2^-i, 2^-i) with f = 2.
/// The offline optimum opens one parking near the origin at bounded cost,
/// while any online algorithm's expected cost keeps growing with n — we
/// verify the cost ratio grows as the stream extends.
TEST(Integration, Theorem1AdversarialStreamHurtsOnline) {
  const double f = 2.0;
  auto run_online = [&](std::size_t n, std::uint64_t seed) {
    solver::MeyersonPlacer placer(f, seed);
    for (std::size_t i = 1; i <= n; ++i) {
      const double c = std::pow(0.5, static_cast<double>(i));
      (void)placer.process({c, c});
    }
    return placer.total_cost();
  };
  auto offline_bound = [&](std::size_t n) {
    // Opening only (0, 0): cost <= 2 + sqrt(2) (geometric series).
    double cost = f;
    for (std::size_t i = 1; i <= n; ++i) {
      cost += std::sqrt(2.0) * std::pow(0.5, static_cast<double>(i));
    }
    return cost;
  };
  // Average online cost over seeds, short vs long stream.
  double short_ratio = 0.0, long_ratio = 0.0;
  for (std::uint64_t s = 0; s < 10; ++s) {
    short_ratio += run_online(5, s) / offline_bound(5);
    long_ratio += run_online(40, s) / offline_bound(40);
  }
  EXPECT_GT(long_ratio, short_ratio);
}

/// Fig. 4 / Fig. 6 regime: on a uniform stream, the offline JMS solution is
/// cheapest, the deviation-penalty online algorithm lands in between, and
/// Meyerson is the most expensive — with station counts ordered the same.
TEST(Integration, CostOrderingOfflineEsharingMeyerson) {
  stats::Rng rng(1);
  const geo::BoundingBox field{{0, 0}, {1000, 1000}};
  const double f = 5000.0;

  double offline_total = 0.0, esharing_total = 0.0, meyerson_total = 0.0;
  const int kTrials = 5;
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto pts = stats::uniform_points(rng, field, 100);

    // Offline on the full knowledge.
    std::vector<solver::FlClient> clients;
    std::vector<double> costs;
    for (Point p : pts) {
      clients.push_back({p, 1.0});
      costs.push_back(f);
    }
    const auto offline =
        solver::jms_greedy(solver::colocated_instance(clients, costs));
    offline_total += offline.total_cost();

    // E-sharing guided by the offline plan of a *previous* (statistically
    // identical) sample.
    const auto history = stats::uniform_points(rng, field, 100);
    std::vector<solver::FlClient> hist_clients;
    std::vector<double> hist_costs;
    for (Point p : history) {
      hist_clients.push_back({p, 1.0});
      hist_costs.push_back(f);
    }
    const auto hist_plan = solver::jms_greedy(
        solver::colocated_instance(hist_clients, hist_costs));
    std::vector<Point> landmarks;
    for (std::size_t i : hist_plan.open) landmarks.push_back(history[i]);

    core::DeviationPlacerConfig cfg;
    cfg.tolerance = 200.0;
    core::DeviationPenaltyPlacer placer(
        landmarks, history, [f](Point) { return f; }, cfg,
        100 + static_cast<std::uint64_t>(trial));
    solver::MeyersonPlacer meyerson(f, 200 + static_cast<std::uint64_t>(trial));
    for (Point p : pts) {
      (void)placer.process(p);
      (void)meyerson.process(p);
    }
    esharing_total += placer.total_cost();
    meyerson_total += meyerson.total_cost();
  }
  EXPECT_LT(offline_total, esharing_total);
  EXPECT_LT(esharing_total, meyerson_total);
}

/// Table IV regime on the synthetic city: same-day-type similarity exceeds
/// cross-day-type similarity.
TEST(Integration, WeekdayWeekendKsBlocks) {
  data::CityConfig cfg;
  cfg.num_days = 12;
  cfg.trips_per_weekday = 500;
  cfg.trips_per_weekend_day = 400;
  cfg.num_bikes = 100;
  data::SyntheticCity city(cfg, 2);
  const auto trips = city.generate_trips();

  auto day_sample = [&](int day) {
    auto pts = data::destinations_in_window(
        city.projection(), trips, day * data::kSecondsPerDay,
        (day + 1) * data::kSecondsPerDay);
    if (pts.size() > 150) pts.resize(150);
    return pts;
  };
  // Days 0..11 start Wed 2017-05-10. Weekdays: 0,1,2 (Wed-Fri); weekend:
  // 3,4 (Sat-Sun); next week weekdays: 5..9; weekend: 10, 11.
  const double wd_wd = stats::ks2d_test(day_sample(1), day_sample(8)).similarity;
  const double we_we = stats::ks2d_test(day_sample(3), day_sample(10)).similarity;
  const double wd_we = stats::ks2d_test(day_sample(1), day_sample(3)).similarity;
  EXPECT_GT(wd_wd, wd_we);
  EXPECT_GT(we_we, wd_we);
}

/// Tier-two end to end: incentivized aggregation must reduce the charging
/// cost actually paid by the operator (the 47% headline, qualitatively).
TEST(Integration, IncentivesReduceOperatorCost) {
  stats::Rng rng(3);
  // 8 stations on a ring, each with a couple of low bikes.
  std::vector<core::EnergyStation> stations;
  std::size_t bike = 0;
  for (int s = 0; s < 8; ++s) {
    const double angle = s * std::numbers::pi / 4.0;
    stations.push_back({{1000 + 800 * std::cos(angle), 1000 + 800 * std::sin(angle)},
                        {bike, bike + 1}});
    bike += 2;
  }
  const energy::ChargingCostParams costs{.service_cost_q = 20.0,
                                         .delay_cost_d = 10.0,
                                         .energy_cost_b = 2.0};
  core::OperatorConfig op;
  op.work_seconds = 1e9;
  op.depot = {1000, 1000};

  const auto baseline = core::run_charging_round(stations, costs, op);

  core::IncentiveConfig icfg;
  icfg.alpha = 0.8;
  icfg.costs = costs;
  icfg.mileage_slack_m = 300.0;
  core::IncentiveMechanism mech(stations, icfg);
  // Simulated cooperative riders picking up all over the ring.
  const core::UserBehavior user{500.0, 0.0};
  for (int round = 0; round < 400; ++round) {
    const std::size_t at = rng.index(8);
    const std::size_t to = rng.index(8);
    (void)mech.handle_pickup(at, mech.stations()[to].location, user,
                             [](std::size_t, double) { return true; });
  }
  ASSERT_GT(mech.relocations(), 0u);
  const auto after = core::run_charging_round(mech.stations(), costs, op);
  EXPECT_LT(after.stations_visited, baseline.stations_visited);
  EXPECT_LT(after.total_cost(mech.total_incentives_paid()),
            baseline.total_cost());
}

/// Forecast-driven planning: bin a week of history, forecast the next day
/// per grid cell, plan offline on the predicted sites and serve the next
/// day online — the parkings must sit near the busiest predicted cells.
TEST(Integration, ForecastDrivenPlanningServesNextDay) {
  data::CityConfig ccfg;
  ccfg.num_days = 7;
  ccfg.trips_per_weekday = 600;
  ccfg.trips_per_weekend_day = 500;
  ccfg.num_bikes = 100;
  data::SyntheticCity city(ccfg, 6);
  const auto history = city.generate_trips();
  const auto grid = city.grid();
  const auto matrix = data::bin_trips(grid, city.projection(), history,
                                      static_cast<std::size_t>(ccfg.num_days) * 24);

  core::GridForecastConfig fcfg;
  fcfg.engine = core::ForecastEngine::kSeasonalNaive;
  const auto forecast = core::forecast_grid_demand(matrix, grid, fcfg);

  core::ESharingConfig scfg;
  scfg.placer.ks_period = 0;
  core::ESharing sys(scfg, 7);
  (void)sys.plan_offline(forecast.sites(grid), [](Point) { return 10000.0; });
  sys.start_online({});
  ASSERT_GE(sys.offline_solution().num_open(), 2u);

  // Serve the next (eighth) day; walking should be modest because the
  // predicted plan anchors the real demand hotspots.
  const auto live = city.generate_trips();
  double walking = 0.0;
  std::size_t served = 0;
  for (const auto& trip : live) {
    if (data::day_index(trip.start_time) != 7) continue;
    const Point dest = city.end_point(trip);
    const auto d = sys.handle_request(dest);
    walking += geo::distance(
        dest, sys.placer().stations()[d.facility].location);
    ++served;
  }
  ASSERT_GT(served, 100u);
  EXPECT_LT(walking / static_cast<double>(served), 300.0);
}

/// Day-type plans end to end: weekday and weekend offline plans built
/// from their own day-type histories serve live requests routed by the
/// calendar to one placer per day type, and each placer only ever sees
/// its own day type.
TEST(Integration, DayTypeRoutedPlansOnCityData) {
  data::CityConfig ccfg;
  ccfg.num_days = 14;
  ccfg.trips_per_weekday = 500;
  ccfg.trips_per_weekend_day = 400;
  ccfg.num_bikes = 100;
  data::SyntheticCity city(ccfg, 8);
  const auto history = city.generate_trips();

  const auto grid = city.grid();
  const auto plan_for = [&](bool weekend) {
    // Aggregate this day type's destinations per grid cell (raw points as
    // clients would make the O(N^3) offline greedy needlessly slow).
    std::vector<Point> pts;
    std::unordered_map<std::size_t, double> per_cell;
    for (const auto& t : history) {
      if (data::is_weekend(t.start_time) != weekend) continue;
      const Point end = city.end_point(t);
      pts.push_back(end);
      ++per_cell[grid.index_of(grid.clamped_cell_of(end))];
    }
    std::vector<solver::FlClient> clients;
    std::vector<double> costs;
    for (const auto& [cell, n] : per_cell) {
      clients.push_back({grid.centroid_of(grid.cell_at(cell)), n});
      costs.push_back(10000.0);
    }
    const auto sol =
        solver::jms_greedy(solver::colocated_instance(clients, costs));
    std::vector<Point> landmarks;
    for (std::size_t i : sol.open) landmarks.push_back(clients[i].location);
    if (pts.size() > 200) pts.resize(200);
    return std::pair{landmarks, pts};
  };
  const auto [wd_landmarks, wd_sample] = plan_for(false);
  const auto [we_landmarks, we_sample] = plan_for(true);
  ASSERT_GE(wd_landmarks.size(), 2u);
  ASSERT_GE(we_landmarks.size(), 2u);

  core::DeviationPlacerConfig cfg;
  cfg.ks_period = 200;
  const auto flat_cost = [](Point) { return 10000.0; };
  core::DeviationPenaltyPlacer weekday(wd_landmarks, wd_sample, flat_cost, cfg,
                                       9 ^ 0x77eeda1ULL);
  core::DeviationPenaltyPlacer weekend(we_landmarks, we_sample, flat_cost, cfg,
                                       9 ^ 0x77ee2e2dULL);
  const auto live = city.generate_trips();
  std::size_t weekend_requests = 0;
  for (const auto& trip : live) {
    const bool on_weekend = data::is_weekend(trip.start_time);
    (void)(on_weekend ? weekend : weekday).process(city.end_point(trip));
    weekend_requests += on_weekend ? 1 : 0;
  }
  EXPECT_EQ(weekend.requests_seen(), weekend_requests);
  EXPECT_EQ(weekday.requests_seen(), live.size() - weekend_requests);
  EXPECT_GT(weekday.total_connection_cost() + weekend.total_connection_cost(),
            0.0);
}

/// Full pipeline smoke: city -> CSV round trip -> binning -> offline plan ->
/// online stream -> incentive session -> charging round.
TEST(Integration, FullPipelineEndToEnd) {
  data::CityConfig ccfg;
  ccfg.num_days = 3;
  ccfg.trips_per_weekday = 300;
  ccfg.trips_per_weekend_day = 250;
  ccfg.num_bikes = 60;
  data::SyntheticCity city(ccfg, 4);
  const auto history = city.generate_trips();

  // Persist + reload through the Mobike CSV codec.
  const std::string path = testing::TempDir() + "/esharing_integration.csv";
  data::save_trips_csv(path, history);
  const auto loaded = data::load_trips_csv(path);
  ASSERT_EQ(loaded.size(), history.size());
  std::remove(path.c_str());

  const auto grid = city.grid();
  const auto sites = data::demand_sites_in_window(
      grid, city.projection(), loaded, 0, ccfg.num_days * data::kSecondsPerDay);
  ASSERT_FALSE(sites.empty());

  core::ESharingConfig scfg;
  scfg.placer.ks_period = 100;
  scfg.charging_operator.work_seconds = 1e9;
  core::ESharing sys(scfg, 5);
  (void)sys.plan_offline(sites, [](Point) { return 10000.0; });
  auto hist_pts = data::destinations_in_window(
      city.projection(), loaded, 0, ccfg.num_days * data::kSecondsPerDay);
  hist_pts.resize(std::min<std::size_t>(hist_pts.size(), 200));
  sys.start_online(hist_pts);

  const auto live = city.generate_trips();
  for (const auto& trip : live) {
    (void)sys.handle_request(city.end_point(trip));
  }
  EXPECT_GE(sys.parking_locations().size(),
            sys.offline_solution().num_open());

  energy::BikeFleet fleet(ccfg.num_bikes, energy::EnergyConfig{}, 6);
  std::vector<std::size_t> bike_station(fleet.size());
  const auto parkings = sys.parking_locations();
  for (std::size_t b = 0; b < fleet.size(); ++b) {
    bike_station[b] = b % parkings.size();
  }
  auto session = sys.make_incentive_session(fleet, bike_station);
  const auto round = sys.charge(session);
  EXPECT_EQ(round.bikes_total, fleet.low_battery_bikes().size());
  EXPECT_DOUBLE_EQ(round.pct_charged(), 100.0);
}

}  // namespace
}  // namespace esharing
