#include "core/deviation_placer.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "solver/meyerson.h"
#include "stats/rng.h"
#include "stats/spatial.h"

namespace esharing::core {
namespace {

using geo::Point;

std::vector<Point> square_landmarks() {
  return {{250, 250}, {750, 250}, {750, 750}, {250, 750}};
}

std::function<double(Point)> constant_f(double f) {
  return [f](Point) { return f; };
}

DeviationPenaltyPlacer make_placer(DeviationPlacerConfig cfg = {},
                                   double f = 5000.0, std::uint64_t seed = 1) {
  stats::Rng rng(99);
  return DeviationPenaltyPlacer(square_landmarks(),
                                stats::uniform_points(rng, {{0, 0}, {1000, 1000}}, 100),
                                constant_f(f), cfg, seed);
}

TEST(DeviationPlacer, ValidatesConstruction) {
  DeviationPlacerConfig cfg;
  EXPECT_THROW(DeviationPenaltyPlacer({{0, 0}}, {}, constant_f(1.0), cfg, 1),
               std::invalid_argument);
  cfg.beta = 0.5;
  EXPECT_THROW(make_placer(cfg), std::invalid_argument);
  cfg = {};
  cfg.tolerance = 0.0;
  EXPECT_THROW(make_placer(cfg), std::invalid_argument);
  EXPECT_THROW(DeviationPenaltyPlacer(square_landmarks(), {}, nullptr, {}, 1),
               std::invalid_argument);
}

TEST(DeviationPlacer, StartsWithOfflineLandmarks) {
  const auto placer = make_placer();
  EXPECT_EQ(placer.num_active(), 4u);
  EXPECT_EQ(placer.num_online_opened(), 0u);
  EXPECT_EQ(placer.penalty_type(), PenaltyType::kTypeII);
}

TEST(DeviationPlacer, InitialScaleIsWStarOverK) {
  // Landmarks form a 500-side square: min pairwise distance 500, w* = 250,
  // k = 4 -> w*/k = 62.5, times the configured multiplier. Base f is set
  // tiny so the mean-opening-cost floor does not engage.
  DeviationPlacerConfig cfg;
  cfg.initial_scale_multiplier = 1.0;
  EXPECT_DOUBLE_EQ(make_placer(cfg, /*f=*/1.0).cost_scale(), 62.5);
  DeviationPlacerConfig scaled;
  scaled.initial_scale_multiplier = 8.0;
  EXPECT_DOUBLE_EQ(make_placer(scaled, /*f=*/1.0).cost_scale(), 500.0);
}

TEST(DeviationPlacer, InitialScaleFlooredAtMeanOpeningCost) {
  // With a realistic f (5 km) the w*/k seed would be far too small for
  // long streams; the scale starts at the mean landmark opening cost.
  DeviationPlacerConfig cfg;
  cfg.initial_scale_multiplier = 1.0;
  EXPECT_DOUBLE_EQ(make_placer(cfg, /*f=*/5000.0).cost_scale(), 5000.0);
}

TEST(DeviationPlacer, InitialScaleOverrideWins) {
  DeviationPlacerConfig cfg;
  cfg.initial_scale_override = 1234.0;
  EXPECT_DOUBLE_EQ(make_placer(cfg, /*f=*/5000.0).cost_scale(), 1234.0);
}

TEST(DeviationPlacer, RequestAtLandmarkNeverOpens) {
  auto placer = make_placer();
  for (int i = 0; i < 200; ++i) {
    const auto d = placer.process({250, 250});
    EXPECT_FALSE(d.opened);
    EXPECT_DOUBLE_EQ(d.connection_cost, 0.0);
  }
  EXPECT_EQ(placer.num_active(), 4u);
}

TEST(DeviationPlacer, TypeIIBlocksOpeningBeyondTolerance) {
  // With the Type II penalty, destinations farther than L from every
  // landmark have g = 0 and can never open.
  DeviationPlacerConfig cfg;
  cfg.tolerance = 200.0;
  cfg.adaptive_type = false;  // pin Type II
  cfg.ks_period = 0;
  auto placer = make_placer(cfg);
  for (int i = 0; i < 500; ++i) {
    const auto d = placer.process({500, 500});  // ~354 m from landmarks
    EXPECT_FALSE(d.opened);
  }
}

TEST(DeviationPlacer, NearbyDeviationsCanOpen) {
  DeviationPlacerConfig cfg;
  cfg.tolerance = 200.0;
  cfg.adaptive_type = false;
  cfg.ks_period = 0;
  auto placer = make_placer(cfg, /*f=*/5000.0, /*seed=*/3);
  // 100 m from a landmark: g = 0.5, c = 100, f = 5000*62.5 -> prob small
  // but positive; with many requests an opening eventually happens.
  int opened = 0;
  for (int i = 0; i < 4000 && opened == 0; ++i) {
    opened += placer.process({250 + 100, 250}).opened ? 1 : 0;
  }
  EXPECT_GT(opened, 0);
}

TEST(DeviationPlacer, ConnectionCostAccumulates) {
  DeviationPlacerConfig cfg;
  cfg.adaptive_type = false;
  cfg.ks_period = 0;
  cfg.initial_scale_multiplier = 1e12;  // effectively never open
  auto placer = make_placer(cfg);
  (void)placer.process({250, 350});  // 100 m from (250,250)
  (void)placer.process({750, 250});  // at a landmark
  EXPECT_DOUBLE_EQ(placer.total_connection_cost(), 100.0);
}

TEST(DeviationPlacer, WeightScalesConnectionCost) {
  DeviationPlacerConfig cfg;
  cfg.adaptive_type = false;
  cfg.ks_period = 0;
  cfg.initial_scale_multiplier = 1e12;
  auto placer = make_placer(cfg);
  const auto d = placer.process({250, 350}, 5.0);
  EXPECT_DOUBLE_EQ(d.connection_cost, 500.0);
  EXPECT_THROW((void)placer.process({0, 0}, -1.0), std::invalid_argument);
}

TEST(DeviationPlacer, OpeningCostDoublesAfterBetaKOpens) {
  DeviationPlacerConfig cfg;
  cfg.beta = 1.0;
  cfg.tolerance = 1e9;       // no penalty in practice (g ~ 1)
  cfg.adaptive_type = false;
  cfg.ks_period = 0;
  // Tiny f so openings are frequent.
  auto placer = make_placer(cfg, /*f=*/1.0, /*seed=*/5);
  const double scale0 = placer.cost_scale();
  stats::Rng rng(6);
  int guard = 0;
  while (placer.num_online_opened() < 4 && ++guard < 10000) {
    (void)placer.process({rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)});
  }
  ASSERT_GE(placer.num_online_opened(), 4u);  // beta*k = 4 openings
  EXPECT_GE(placer.cost_scale(), 2.0 * scale0);
}

TEST(DeviationPlacer, TotalOpeningCostCountsActiveStations) {
  auto placer = make_placer();
  EXPECT_DOUBLE_EQ(placer.total_opening_cost(), 4.0 * 5000.0);
}

TEST(DeviationPlacer, RemoveStationReassignsFutureRequests) {
  DeviationPlacerConfig cfg;
  cfg.adaptive_type = false;
  cfg.ks_period = 0;
  cfg.initial_scale_multiplier = 1e12;  // never open
  auto placer = make_placer(cfg);
  placer.remove_station(0);  // (250, 250) gone
  EXPECT_EQ(placer.num_active(), 3u);
  const auto d = placer.process({250, 250});
  EXPECT_FALSE(d.opened);
  // Nearest remaining landmark is 500 m away.
  EXPECT_DOUBLE_EQ(d.connection_cost, 500.0);
}

TEST(DeviationPlacer, RemoveStationValidation) {
  auto placer = make_placer();
  EXPECT_THROW(placer.remove_station(99), std::out_of_range);
  placer.remove_station(0);
  placer.remove_station(0);  // idempotent
  placer.remove_station(1);
  placer.remove_station(2);
  EXPECT_THROW(placer.remove_station(3), std::logic_error);  // last one
}

TEST(DeviationPlacer, AllRemovedFallbackReestablishes) {
  // After removals, an opening can re-establish service near old demand.
  DeviationPlacerConfig cfg;
  cfg.adaptive_type = false;
  cfg.ks_period = 0;
  auto placer = make_placer(cfg, /*f=*/1.0, /*seed=*/7);
  // Remove three of four stations; the fourth still forbids removal of all.
  placer.remove_station(0);
  placer.remove_station(1);
  placer.remove_station(2);
  EXPECT_EQ(placer.num_active(), 1u);
  stats::Rng rng(8);
  int guard = 0;
  while (placer.num_online_opened() == 0 && ++guard < 10000) {
    (void)placer.process({rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)});
  }
  EXPECT_GT(placer.num_online_opened(), 0u);
}

TEST(DeviationPlacer, KsTestSwitchesPenaltyOnDistributionShift) {
  // Historical data uniform over the field; live requests clustered far in
  // a corner -> low similarity -> Type I (tolerant) should be selected.
  DeviationPlacerConfig cfg;
  cfg.ks_period = 50;
  cfg.adaptive_type = true;
  cfg.initial_penalty = PenaltyType::kTypeII;
  stats::Rng rng(9);
  DeviationPenaltyPlacer placer(
      square_landmarks(),
      stats::uniform_points(rng, {{0, 0}, {1000, 1000}}, 150),
      constant_f(1e9), cfg, 10);
  stats::Rng live(11);
  for (const Point p : stats::normal_points(live, {950, 950}, 15.0, 120)) {
    (void)placer.process(p);
  }
  EXPECT_LT(placer.last_similarity(), 80.0);
  EXPECT_EQ(placer.penalty_type(), PenaltyType::kTypeI);
}

TEST(DeviationPlacer, KsTestKeepsTypeIIWhenDistributionMatches) {
  DeviationPlacerConfig cfg;
  cfg.ks_period = 50;
  cfg.adaptive_type = true;
  stats::Rng rng(12);
  const auto history = stats::normal_points(rng, {500, 500}, 60.0, 200);
  DeviationPenaltyPlacer placer(square_landmarks(), history, constant_f(1e9),
                                cfg, 13);
  stats::Rng live(14);
  for (const Point p : stats::normal_points(live, {500, 500}, 60.0, 150)) {
    (void)placer.process(p);
  }
  EXPECT_GT(placer.last_similarity(), 80.0);
  EXPECT_NE(placer.penalty_type(), PenaltyType::kTypeI);
}

TEST(DeviationPlacer, OpensFewerStationsThanMeyerson) {
  // The headline Table V behaviour on a uniform stream.
  stats::Rng rng(15);
  const auto pts = stats::uniform_points(rng, {{0, 0}, {1000, 1000}}, 600);
  DeviationPlacerConfig cfg;
  cfg.tolerance = 200.0;
  auto placer = make_placer(cfg, /*f=*/5000.0, /*seed=*/16);
  solver::MeyersonPlacer meyerson(5000.0, 16);
  for (const Point p : pts) {
    (void)placer.process(p);
    (void)meyerson.process(p);
  }
  EXPECT_LT(placer.num_active(), meyerson.num_open() + 4);
}

TEST(DeviationPlacer, ReanchorReplacesLandmarksAndKeepsStations) {
  auto placer = make_placer();
  stats::Rng rng(23);
  for (const Point p :
       stats::uniform_points(rng, {{0, 0}, {1000, 1000}}, 150)) {
    (void)placer.process(p);
  }
  const std::size_t active_before = placer.num_active();
  const double scale_before = placer.cost_scale();

  // Two re-anchored landmarks coincide with existing stations, one is new.
  const std::vector<Point> plan{{250, 250}, {750, 750}, {111, 888}};
  placer.reanchor(plan);
  EXPECT_EQ(placer.reanchors(), 1u);
  // Existing stations persist; the one genuinely new landmark is
  // established as an offline (not online-opened) station.
  EXPECT_EQ(placer.num_active(), active_before + 1);
  bool found_new = false;
  for (const Station& s : placer.stations()) {
    if (s.location.x == 111.0 && s.location.y == 888.0) {
      found_new = true;
      EXPECT_FALSE(s.online_opened);
      EXPECT_TRUE(s.active);
    }
  }
  EXPECT_TRUE(found_new);
  // The adapted opening scale carries over — no replay of the aggressive
  // early-opening phase.
  EXPECT_DOUBLE_EQ(placer.cost_scale(), scale_before);
  // A request exactly at a new landmark deviates by zero: never opens.
  const auto before_active = placer.num_active();
  (void)placer.process({111, 888});
  EXPECT_EQ(placer.num_active(), before_active);
}

TEST(DeviationPlacer, ReanchorValidation) {
  auto placer = make_placer();
  EXPECT_THROW(placer.reanchor({}), std::invalid_argument);
  // A single landmark is fine: w* only seeds the initial scale, and a
  // re-anchor carries the adapted scale over.
  EXPECT_NO_THROW(placer.reanchor({{500, 500}}));
  EXPECT_EQ(placer.reanchors(), 1u);
}

TEST(DeviationPlacer, CheckpointRoundTripsReanchoredLandmarks) {
  auto placer = make_placer();
  stats::Rng rng(29);
  const auto warmup =
      stats::uniform_points(rng, {{0, 0}, {1000, 1000}}, 120);
  for (const Point p : warmup) (void)placer.process(p);
  placer.reanchor({{100, 100}, {900, 100}, {500, 900}});

  std::stringstream blob;
  placer.save(blob);
  auto restored =
      DeviationPenaltyPlacer::restore(blob, constant_f(5000.0), {});
  EXPECT_EQ(restored.reanchors(), placer.reanchors());
  ASSERT_EQ(restored.stations().size(), placer.stations().size());

  // The restored placer continues the stream bit-identically — including
  // penalties keyed to the RE-ANCHORED landmark set, which v1 blobs (first
  // k stations as landmarks) could not represent.
  const auto tail = stats::uniform_points(rng, {{0, 0}, {1000, 1000}}, 150);
  for (const Point p : tail) {
    const auto a = placer.process(p);
    const auto b = restored.process(p);
    EXPECT_EQ(a.opened, b.opened);
    EXPECT_EQ(a.facility, b.facility);
    EXPECT_EQ(a.connection_cost, b.connection_cost);
  }
  EXPECT_EQ(placer.num_active(), restored.num_active());
  EXPECT_EQ(placer.total_connection_cost(), restored.total_connection_cost());
}

TEST(DeviationPlacer, BlobHeaderBytesAreFrozen) {
  // The fixed 48-byte blob header (magic, version, then the behavioural
  // fingerprint restore() checks), spelled out byte by byte so a change to
  // the fingerprint fails here rather than at a restore in the field.
  std::ostringstream os;
  make_placer().save(os);
  const std::string blob = os.str();
  const unsigned char expected[48] = {
      // magic "EPLACER1" as a little-endian u64
      0x31, 0x52, 0x45, 0x43, 0x41, 0x4c, 0x50, 0x45,
      // version 2
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      // beta 1.0 (IEEE-754 0x3ff0000000000000)
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f,
      // tolerance 200.0 (IEEE-754 0x4069000000000000)
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x69, 0x40,
      // ks_period 200
      0xc8, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      // window_capacity 500
      0xf4, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
  };
  ASSERT_GT(blob.size(), sizeof(expected));
  for (std::size_t i = 0; i < sizeof(expected); ++i) {
    EXPECT_EQ(static_cast<unsigned char>(blob[i]), expected[i])
        << "header byte " << i;
  }
}

TEST(DeviationPlacer, RestoreRejectsForeignWindowCapacity) {
  std::ostringstream os;
  make_placer().save(os);
  std::string blob = os.str();
  {  // Unpatched, the blob restores.
    std::istringstream is(blob);
    EXPECT_NO_THROW(
        (void)DeviationPenaltyPlacer::restore(is, constant_f(5000.0), {}));
  }
  // window_capacity is the u64 at byte 40: 500 -> 499.
  ASSERT_EQ(static_cast<unsigned char>(blob[40]), 0xf4);
  blob[40] = static_cast<char>(0xf3);
  std::istringstream is(blob);
  EXPECT_THROW(
      (void)DeviationPenaltyPlacer::restore(is, constant_f(5000.0), {}),
      std::runtime_error);
}

TEST(DeviationPlacer, DeterministicPerSeed) {
  stats::Rng rng(17);
  const auto pts = stats::uniform_points(rng, {{0, 0}, {1000, 1000}}, 300);
  auto a = make_placer({}, 5000.0, 42);
  auto b = make_placer({}, 5000.0, 42);
  for (const Point p : pts) {
    (void)a.process(p);
    (void)b.process(p);
  }
  EXPECT_EQ(a.num_active(), b.num_active());
  EXPECT_DOUBLE_EQ(a.total_connection_cost(), b.total_connection_cost());
}

}  // namespace
}  // namespace esharing::core
