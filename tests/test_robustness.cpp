/// Robustness suite: malformed-input fuzzing (parsers must throw, never
/// crash or accept garbage silently) and randomized structural properties
/// that complement the per-module unit tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include <sstream>

#include "core/stations_io.h"
#include "data/csv.h"
#include "geo/geohash.h"
#include "geo/grid.h"
#include "sim/event_engine.h"
#include "solver/tsp.h"
#include "stats/rng.h"
#include "stats/spatial.h"

namespace esharing {
namespace {

using geo::Point;

TEST(Robustness, TripCsvRowMutationsNeverCrash) {
  // Mutate a valid row byte-by-byte: every variant must either parse into
  // a record with valid geohashes or throw invalid_argument.
  const std::string valid = "42,7,99,2,123456,wx4g0bm,wx4g5d2";
  stats::Rng rng(1);
  int parsed = 0, rejected = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string row = valid;
    const int mutations = 1 + static_cast<int>(rng.index(4));
    for (int m = 0; m < mutations; ++m) {
      const auto pos = rng.index(row.size());
      row[pos] = static_cast<char>(rng.uniform_int(32, 126));
    }
    try {
      const auto trip = data::from_csv_row(row);
      EXPECT_TRUE(geo::geohash_valid(trip.start_geohash));
      EXPECT_TRUE(geo::geohash_valid(trip.end_geohash));
      ++parsed;
    } catch (const std::invalid_argument&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
  EXPECT_GT(parsed, 0);  // some mutations stay valid (digit swaps etc.)
}

TEST(Robustness, GeohashDecodeRandomStringsNeverCrash) {
  stats::Rng rng(2);
  for (int trial = 0; trial < 3000; ++trial) {
    std::string hash;
    const auto len = rng.index(12);
    for (std::size_t i = 0; i < len; ++i) {
      hash.push_back(static_cast<char>(rng.uniform_int(33, 126)));
    }
    if (geo::geohash_valid(hash)) {
      const auto cell = geo::geohash_decode(hash);
      EXPECT_GE(cell.center.lat, -90.0);
      EXPECT_LE(cell.center.lat, 90.0);
      EXPECT_GE(cell.center.lon, -180.0);
      EXPECT_LE(cell.center.lon, 180.0);
    } else {
      EXPECT_THROW((void)geo::geohash_decode(hash), std::invalid_argument);
    }
  }
}

TEST(Robustness, RandomGridsRoundTripEveryCell) {
  stats::Rng rng(3);
  for (int trial = 0; trial < 25; ++trial) {
    const double w = rng.uniform(50.0, 5000.0);
    const double h = rng.uniform(50.0, 5000.0);
    const double cell = rng.uniform(10.0, 400.0);
    const geo::Point min{rng.uniform(-1000, 1000), rng.uniform(-1000, 1000)};
    const geo::Grid grid({min, {min.x + w, min.y + h}}, cell);
    for (std::size_t i = 0; i < grid.cell_count();
         i += 1 + grid.cell_count() / 17) {
      const auto c = grid.cell_at(i);
      EXPECT_EQ(grid.index_of(c), i);
      EXPECT_EQ(grid.clamped_cell_of(grid.centroid_of(c)), c);
    }
  }
}

TEST(Robustness, TspToursAlwaysPermutationsUnderRandomSizes) {
  stats::Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.index(40);
    const auto sites = stats::uniform_points(rng, {{0, 0}, {1000, 1000}}, n);
    const auto order = solver::solve_tsp(sites);
    // tour_length validates the permutation internally.
    EXPECT_GE(solver::tour_length(sites, order), 0.0);
  }
}

TEST(Robustness, EventEngineStressKeepsTimeMonotone) {
  sim::EventEngine engine;
  stats::Rng rng(6);
  std::vector<sim::Seconds> fire_order;
  for (int i = 0; i < 5000; ++i) {
    const auto when = static_cast<sim::Seconds>(rng.uniform_int(0, 100000));
    engine.schedule(when, [&fire_order, &engine] {
      fire_order.push_back(engine.now());
    });
  }
  EXPECT_EQ(engine.run(), 5000u);
  EXPECT_TRUE(std::is_sorted(fire_order.begin(), fire_order.end()));
}

TEST(Robustness, StationsCsvGarbageRejected) {
  for (const char* garbage :
       {"", "random text", "id,x,y\n0,1,2", "id,x,y,online_opened,active\n0,nan,inf,2,9,extra"}) {
    std::stringstream ss{std::string(garbage)};
    EXPECT_THROW((void)core::read_stations_csv(ss), std::invalid_argument)
        << garbage;
  }
}

}  // namespace
}  // namespace esharing
