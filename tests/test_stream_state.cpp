#include "stream/stream_state.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "stream/event_bus.h"

namespace esharing::stream {
namespace {

using geo::Point;

Event trip_end(Point where, data::Seconds t, std::uint64_t seq = 0) {
  Event e;
  e.kind = EventKind::kTripEnd;
  e.time = t;
  e.seq = seq;
  e.where = where;
  return e;
}

Event battery(std::int64_t bike, double soc, Point where, data::Seconds t) {
  Event e;
  e.kind = EventKind::kBatteryLevel;
  e.time = t;
  e.where = where;
  e.bike_id = bike;
  e.soc = soc;
  return e;
}

template <typename Config>
void expect_rejects(const Config& config, const std::string& field) {
  try {
    config.validate();
    FAIL() << "expected " << field << " to be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << "message does not name the field: " << e.what();
  }
}

TEST(StreamState, ConfigValidation) {
  EXPECT_NO_THROW(StreamStateConfig{}.validate());

  StreamStateConfig c;
  c.window_length = 0;
  expect_rejects(c, "window_length");
}

TEST(StreamState, WindowSlidesWithEventTime) {
  StreamStateConfig cfg;
  cfg.window_length = 100;
  StreamState st(cfg);
  st.ingest(trip_end({10, 10}, 0, 0));
  st.ingest(trip_end({20, 20}, 50, 1));
  EXPECT_EQ(st.window_size(), 2u);
  // t=150: entries at 0 and 50 are both stale (time <= now - length).
  st.ingest(trip_end({30, 30}, 150, 2));
  EXPECT_EQ(st.window_size(), 1u);
  std::vector<Point> pts{{1, 1}, {2, 2}, {3, 3}};  // overwritten
  st.window_points(pts);
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_DOUBLE_EQ(pts[0].x, 30.0);
  EXPECT_EQ(st.events_ingested(), 3u);
  EXPECT_EQ(st.now(), 150);
}

TEST(StreamState, CellCountsTrackTheWindow) {
  StreamStateConfig cfg;
  cfg.window_length = 100;
  StreamState st(cfg);  // 100 m cells
  st.ingest(trip_end({10, 10}, 0, 0));
  st.ingest(trip_end({50, 50}, 10, 1));   // same cell (0, 0)
  st.ingest(trip_end({250, 250}, 20, 2)); // cell (2, 2)
  auto snap = st.snapshot();
  ASSERT_EQ(snap.cells.size(), 2u);
  EXPECT_EQ(snap.cells[0].cx, 0);
  EXPECT_EQ(snap.cells[0].count, 2u);
  EXPECT_EQ(snap.cells[1].cx, 2);
  EXPECT_EQ(snap.cells[1].count, 1u);
  // After both cell-(0,0) entries age out the count drops to zero.
  st.ingest(trip_end({250, 210}, 110, 3));
  snap = st.snapshot();
  ASSERT_EQ(snap.cells.size(), 2u);
  EXPECT_EQ(snap.cells[0].count, 0u);
  EXPECT_EQ(snap.cells[1].count, 2u);
}

TEST(StreamState, ArrivalRateDecaysWithHalfLife) {
  StreamStateConfig cfg;
  cfg.window_length = 100000;
  StreamState st(cfg);  // 1,800 s rate half-life
  st.ingest(trip_end({10, 10}, 0, 0));
  const double r0 = st.arrival_rate({10, 10}, 0);
  EXPECT_GT(r0, 0.0);
  EXPECT_DOUBLE_EQ(st.arrival_rate({10, 10}, 1800), r0 / 2.0);
  EXPECT_DOUBLE_EQ(st.arrival_rate({10, 10}, 3600), r0 / 4.0);
  EXPECT_DOUBLE_EQ(st.arrival_rate({900, 900}, 0), 0.0);  // untouched cell
  // A second arrival raises the estimate above the decayed value.
  st.ingest(trip_end({20, 20}, 1800, 1));
  EXPECT_GT(st.arrival_rate({10, 10}, 1800), r0 / 2.0);
}

TEST(StreamState, WatchlistFollowsTelemetry) {
  StreamState st(StreamStateConfig{});  // watchlist below SoC 0.2
  st.ingest(battery(7, 0.15, {10, 10}, 0));
  st.ingest(battery(9, 0.5, {20, 20}, 1));   // healthy: not listed
  st.ingest(battery(3, 0.05, {30, 30}, 2));
  EXPECT_EQ(st.watchlist_size(), 2u);
  auto snap = st.snapshot();
  ASSERT_EQ(snap.watchlist.size(), 2u);
  EXPECT_EQ(snap.watchlist[0].bike_id, 3);  // sorted by bike id
  EXPECT_EQ(snap.watchlist[1].bike_id, 7);
  // A fresh report updates in place; recharge clears the entry.
  st.ingest(battery(7, 0.1, {40, 40}, 3));
  EXPECT_EQ(st.watchlist_size(), 2u);
  st.ingest(battery(7, 0.9, {40, 40}, 4));
  EXPECT_EQ(st.watchlist_size(), 1u);
  EXPECT_EQ(st.snapshot().watchlist[0].bike_id, 3);
}

TEST(StreamState, MergedViewIsShardCountInvariant) {
  // Route one event log through 1 shard and through 4 shards; the merged
  // snapshots must be identical (cells, window seq order, watchlist).
  EventBusConfig route1;
  route1.shard_count = 1;
  EventBusConfig route4;
  route4.shard_count = 4;
  const EventBus bus1(route1);
  const EventBus bus4(route4);

  std::vector<Event> log;
  for (int i = 0; i < 120; ++i) {
    log.push_back(trip_end({73.0 * i, 157.0 * (120 - i)}, i,
                           static_cast<std::uint64_t>(i)));
  }
  for (int b = 0; b < 10; ++b) {
    log.push_back(battery(b, 0.1, {40.0 * b, 11.0 * b}, 120 + b));
    log.back().seq = static_cast<std::uint64_t>(120 + b);
  }

  StreamStateConfig cfg;
  cfg.window_length = 100000;
  StreamState single(cfg);
  std::vector<StreamState> sharded(4, StreamState(cfg));
  for (const Event& e : log) {
    single.ingest(e);
    sharded[bus4.shard_of(e.where)].ingest(e);
  }
  (void)bus1;

  // Shards evict and decay lazily, so every snapshot is taken at the
  // global clock — the invariance contract of snapshot(as_of).
  const data::Seconds global_now = single.now();
  const StateSnapshot merged_single =
      StreamState::merge({single.snapshot(global_now)});
  std::vector<StateSnapshot> snaps;
  for (const auto& s : sharded) snaps.push_back(s.snapshot(global_now));
  const StateSnapshot merged_sharded = StreamState::merge(snaps);

  ASSERT_EQ(merged_single.cells.size(), merged_sharded.cells.size());
  for (std::size_t i = 0; i < merged_single.cells.size(); ++i) {
    EXPECT_EQ(merged_single.cells[i].cx, merged_sharded.cells[i].cx);
    EXPECT_EQ(merged_single.cells[i].cy, merged_sharded.cells[i].cy);
    EXPECT_EQ(merged_single.cells[i].count, merged_sharded.cells[i].count);
    EXPECT_DOUBLE_EQ(merged_single.cells[i].rate_per_s,
                     merged_sharded.cells[i].rate_per_s);
  }
  ASSERT_EQ(merged_single.window.size(), merged_sharded.window.size());
  for (std::size_t i = 0; i < merged_single.window.size(); ++i) {
    EXPECT_EQ(merged_single.window[i].seq, merged_sharded.window[i].seq);
    EXPECT_DOUBLE_EQ(merged_single.window[i].where.x,
                     merged_sharded.window[i].where.x);
  }
  ASSERT_EQ(merged_single.watchlist.size(), merged_sharded.watchlist.size());
  for (std::size_t i = 0; i < merged_single.watchlist.size(); ++i) {
    EXPECT_EQ(merged_single.watchlist[i].bike_id,
              merged_sharded.watchlist[i].bike_id);
  }
}

TEST(StreamState, SaveRestoreRoundTripIsExactAndByteStable) {
  StreamStateConfig cfg;
  cfg.window_length = 500;
  StreamState st(cfg);
  for (int i = 0; i < 40; ++i) {
    st.ingest(trip_end({31.0 * i, 17.0 * i}, i * 7,
                       static_cast<std::uint64_t>(i)));
  }
  st.ingest(battery(5, 0.1, {100, 100}, 300));
  st.ingest(battery(8, 0.12, {200, 200}, 301));

  std::ostringstream blob;
  st.save(blob);
  std::istringstream in(blob.str());
  const StreamState restored = StreamState::restore(in, cfg);
  EXPECT_TRUE(st.equals(restored));
  EXPECT_TRUE(restored.equals(st));

  // Identical state writes identical bytes (the checkpoint-diff property).
  std::ostringstream blob2;
  restored.save(blob2);
  EXPECT_EQ(blob.str(), blob2.str());

  // And the restored state keeps evolving identically.
  StreamState a = restored;
  StreamState b = restored;
  a.ingest(trip_end({999, 999}, 400, 77));
  b.ingest(trip_end({999, 999}, 400, 77));
  EXPECT_TRUE(a.equals(b));
  EXPECT_FALSE(a.equals(restored));
}

TEST(StreamState, RestoreRejectsTruncatedBlob) {
  StreamStateConfig cfg;
  StreamState st(cfg);
  st.ingest(trip_end({1, 1}, 0, 0));
  std::ostringstream blob;
  st.save(blob);
  const std::string full = blob.str();
  std::istringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW((void)StreamState::restore(truncated, cfg), std::runtime_error);
}

}  // namespace
}  // namespace esharing::stream
