#include "stream/stream_state.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "data/sorted_view.h"
#include "data/wire.h"
#include "obs/registry.h"

namespace esharing::stream {

namespace {

/// Half-life of the per-cell arrival-rate estimate, in seconds.
constexpr double kRateHalflifeS = 1800.0;
/// A bike reporting a state of charge below this joins the watchlist.
constexpr double kLowSocThreshold = 0.2;

struct StateObsMetrics {
  obs::Counter& ingested;
  obs::Counter& evicted;
  obs::Counter& watch_added;
  obs::Counter& watch_cleared;

  static StateObsMetrics& get() {
    static StateObsMetrics m{
        obs::Registry::global().counter("stream.state.events_ingested"),
        obs::Registry::global().counter("stream.state.window_evictions"),
        obs::Registry::global().counter("stream.state.watchlist_added"),
        obs::Registry::global().counter("stream.state.watchlist_cleared"),
    };
    return m;
  }
};

}  // namespace

void StreamStateConfig::validate() const {
  const auto fail = [](const std::string& field, double got,
                       const std::string& why) {
    throw std::invalid_argument("StreamStateConfig: " + field + " = " +
                                std::to_string(got) + " is invalid: " + why);
  };
  if (window_length <= 0) {
    fail("window_length", static_cast<double>(window_length),
         "the sliding demand window is a duration in seconds and must be "
         "positive");
  }
}

StreamState::StreamState(StreamStateConfig config) : config_(config) {
  config_.validate();
}

StreamState::CellKey StreamState::cell_of(geo::Point p) const {
  return {static_cast<std::int64_t>(std::floor(p.x / kCellM)),
          static_cast<std::int64_t>(std::floor(p.y / kCellM))};
}

void StreamState::advance_clock(data::Seconds t) {
  if (!saw_event_ || t > now_) {
    now_ = t;
    saw_event_ = true;
  }
}

void StreamState::push_window(const WindowEntry& w) {
  // Compact only when the evicted prefix is at least half of a full
  // buffer: each compaction then moves at most as many entries as pushes
  // since the last one, and the buffer stops growing once it is twice the
  // live window.
  if (window_.size() == window_.capacity() &&
      2 * window_head_ >= window_.size()) {
    window_.erase(window_.begin(),
                  window_.begin() + static_cast<std::ptrdiff_t>(window_head_));
    window_head_ = 0;
  }
  window_.push_back(w);
}

void StreamState::evict(data::Seconds now) {
  while (window_head_ < window_.size() &&
         window_[window_head_].time <= now - config_.window_length) {
    auto it = cells_.find(window_[window_head_].cell);
    if (it != cells_.end() && it->second.in_window > 0) {
      --it->second.in_window;
    }
    ++window_head_;
    if (obs::enabled()) StateObsMetrics::get().evicted.add();
  }
}

void StreamState::ingest(const Event& e) {
  advance_clock(e.time);
  ++ingested_;
  if (obs::enabled()) StateObsMetrics::get().ingested.add();

  switch (e.kind) {
    case EventKind::kTripEnd: {
      const CellKey key = cell_of(e.where);
      CellState& cell = cells_[key];
      // Decay the rate estimate to this event's time, then count it.
      if (cell.rate > 0.0 && e.time > cell.rate_updated) {
        const double dt = static_cast<double>(e.time - cell.rate_updated);
        cell.rate *= std::exp2(-dt / kRateHalflifeS);
      }
      cell.rate += 1.0 / kRateHalflifeS;
      cell.rate_updated = std::max(cell.rate_updated, e.time);
      ++cell.in_window;
      push_window({e.time, e.seq, e.where, key});
      break;
    }
    case EventKind::kBatteryLevel: {
      if (e.soc < kLowSocThreshold) {
        const bool fresh = watch_.find(e.bike_id) == watch_.end();
        watch_[e.bike_id] = {e.bike_id, e.where, e.soc, e.time};
        if (fresh && obs::enabled()) StateObsMetrics::get().watch_added.add();
      } else if (watch_.erase(e.bike_id) > 0 && obs::enabled()) {
        StateObsMetrics::get().watch_cleared.add();
      }
      break;
    }
    case EventKind::kTripStart:
      break;  // clock advance only
  }
  evict(now_);
}

void StreamState::window_points(std::vector<geo::Point>& out) const {
  out.clear();  // push_back grows geometrically, unlike an exact reserve
  for (const auto& w : live_window()) out.push_back(w.where);
}

std::vector<geo::Point> StateSnapshot::window_points() const {
  std::vector<geo::Point> pts;
  pts.reserve(window.size());
  for (const auto& w : window) pts.push_back(w.where);
  return pts;
}

std::vector<data::DemandSite> StateSnapshot::demand_sites() const {
  std::vector<data::DemandSite> sites;
  sites.reserve(cells.size());
  for (const auto& c : cells) {
    sites.push_back({c.centroid(), static_cast<double>(c.count)});
  }
  return sites;
}

double StreamState::arrival_rate(geo::Point p, data::Seconds at) const {
  const auto it = cells_.find(cell_of(p));
  if (it == cells_.end()) return 0.0;
  const CellState& cell = it->second;
  if (at <= cell.rate_updated) return cell.rate;
  const double dt = static_cast<double>(at - cell.rate_updated);
  return cell.rate * std::exp2(-dt / kRateHalflifeS);
}

StateSnapshot StreamState::snapshot() const { return snapshot(now_); }

StateSnapshot StreamState::snapshot(data::Seconds as_of) const {
  const data::Seconds now = std::max(now_, as_of);
  StateSnapshot snap;
  snap.now = now;
  // Recount window survivors as of `now` rather than trusting the raw
  // in_window counters: eviction is lazy (runs only on ingest), so a quiet
  // shard's counters can include entries a global clock already aged out.
  std::unordered_map<CellKey, std::uint64_t, CellKeyHash> live;
  snap.window.reserve(window_size());
  for (const auto& w : live_window()) {
    if (w.time <= now - config_.window_length) continue;
    ++live[w.cell];
    snap.window.push_back({w.seq, w.where});
  }
  snap.cells.reserve(cells_.size());
  for (const auto& [key, cell] : data::sorted_items(cells_, cell_key_less)) {
    const auto it = live.find(key);
    snap.cells.push_back({key.cx, key.cy,
                          it == live.end() ? 0 : it->second,
                          arrival_rate({static_cast<double>(key.cx) * kCellM,
                                        static_cast<double>(key.cy) * kCellM},
                                       now)});
  }
  snap.watchlist.reserve(watch_.size());
  for (const auto& [bike, entry] : data::sorted_items(watch_)) {
    snap.watchlist.push_back(entry);
  }
  return snap;
}

StateSnapshot StreamState::merge(const std::vector<StateSnapshot>& shards) {
  StateSnapshot merged;
  for (const auto& s : shards) {
    merged.now = std::max(merged.now, s.now);
    merged.cells.insert(merged.cells.end(), s.cells.begin(), s.cells.end());
    merged.watchlist.insert(merged.watchlist.end(), s.watchlist.begin(),
                            s.watchlist.end());
  }
  std::sort(merged.cells.begin(), merged.cells.end(),
            [](const StateSnapshot::CellCount& a,
               const StateSnapshot::CellCount& b) {
              return a.cx != b.cx ? a.cx < b.cx : a.cy < b.cy;
            });
  std::sort(merged.watchlist.begin(), merged.watchlist.end(),
            [](const WatchEntry& a, const WatchEntry& b) {
              return a.bike_id < b.bike_id;
            });
  // Window points interleave across shards; re-merging by publish seq makes
  // the merged view identical for every shard count.
  for (const auto& s : shards) {
    merged.window.insert(merged.window.end(), s.window.begin(),
                         s.window.end());
  }
  std::sort(merged.window.begin(), merged.window.end(),
            [](const StateSnapshot::WindowPoint& a,
               const StateSnapshot::WindowPoint& b) { return a.seq < b.seq; });
  return merged;
}

// --- checkpoint serialization ----------------------------------------------

namespace wire = data::wire;

void StreamState::save(std::ostream& os) const {
  wire::write_i64(os, now_);
  wire::write_u8(os, saw_event_ ? 1 : 0);
  wire::write_u64(os, ingested_);

  wire::write_u64(os, window_size());
  for (const auto& w : live_window()) {
    wire::write_i64(os, w.time);
    wire::write_u64(os, w.seq);
    wire::write_f64(os, w.where.x);
    wire::write_f64(os, w.where.y);
  }

  // Cells are persisted sorted so identical states write identical bytes.
  const auto cells = data::sorted_items(cells_, cell_key_less);
  wire::write_u64(os, cells.size());
  for (const auto& [key, cell] : cells) {
    wire::write_i64(os, key.cx);
    wire::write_i64(os, key.cy);
    wire::write_u64(os, cell.in_window);
    wire::write_f64(os, cell.rate);
    wire::write_i64(os, cell.rate_updated);
  }

  const auto watch = data::sorted_items(watch_);
  wire::write_u64(os, watch.size());
  for (const auto& [bike, w] : watch) {
    wire::write_i64(os, w.bike_id);
    wire::write_f64(os, w.where.x);
    wire::write_f64(os, w.where.y);
    wire::write_f64(os, w.soc);
    wire::write_i64(os, w.reported_at);
  }
}

StreamState StreamState::restore(std::istream& is, StreamStateConfig config) {
  constexpr std::uint64_t kSaneMax = 1ULL << 32;
  StreamState st(config);
  st.now_ = wire::read_i64(is);
  st.saw_event_ = wire::read_u8(is) != 0;
  st.ingested_ = wire::read_u64(is);

  const std::uint64_t n_window = wire::read_count(is, kSaneMax);
  for (std::uint64_t i = 0; i < n_window; ++i) {
    WindowEntry w;
    w.time = wire::read_i64(is);
    w.seq = wire::read_u64(is);
    w.where.x = wire::read_f64(is);
    w.where.y = wire::read_f64(is);
    w.cell = st.cell_of(w.where);
    st.push_window(w);
  }

  const std::uint64_t n_cells = wire::read_count(is, kSaneMax);
  for (std::uint64_t i = 0; i < n_cells; ++i) {
    CellKey key;
    key.cx = wire::read_i64(is);
    key.cy = wire::read_i64(is);
    CellState cell;
    cell.in_window = wire::read_u64(is);
    cell.rate = wire::read_f64(is);
    cell.rate_updated = wire::read_i64(is);
    st.cells_.emplace(key, cell);
  }

  const std::uint64_t n_watch = wire::read_count(is, kSaneMax);
  for (std::uint64_t i = 0; i < n_watch; ++i) {
    WatchEntry w;
    w.bike_id = wire::read_i64(is);
    w.where.x = wire::read_f64(is);
    w.where.y = wire::read_f64(is);
    w.soc = wire::read_f64(is);
    w.reported_at = wire::read_i64(is);
    st.watch_.emplace(w.bike_id, w);
  }
  return st;
}

bool StreamState::equals(const StreamState& other) const {
  if (now_ != other.now_ || saw_event_ != other.saw_event_ ||
      ingested_ != other.ingested_ || window_size() != other.window_size() ||
      cells_.size() != other.cells_.size() ||
      watch_.size() != other.watch_.size()) {
    return false;
  }
  const auto mine = live_window();
  const auto theirs = other.live_window();
  for (std::size_t i = 0; i < mine.size(); ++i) {
    const auto& a = mine[i];
    const auto& b = theirs[i];
    if (a.time != b.time || a.seq != b.seq || a.where.x != b.where.x ||
        a.where.y != b.where.y) {
      return false;
    }
  }
  // lint-ok: unordered-iter order-independent membership comparison
  for (const auto& [key, cell] : cells_) {
    const auto it = other.cells_.find(key);
    if (it == other.cells_.end() || it->second.in_window != cell.in_window ||
        it->second.rate != cell.rate ||
        it->second.rate_updated != cell.rate_updated) {
      return false;
    }
  }
  // lint-ok: unordered-iter order-independent membership comparison
  for (const auto& [bike, entry] : watch_) {
    const auto it = other.watch_.find(bike);
    if (it == other.watch_.end() || it->second.soc != entry.soc ||
        it->second.where.x != entry.where.x ||
        it->second.where.y != entry.where.y ||
        it->second.reported_at != entry.reported_at) {
      return false;
    }
  }
  return true;
}

}  // namespace esharing::stream
