#include "stream/drivers.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "data/wire.h"
#include "exec/thread_pool.h"
#include "obs/registry.h"
#include "stats/ks2d.h"

namespace esharing::stream {

using geo::Point;

namespace {

namespace wire = data::wire;
constexpr std::uint64_t kDriverMagic = 0x4553545244525631ULL;  // "ESTRDRV1"
// v2: + trip_ends_total/reanchors (the landmark re-anchor cadence state).
// v3: + forecast_refreshes and the per-cell hourly accumulator behind the
//     batched forecast refresh (written even when the feature is off, as
//     an empty section).
constexpr std::uint64_t kDriverVersion = 3;

constexpr double kSecondsPerHour = 3600.0;

struct DriverObsMetrics {
  obs::Counter& events;
  obs::Counter& trip_ends;
  obs::Counter& regime_checks;
  obs::Counter& reanchors;
  obs::Counter& forecast_refreshes;
  obs::Counter& batch_segments;
  obs::Gauge& regime_similarity;
  obs::Counter& sessions_opened;
  obs::Counter& watchlist_assigned;

  static DriverObsMetrics& get() {
    static DriverObsMetrics m{
        obs::Registry::global().counter("stream.placer_driver.events"),
        obs::Registry::global().counter("stream.placer_driver.trip_ends"),
        obs::Registry::global().counter("stream.placer_driver.regime_checks"),
        obs::Registry::global().counter("stream.placer_driver.reanchors"),
        obs::Registry::global().counter(
            "stream.placer_driver.forecast_refreshes"),
        obs::Registry::global().counter("stream.placer_driver.batch_segments"),
        obs::Registry::global().gauge("stream.placer_driver.regime_similarity"),
        obs::Registry::global().counter("stream.incentive_driver.sessions_opened"),
        obs::Registry::global().counter("stream.incentive_driver.watchlist_assigned"),
    };
    return m;
  }
};

}  // namespace

void PlacerDriverConfig::validate() const {
  state.validate();
  if (regime_check_period > 0 && regime_min_samples == 0) {
    throw std::invalid_argument(
        "PlacerDriverConfig: regime_min_samples = 0 is invalid: the KS "
        "regime check needs at least one window sample (set "
        "regime_check_period = 0 to disable the check instead)");
  }
  if (reanchor_period > 0 && reanchor_min_cells == 0) {
    throw std::invalid_argument(
        "PlacerDriverConfig: reanchor_min_cells = 0 is invalid: a "
        "re-anchor needs at least one demand cell to build an instance "
        "from (set reanchor_period = 0 to disable re-anchoring instead)");
  }
  if (forecast_history_hours > 0) {
    forecast_rnn.validate();
    if (forecast_history_hours < forecast_rnn.lookback + 2) {
      throw std::invalid_argument(
          "PlacerDriverConfig: forecast_history_hours = " +
          std::to_string(forecast_history_hours) +
          " is invalid: the batch forecaster needs at least lookback + 2 = " +
          std::to_string(forecast_rnn.lookback + 2) +
          " hourly points per cell (set forecast_history_hours = 0 to "
          "disable forecast refreshes instead)");
    }
  }
}

OnlinePlacerDriver::OnlinePlacerDriver(core::ESharing& system,
                                       const EventBus& bus,
                                       std::vector<Point> historical_sample,
                                       PlacerDriverConfig config)
    : system_(&system), bus_(&bus), config_(config) {
  config_.validate();
  if (!system.online_started()) {
    throw std::logic_error(
        "OnlinePlacerDriver: the system must be online (call start_online) "
        "before streaming requests into it");
  }
  states_.reserve(bus.shard_count());
  for (std::size_t s = 0; s < bus.shard_count(); ++s) {
    states_.emplace_back(config_.state);
  }
  regimes_.assign(bus.shard_count(), ShardRegime{});
  std::vector<std::vector<Point>> slices(bus.shard_count());
  for (Point p : historical_sample) slices[bus.shard_of(p)].push_back(p);
  shard_ks_.resize(bus.shard_count());
  for (std::size_t s = 0; s < slices.size(); ++s) {
    shard_ks_[s].reference = stats::Ks2dReference(slices[s]);
  }
}

void OnlinePlacerDriver::ingest_shard(std::size_t shard, const Event* events,
                                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const Event& e = events[i];
    states_[shard].ingest(e);
    if (obs::enabled()) DriverObsMetrics::get().events.add();
    if (e.kind != EventKind::kTripEnd) continue;
    ShardRegime& regime = regimes_[shard];
    ++regime.trip_ends;
    if (obs::enabled()) DriverObsMetrics::get().trip_ends.add();
    if (config_.regime_check_period > 0 &&
        regime.trip_ends % config_.regime_check_period == 0) {
      run_regime_check(shard);
    }
  }
}

std::optional<solver::OnlineDecision> OnlinePlacerDriver::decide(
    const Event& e) {
  ++consumed_;
  last_seq_ = e.seq;
  if (e.kind != EventKind::kTripEnd) return std::nullopt;
  const auto decision = system_->handle_request(e.where, e.weight);
  ++trip_ends_total_;
  if (config_.forecast_history_hours > 0) {
    // Hourly per-cell accumulation for the batch forecast refresh. Runs in
    // the sequential decision stage, so the accumulator is a pure function
    // of the merged seq order — shard-count and lane invariant.
    const std::pair<std::int64_t, std::int64_t> key{
        static_cast<std::int64_t>(std::floor(e.where.x / kCellM)),
        static_cast<std::int64_t>(std::floor(e.where.y / kCellM))};
    const auto hour = static_cast<std::int64_t>(
        std::floor(static_cast<double>(e.time) / kSecondsPerHour));
    auto& hours = forecast_hours_[key];
    hours[hour] += e.weight;
    // Bound the touched cell to the trailing window (hours only advance).
    const auto horizon =
        static_cast<std::int64_t>(config_.forecast_history_hours);
    while (!hours.empty() && hours.begin()->first < hour - horizon) {
      hours.erase(hours.begin());
    }
  }
  if (config_.reanchor_period > 0 &&
      trip_ends_total_ % config_.reanchor_period == 0) {
    run_reanchor();
  }
  return decision;
}

std::size_t OnlinePlacerDriver::consume_batch(
    std::span<const Event> events, std::size_t lanes,
    std::vector<solver::OnlineDecision>* decisions_out) {
  if (events.empty()) return 0;
  const std::size_t num_shards = states_.size();
  // Scratch reused across segments and calls: each shard's FIFO
  // subsequence of the current segment.
  auto& per_shard = per_shard_;
  per_shard.resize(num_shards);

  std::size_t begin = 0;
  while (begin < events.size()) {
    // Cut the segment at the next re-anchor trigger: run_reanchor reads
    // the merged snapshot of *all* shard states, so ingestion must not run
    // ahead of a trigger. trip_ends_total_ only advances in decide(), so
    // simulate the counter forward to find the cut.
    std::size_t end = events.size();
    if (config_.reanchor_period > 0) {
      std::uint64_t trip_ends = trip_ends_total_;
      for (std::size_t i = begin; i < events.size(); ++i) {
        if (events[i].kind != EventKind::kTripEnd) continue;
        if (++trip_ends % config_.reanchor_period == 0) {
          end = i + 1;
          break;
        }
      }
    }

    for (auto& bucket : per_shard) bucket.clear();
    std::size_t busy = 0;
    for (std::size_t i = begin; i < end; ++i) {
      auto& bucket = per_shard[bus_->shard_of(events[i].where)];
      if (bucket.empty()) ++busy;
      bucket.push_back(events[i]);
    }
    // Shard stage: each lane folds whole shards; grain 1 keeps one shard
    // per chunk. Bit-identical at any width because ingest_shard touches
    // only its own shard's state and the fold order within a shard is its
    // FIFO order either way — which is also why a segment touching one
    // shard can fold it inline without waking the pool.
    const auto fold = [&](std::size_t first, std::size_t last, std::size_t) {
      for (std::size_t s = first; s < last; ++s) {
        if (!per_shard[s].empty()) {
          ingest_shard(s, per_shard[s].data(), per_shard[s].size());
        }
      }
    };
    if (busy <= 1) {
      fold(0, num_shards, 0);
    } else {
      exec::parallel_for(num_shards, /*grain=*/1, fold, lanes);
    }
    // Decision stage: sequential, in merged seq order.
    for (std::size_t i = begin; i < end; ++i) {
      auto decision = decide(events[i]);
      if (decision.has_value() && decisions_out != nullptr) {
        decisions_out->push_back(*decision);
      }
    }
    if (obs::enabled()) DriverObsMetrics::get().batch_segments.add();
    begin = end;
  }
  return events.size();
}

void OnlinePlacerDriver::run_reanchor() {
  // The merged snapshot is shard-count invariant and, because events are
  // consumed in seq order, the global max clock equals this event's time
  // at every shard count — so the demand instance (and the warm re-solve
  // it feeds) is identical no matter how the stream was sharded.
  const StateSnapshot snap = merged_snapshot();
  if (snap.cells.size() < config_.reanchor_min_cells) return;

  // Per-cell expected arrivals: a batch forecast of the next hour when the
  // accumulator holds enough completed hours, else the raw window counts.
  std::vector<data::DemandSite> sites;
  bool used_forecast = false;
  if (config_.forecast_history_hours > 0 && !forecast_hours_.empty()) {
    // Completed hours are strictly before the snapshot clock's bucket; the
    // uniform series length is clamped to what has actually accumulated.
    const auto now_hour = static_cast<std::int64_t>(
        std::floor(static_cast<double>(snap.now) / kSecondsPerHour));
    std::int64_t first_hour = now_hour;
    for (const auto& [key, hours] : forecast_hours_) {
      if (!hours.empty()) {
        first_hour = std::min(first_hour, hours.begin()->first);
      }
    }
    const auto span = static_cast<std::size_t>(
        std::max<std::int64_t>(0, now_hour - first_hour));
    const std::size_t n = std::min(config_.forecast_history_hours, span);
    if (n >= config_.forecast_rnn.lookback + 2) {
      std::vector<ml::Series> series(snap.cells.size());
      for (std::size_t i = 0; i < snap.cells.size(); ++i) {
        const auto it =
            forecast_hours_.find({snap.cells[i].cx, snap.cells[i].cy});
        ml::Series& s = series[i];
        s.assign(n, 0.0);
        if (it != forecast_hours_.end()) {
          for (std::size_t j = 0; j < n; ++j) {
            const auto hour = now_hour - static_cast<std::int64_t>(n - j);
            const auto h = it->second.find(hour);
            if (h != it->second.end()) s[j] = h->second;
          }
        }
      }
      ml::batch::BatchRnn model(config_.forecast_rnn);
      model.fit(series);
      const auto forecasts = model.forecast(series, 1);
      // Cell centroids as candidate locations — a bit-deterministic
      // function of the merged snapshot; predicted-idle cells drop out.
      for (std::size_t i = 0; i < snap.cells.size(); ++i) {
        const double weight = std::max(0.0, forecasts[i][0]);
        if (weight <= 0.0) continue;
        sites.push_back({snap.cells[i].centroid(), weight});
      }
      // A degenerate forecast (everything predicted idle) falls back to the
      // raw counts rather than anchoring on an empty instance.
      used_forecast = sites.size() >= config_.reanchor_min_cells;
    }
  }
  if (!used_forecast) sites = snap.demand_sites();
  system_->reanchor(sites);
  ++reanchors_;
  if (used_forecast) ++forecast_refreshes_;
  if (obs::enabled()) {
    DriverObsMetrics::get().reanchors.add();
    if (used_forecast) DriverObsMetrics::get().forecast_refreshes.add();
  }
}

void OnlinePlacerDriver::run_regime_check(std::size_t shard) {
  ShardKs& ks = shard_ks_[shard];
  if (ks.reference.empty() ||
      states_[shard].window_size() < config_.regime_min_samples) {
    return;
  }
  states_[shard].window_points(ks.window);
  // Always Fasano–Franceschini (limit 0): sharding shrinks windows, and an
  // exact Peacock check below the batch-path limit is the "8-shard cliff"
  // (EXPERIMENTS.md "Stream shard scaling").
  const auto result = stats::ks2d_test(ks.reference, ks.window, ks.scratch, 0);
  ShardRegime& regime = regimes_[shard];
  regime.similarity = result.similarity;
  ++regime.checks;
  if (obs::enabled()) {
    DriverObsMetrics::get().regime_checks.add();
    DriverObsMetrics::get().regime_similarity.set(result.similarity);
    obs::Registry::global().emit(
        "stream.regime_check",
        {{"shard", shard},
         {"similarity", result.similarity},
         {"window", ks.window.size()}});
  }
}

const StreamState& OnlinePlacerDriver::shard_state(std::size_t shard) const {
  if (shard >= states_.size()) {
    throw std::out_of_range("OnlinePlacerDriver::shard_state: shard " +
                            std::to_string(shard) + " of " +
                            std::to_string(states_.size()));
  }
  return states_[shard];
}

const ShardRegime& OnlinePlacerDriver::shard_regime(std::size_t shard) const {
  if (shard >= regimes_.size()) {
    throw std::out_of_range("OnlinePlacerDriver::shard_regime: shard " +
                            std::to_string(shard) + " of " +
                            std::to_string(regimes_.size()));
  }
  return regimes_[shard];
}

StateSnapshot OnlinePlacerDriver::merged_snapshot() const {
  // Snapshot every shard at the global clock so lazily-evicted entries and
  // decay references line up — merged views are then shard-count invariant.
  data::Seconds global_now = 0;
  for (const auto& st : states_) global_now = std::max(global_now, st.now());
  std::vector<StateSnapshot> snaps;
  snaps.reserve(states_.size());
  for (const auto& st : states_) snaps.push_back(st.snapshot(global_now));
  return StreamState::merge(snaps);
}

std::vector<WatchEntry> OnlinePlacerDriver::watchlist() const {
  return merged_snapshot().watchlist;
}

void OnlinePlacerDriver::save(std::ostream& os) const {
  wire::write_u64(os, kDriverMagic);
  wire::write_u64(os, kDriverVersion);
  wire::write_u64(os, states_.size());
  wire::write_u64(os, consumed_);
  wire::write_u64(os, last_seq_);
  wire::write_u64(os, trip_ends_total_);
  wire::write_u64(os, reanchors_);
  wire::write_u64(os, forecast_refreshes_);
  // Forecast accumulator (empty when forecast_history_hours = 0): cell
  // count, then per cell (cx, cy, hour count, per hour bucket + weight).
  wire::write_u64(os, forecast_hours_.size());
  for (const auto& [key, hours] : forecast_hours_) {
    wire::write_i64(os, key.first);
    wire::write_i64(os, key.second);
    wire::write_u64(os, hours.size());
    for (const auto& [hour, weight] : hours) {
      wire::write_i64(os, hour);
      wire::write_f64(os, weight);
    }
  }
  for (const auto& regime : regimes_) {
    wire::write_f64(os, regime.similarity);
    wire::write_u64(os, regime.checks);
    wire::write_u64(os, regime.trip_ends);
  }
  for (const auto& st : states_) st.save(os);
}

void OnlinePlacerDriver::restore_from(std::istream& is) {
  if (wire::read_u64(is) != kDriverMagic) {
    throw std::runtime_error(
        "OnlinePlacerDriver::restore_from: bad magic — not a driver "
        "checkpoint blob");
  }
  const std::uint64_t version = wire::read_u64(is);
  if (version != kDriverVersion) {
    throw std::runtime_error(
        "OnlinePlacerDriver::restore_from: unsupported version " +
        std::to_string(version));
  }
  const std::uint64_t shards = wire::read_u64(is);
  if (shards != states_.size()) {
    throw std::runtime_error(
        "OnlinePlacerDriver::restore_from: checkpoint has " +
        std::to_string(shards) + " shards, this driver has " +
        std::to_string(states_.size()) +
        " — restore with a bus of the same shard count");
  }
  consumed_ = wire::read_u64(is);
  last_seq_ = wire::read_u64(is);
  trip_ends_total_ = wire::read_u64(is);
  reanchors_ = wire::read_u64(is);
  forecast_refreshes_ = wire::read_u64(is);
  forecast_hours_.clear();
  const std::uint64_t forecast_cells = wire::read_u64(is);
  for (std::uint64_t c = 0; c < forecast_cells; ++c) {
    const std::int64_t cx = wire::read_i64(is);
    const std::int64_t cy = wire::read_i64(is);
    auto& hours = forecast_hours_[{cx, cy}];
    const std::uint64_t n_hours = wire::read_u64(is);
    for (std::uint64_t h = 0; h < n_hours; ++h) {
      const std::int64_t hour = wire::read_i64(is);
      hours[hour] = wire::read_f64(is);
    }
  }
  for (auto& regime : regimes_) {
    regime.similarity = wire::read_f64(is);
    regime.checks = wire::read_u64(is);
    regime.trip_ends = wire::read_u64(is);
  }
  for (std::size_t s = 0; s < states_.size(); ++s) {
    states_[s] = StreamState::restore(is, config_.state);
  }
}

// --- IncentiveDriver --------------------------------------------------------

IncentiveDriver::IncentiveDriver(core::IncentiveConfig config)
    : config_(config) {}

void IncentiveDriver::fold_session_totals() {
  if (!session_.has_value()) return;
  paid_closed_ += session_->total_incentives_paid();
  offers_closed_ += session_->offers_made();
  relocations_closed_ += session_->relocations();
}

void IncentiveDriver::open_session(const std::vector<Point>& parkings,
                                   const std::vector<WatchEntry>& watchlist) {
  if (parkings.empty()) {
    throw std::invalid_argument("IncentiveDriver::open_session: no parkings");
  }
  fold_session_totals();
  std::vector<core::EnergyStation> stations;
  stations.reserve(parkings.size());
  for (Point p : parkings) stations.push_back({p, {}});
  geo::SpatialIndex index(parkings);
  std::size_t assigned = 0;
  for (const WatchEntry& w : watchlist) {
    const std::size_t s = index.nearest(w.where);
    if (s == geo::SpatialIndex::npos) continue;
    stations[s].low_bikes.push_back(static_cast<std::size_t>(w.bike_id));
    ++assigned;
  }
  session_.emplace(std::move(stations), config_);
  session_index_ = std::move(index);
  paid_total_ = paid_closed_;
  offers_total_ = offers_closed_;
  relocations_total_ = relocations_closed_;
  if (obs::enabled()) {
    DriverObsMetrics::get().sessions_opened.add();
    DriverObsMetrics::get().watchlist_assigned.add(assigned);
  }
}

core::Offer IncentiveDriver::handle_trip(
    const Event& e, Point assigned,
    const core::IncentiveMechanism::CanRideFn& can_ride) {
  core::Offer offer;
  if (!session_.has_value()) return offer;
  const std::size_t pickup = session_index_.nearest(e.origin);
  if (pickup == geo::SpatialIndex::npos) return offer;
  const core::UserBehavior user{e.user_max_walk_m, e.user_min_reward};
  offer = session_->handle_pickup(pickup, assigned, user, can_ride);
  paid_total_ = paid_closed_ + session_->total_incentives_paid();
  offers_total_ = offers_closed_ + session_->offers_made();
  relocations_total_ = relocations_closed_ + session_->relocations();
  return offer;
}

const core::IncentiveMechanism& IncentiveDriver::session() const {
  if (!session_.has_value()) {
    throw std::logic_error("IncentiveDriver::session: no open session");
  }
  return *session_;
}

core::IncentiveMechanism& IncentiveDriver::session() {
  if (!session_.has_value()) {
    throw std::logic_error("IncentiveDriver::session: no open session");
  }
  return *session_;
}

void IncentiveDriver::save(std::ostream& os) const {
  wire::write_f64(os, paid_closed_);
  wire::write_u64(os, offers_closed_);
  wire::write_u64(os, relocations_closed_);
  wire::write_u8(os, session_.has_value() ? 1 : 0);
  if (session_.has_value()) session_->save(os);
}

void IncentiveDriver::restore_from(std::istream& is) {
  paid_closed_ = wire::read_f64(is);
  offers_closed_ = wire::read_u64(is);
  relocations_closed_ = wire::read_u64(is);
  const bool has_session = wire::read_u8(is) != 0;
  if (has_session) {
    session_ = core::IncentiveMechanism::restore(is, config_);
    std::vector<Point> locations;
    locations.reserve(session_->stations().size());
    for (const auto& s : session_->stations()) locations.push_back(s.location);
    session_index_ = geo::SpatialIndex(locations);
  } else {
    session_.reset();
    session_index_ = geo::SpatialIndex();
  }
  paid_total_ = paid_closed_ +
                (session_.has_value() ? session_->total_incentives_paid() : 0.0);
  offers_total_ =
      offers_closed_ + (session_.has_value() ? session_->offers_made() : 0);
  relocations_total_ =
      relocations_closed_ + (session_.has_value() ? session_->relocations() : 0);
}

}  // namespace esharing::stream
