#include "core/deviation_placer.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "data/wire.h"
#include "obs/registry.h"

namespace esharing::core {

using geo::Point;

namespace {

/// Size of the sliding current-window G the KS test reads.
constexpr std::size_t kWindowCapacity = 500;
/// The KS test waits until the window holds this many destinations.
constexpr std::size_t kKsMinSamples = 30;

struct PlacerMetrics {
  obs::Counter& requests;
  obs::Counter& stations_opened;
  obs::Counter& stations_removed;
  obs::Counter& ks_tests;
  obs::Counter& penalty_switches;
  obs::Counter& cost_doublings;
  obs::Counter& reanchors;
  obs::Gauge& cost_scale;
  obs::Gauge& last_similarity;

  static PlacerMetrics& get() {
    static PlacerMetrics m{
        obs::Registry::global().counter("core.placer.requests"),
        obs::Registry::global().counter("core.placer.stations_opened"),
        obs::Registry::global().counter("core.placer.stations_removed"),
        obs::Registry::global().counter("core.placer.ks_tests"),
        obs::Registry::global().counter("core.placer.penalty_switches"),
        obs::Registry::global().counter("core.placer.cost_doublings"),
        obs::Registry::global().counter("core.placer.reanchors"),
        obs::Registry::global().gauge("core.placer.cost_scale"),
        obs::Registry::global().gauge("core.placer.last_similarity"),
    };
    return m;
  }
};

}  // namespace

DeviationPenaltyPlacer::DeviationPenaltyPlacer(
    std::vector<Point> offline_parkings, std::vector<Point> historical_sample,
    std::function<double(Point)> opening_cost_fn, DeviationPlacerConfig config,
    std::uint64_t seed)
    : config_(config),
      opening_cost_fn_(std::move(opening_cost_fn)),
      rng_(seed),
      k_(offline_parkings.size()),
      penalty_(PenaltyFunction::none()),
      history_(std::move(historical_sample)) {
  if (offline_parkings.empty() ||
      (offline_parkings.size() < 2 && !(config_.w_star_override > 0.0))) {
    throw std::invalid_argument(
        "DeviationPenaltyPlacer: need >= 2 offline landmarks (w* undefined) "
        "or a positive w_star_override");
  }
  if (!(config_.beta >= 1.0)) {
    throw std::invalid_argument("DeviationPenaltyPlacer: beta must be >= 1");
  }
  if (!(config_.tolerance > 0.0)) {
    throw std::invalid_argument("DeviationPenaltyPlacer: tolerance must be positive");
  }
  if (!opening_cost_fn_) {
    throw std::invalid_argument("DeviationPenaltyPlacer: null opening cost fn");
  }
  penalty_ = PenaltyFunction::of(config_.initial_penalty, config_.tolerance);

  // Algorithm 2 line 3: w* = min pairwise landmark distance / 2 (or the
  // caller's override for degenerate landmark sets). Indexed
  // nearest-neighbor queries replace the former O(k^2) pairwise loop.
  double w_star = config_.w_star_override;
  if (!(w_star > 0.0)) {
    w_star = geo::min_pairwise_distance(offline_parkings) / 2.0;
  }
  // Line 4: w*/k seeds the effective opening cost (see the header note);
  // subsequent doublings multiply this scale. Per-location base costs act
  // relatively through reference_f_.
  reference_f_ = 0.0;
  for (Point p : offline_parkings) reference_f_ += opening_cost_fn_(p);
  reference_f_ /= static_cast<double>(offline_parkings.size());
  if (!(reference_f_ > 0.0)) reference_f_ = 1.0;
  if (config_.initial_scale_override > 0.0) {
    scale_ = config_.initial_scale_override;
  } else {
    // gamma * w*/k, floored at the mean landmark opening cost: dense
    // landmark sets make w*/k arbitrarily small, and an opening scale far
    // below the real space cost lets long request streams over-build
    // before the beta*k doubling can catch up.
    scale_ = std::max({config_.initial_scale_multiplier * w_star /
                           static_cast<double>(k_),
                       reference_f_, std::numeric_limits<double>::min()});
  }

  stations_.reserve(offline_parkings.size());
  for (Point p : offline_parkings) {
    stations_.push_back({p, /*online_opened=*/false, /*active=*/true});
    station_index_.insert(p);
  }
  landmark_index_ = geo::SpatialIndex(offline_parkings);
  landmarks_ = std::move(offline_parkings);
}

double DeviationPenaltyPlacer::deviation(Point p) const {
  return geo::distance(landmarks_[landmark_index_.nearest(p)], p);
}

std::size_t DeviationPenaltyPlacer::nearest_active(Point p) const {
  const std::size_t i = station_index_.nearest(p);
  return i == geo::SpatialIndex::npos ? stations_.size() : i;
}

solver::OnlineDecision DeviationPenaltyPlacer::process(Point dest,
                                                       double weight) {
  if (!(weight >= 0.0)) {
    throw std::invalid_argument("DeviationPenaltyPlacer::process: negative weight");
  }
  ++requests_seen_;
  if (obs::enabled()) PlacerMetrics::get().requests.add();
  window_.push_back(dest);
  while (window_.size() > kWindowCapacity) window_.pop_front();

  solver::OnlineDecision decision;
  const std::size_t nearest = nearest_active(dest);
  if (nearest == stations_.size()) {
    // All stations were removed; re-establish one here unconditionally.
    stations_.push_back({dest, true, true});
    station_index_.insert(dest);
    decision.opened = true;
    decision.facility = stations_.size() - 1;
    if (obs::enabled()) PlacerMetrics::get().stations_opened.add();
    return decision;
  }

  const double c = weight * geo::distance(stations_[nearest].location, dest);
  const double f = opening_cost_fn_(dest) / reference_f_ * scale_;
  const double prob = std::min(penalty_(deviation(dest)) * c / f, 1.0);
  if (rng_.bernoulli(prob)) {
    stations_.push_back({dest, true, true});
    station_index_.insert(dest);
    decision.opened = true;
    decision.facility = stations_.size() - 1;
    if (obs::enabled()) PlacerMetrics::get().stations_opened.add();
    // Algorithm 2 lines 6-8: count openings; double f every beta*k opens.
    if (static_cast<double>(++opens_since_double_) >=
        config_.beta * static_cast<double>(k_)) {
      opens_since_double_ = 0;
      scale_ *= 2.0;
      if (obs::enabled()) {
        PlacerMetrics::get().cost_doublings.add();
        PlacerMetrics::get().cost_scale.set(scale_);
        obs::Registry::global().emit(
            "placer.cost_doubling",
            {{"scale", scale_}, {"requests", requests_seen_}});
      }
      maybe_run_ks_test();  // lines 9-10 sit inside the doubling branch
    }
  } else {
    decision.facility = nearest;
    decision.connection_cost = c;
    connection_cost_ += c;
  }

  if (config_.ks_period > 0 && requests_seen_ % config_.ks_period == 0) {
    maybe_run_ks_test();
  }
  return decision;
}

void DeviationPenaltyPlacer::maybe_run_ks_test() {
  if (history_.empty() || window_.size() < kKsMinSamples) return;
  // Built on the first check, so a placer that never checks (or a restored
  // one until it does) does not sort its history.
  if (history_ref_.empty()) history_ref_ = stats::Ks2dReference(history_);
  ks_window_.assign(window_.begin(), window_.end());
  const auto result = stats::ks2d_test(history_ref_, ks_window_, ks_scratch_);
  last_similarity_ = result.similarity;
  if (obs::enabled()) {
    PlacerMetrics::get().ks_tests.add();
    PlacerMetrics::get().last_similarity.set(result.similarity);
  }
  if (config_.adaptive_type) {
    const PenaltyType wanted = penalty_type_for_similarity(result.similarity);
    if (wanted != penalty_.type()) {
      if (obs::enabled()) {
        PlacerMetrics::get().penalty_switches.add();
        obs::Registry::global().emit(
            "placer.penalty_switch",
            {{"similarity", result.similarity},
             {"from", penalty_type_name(penalty_.type())},
             {"to", penalty_type_name(wanted)}});
      }
      penalty_ = PenaltyFunction::of(wanted, config_.tolerance);
    }
  }
}

namespace {
namespace wire = data::wire;
// Placer checkpoint blob: magic + layout version. Bump the version on any
// field change; restore() rejects unknown versions instead of misreading.
constexpr std::uint64_t kPlacerMagic = 0x45504c4143455231ULL;  // "EPLACER1"
// v2: the landmark set is serialized explicitly (+ the reanchor counter).
// v1 recovered it as "the first k stations", which reanchor() breaks — a
// re-anchored landmark can be any station, or share a location with a
// removed one.
constexpr std::uint64_t kPlacerVersion = 2;
}  // namespace

void DeviationPenaltyPlacer::save(std::ostream& os) const {
  wire::write_u64(os, kPlacerMagic);
  wire::write_u64(os, kPlacerVersion);
  // Config scalars that must match on restore (behavioral fingerprint).
  wire::write_f64(os, config_.beta);
  wire::write_f64(os, config_.tolerance);
  wire::write_u64(os, config_.ks_period);
  static_assert(kWindowCapacity == 500,
                "the blob's window-capacity field is the literal 500");
  wire::write_u64(os, 500);

  wire::write_u64(os, k_);
  for (Point p : landmarks_) {
    wire::write_f64(os, p.x);
    wire::write_f64(os, p.y);
  }
  wire::write_u64(os, stations_.size());
  for (const Station& s : stations_) {
    wire::write_f64(os, s.location.x);
    wire::write_f64(os, s.location.y);
    wire::write_u8(os, s.online_opened ? 1 : 0);
    wire::write_u8(os, s.active ? 1 : 0);
  }
  wire::write_f64(os, reference_f_);
  wire::write_f64(os, scale_);
  wire::write_u64(os, opens_since_double_);
  wire::write_u8(os, static_cast<std::uint8_t>(penalty_.type()));
  wire::write_u64(os, history_.size());
  for (Point p : history_) {
    wire::write_f64(os, p.x);
    wire::write_f64(os, p.y);
  }
  wire::write_u64(os, window_.size());
  for (Point p : window_) {
    wire::write_f64(os, p.x);
    wire::write_f64(os, p.y);
  }
  wire::write_f64(os, connection_cost_);
  wire::write_f64(os, last_similarity_);
  wire::write_u64(os, requests_seen_);
  wire::write_u64(os, reanchors_);
  // mt19937_64 state round-trips exactly through its text representation.
  std::ostringstream engine_text;
  engine_text << rng_.engine();
  wire::write_string(os, engine_text.str());
}

DeviationPenaltyPlacer DeviationPenaltyPlacer::restore(
    std::istream& is, std::function<double(geo::Point)> opening_cost_fn,
    DeviationPlacerConfig config) {
  constexpr std::uint64_t kSaneMax = 1ULL << 32;
  if (wire::read_u64(is) != kPlacerMagic) {
    throw std::runtime_error(
        "DeviationPenaltyPlacer::restore: bad magic — not a placer "
        "checkpoint blob");
  }
  const std::uint64_t version = wire::read_u64(is);
  if (version != kPlacerVersion) {
    throw std::runtime_error(
        "DeviationPenaltyPlacer::restore: unsupported checkpoint version " +
        std::to_string(version) + " (this build reads " +
        std::to_string(kPlacerVersion) + ")");
  }
  const double beta = wire::read_f64(is);
  const double tolerance = wire::read_f64(is);
  const std::uint64_t ks_period = wire::read_u64(is);
  const std::uint64_t window_capacity = wire::read_u64(is);
  if (beta != config.beta || tolerance != config.tolerance ||
      ks_period != config.ks_period ||
      window_capacity != kWindowCapacity) {
    throw std::runtime_error(
        "DeviationPenaltyPlacer::restore: config mismatch — the checkpoint "
        "was written with beta/tolerance/ks_period/window_capacity = " +
        std::to_string(beta) + "/" + std::to_string(tolerance) + "/" +
        std::to_string(ks_period) + "/" + std::to_string(window_capacity));
  }

  const std::uint64_t k = wire::read_count(is, kSaneMax);
  if (k == 0) {
    throw std::runtime_error(
        "DeviationPenaltyPlacer::restore: corrupt landmark count 0");
  }
  // v2 carries the landmark set explicitly — after a reanchor() the
  // landmarks are not "the first k stations" any more.
  std::vector<Point> landmarks;
  landmarks.reserve(k);
  for (std::uint64_t i = 0; i < k; ++i) {
    Point p;
    p.x = wire::read_f64(is);
    p.y = wire::read_f64(is);
    landmarks.push_back(p);
  }
  const std::uint64_t n_stations = wire::read_count(is, kSaneMax);
  std::vector<Station> stations;
  stations.reserve(n_stations);
  for (std::uint64_t i = 0; i < n_stations; ++i) {
    Station s;
    s.location.x = wire::read_f64(is);
    s.location.y = wire::read_f64(is);
    s.online_opened = wire::read_u8(is) != 0;
    s.active = wire::read_u8(is) != 0;
    stations.push_back(s);
  }

  // Rebuild through the normal constructor (validation + landmark index),
  // then overwrite the mutable state.
  DeviationPenaltyPlacer placer(landmarks, {}, std::move(opening_cost_fn),
                                config, /*seed=*/0);

  placer.stations_.clear();
  placer.station_index_ = geo::SpatialIndex();
  for (const Station& s : stations) {
    placer.stations_.push_back(s);
    placer.station_index_.insert(s.location);
  }
  // Deactivations replay after all inserts; the spatial-index contract
  // (results depend only on the insert/deactivate history's outcome, ids
  // are insertion order) makes queries identical to the original instance.
  for (std::size_t i = 0; i < placer.stations_.size(); ++i) {
    if (!placer.stations_[i].active) placer.station_index_.deactivate(i);
  }

  placer.reference_f_ = wire::read_f64(is);
  placer.scale_ = wire::read_f64(is);
  placer.opens_since_double_ = wire::read_u64(is);
  const std::uint8_t penalty_raw = wire::read_u8(is);
  if (penalty_raw > static_cast<std::uint8_t>(PenaltyType::kTypeIII)) {
    throw std::runtime_error(
        "DeviationPenaltyPlacer::restore: corrupt penalty type " +
        std::to_string(penalty_raw));
  }
  placer.penalty_ =
      PenaltyFunction::of(static_cast<PenaltyType>(penalty_raw),
                          config.tolerance);
  const std::uint64_t n_history = wire::read_count(is, kSaneMax);
  placer.history_.clear();
  placer.history_.reserve(n_history);
  for (std::uint64_t i = 0; i < n_history; ++i) {
    Point p;
    p.x = wire::read_f64(is);
    p.y = wire::read_f64(is);
    placer.history_.push_back(p);
  }
  const std::uint64_t n_window = wire::read_count(is, kSaneMax);
  placer.window_.clear();
  for (std::uint64_t i = 0; i < n_window; ++i) {
    Point p;
    p.x = wire::read_f64(is);
    p.y = wire::read_f64(is);
    placer.window_.push_back(p);
  }
  placer.connection_cost_ = wire::read_f64(is);
  placer.last_similarity_ = wire::read_f64(is);
  placer.requests_seen_ = wire::read_u64(is);
  placer.reanchors_ = wire::read_u64(is);
  std::istringstream engine_text(wire::read_string(is));
  engine_text >> placer.rng_.engine();
  if (engine_text.fail()) {
    throw std::runtime_error(
        "DeviationPenaltyPlacer::restore: corrupt RNG engine state");
  }
  return placer;
}

void DeviationPenaltyPlacer::reanchor(const std::vector<Point>& new_landmarks) {
  // Unlike construction, no >= 2 restriction: w* only seeds the initial
  // opening scale, and the scale carries over a re-anchor — a warm
  // re-solve that collapses to a single landmark is a valid plan.
  if (new_landmarks.empty()) {
    throw std::invalid_argument(
        "DeviationPenaltyPlacer::reanchor: empty landmark set");
  }
  // Establish stations for landmarks the network does not serve yet
  // (exact-location match against active stations; station count stays
  // small, so the quadratic scan is cheap next to the re-solve that
  // produced the landmarks).
  for (Point p : new_landmarks) {
    bool present = false;
    for (const Station& s : stations_) {
      if (s.active && s.location.x == p.x && s.location.y == p.y) {
        present = true;
        break;
      }
    }
    if (!present) {
      stations_.push_back({p, /*online_opened=*/false, /*active=*/true});
      station_index_.insert(p);
      if (obs::enabled()) PlacerMetrics::get().stations_opened.add();
    }
  }
  landmark_index_ = geo::SpatialIndex(new_landmarks);
  landmarks_ = new_landmarks;
  k_ = landmarks_.size();
  // Landmark-derived base cost follows the new set; the adapted opening
  // scale and the doubling counter deliberately carry over (see header).
  reference_f_ = 0.0;
  for (Point p : landmarks_) reference_f_ += opening_cost_fn_(p);
  reference_f_ /= static_cast<double>(k_);
  if (!(reference_f_ > 0.0)) reference_f_ = 1.0;
  ++reanchors_;
  if (obs::enabled()) PlacerMetrics::get().reanchors.add();
}

void DeviationPenaltyPlacer::remove_station(std::size_t index) {
  if (index >= stations_.size()) {
    throw std::out_of_range("DeviationPenaltyPlacer::remove_station");
  }
  if (!stations_[index].active) return;
  if (num_active() == 1) {
    throw std::logic_error(
        "DeviationPenaltyPlacer::remove_station: cannot remove last station");
  }
  stations_[index].active = false;
  station_index_.deactivate(index);
  if (obs::enabled()) PlacerMetrics::get().stations_removed.add();
}

std::size_t DeviationPenaltyPlacer::num_active() const {
  return static_cast<std::size_t>(
      std::count_if(stations_.begin(), stations_.end(),
                    [](const Station& s) { return s.active; }));
}

std::size_t DeviationPenaltyPlacer::num_online_opened() const {
  return static_cast<std::size_t>(
      std::count_if(stations_.begin(), stations_.end(), [](const Station& s) {
        return s.active && s.online_opened;
      }));
}

std::vector<Point> DeviationPenaltyPlacer::active_locations() const {
  std::vector<Point> out;
  out.reserve(stations_.size());
  for (const Station& s : stations_) {
    if (s.active) out.push_back(s.location);
  }
  return out;
}

double DeviationPenaltyPlacer::total_opening_cost() const {
  double sum = 0.0;
  for (const Station& s : stations_) {
    if (s.active) sum += opening_cost_fn_(s.location);
  }
  return sum;
}

}  // namespace esharing::core
