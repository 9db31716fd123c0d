#pragma once

/// \file deviation_placer.h
/// The paper's online Parking Placement Algorithm with Deviation Penalty
/// (Algorithm 2). It guides irrevocable online decisions with two artifacts
/// of the offline (JMS) solution computed on historical/predicted data: the
/// parking count k = |P| and the location set P used as landmarks.
///
/// Per streaming request u with destination point i:
///   * c_ij = weighted walking cost to the closest established parking j
///     (offline landmark or online-opened station);
///   * a new parking opens at i with probability
///     min(g(dev(i)) * c_ij / f, 1), where f is the current (scaled)
///     opening cost and the penalty g is evaluated on dev(i), the distance
///     from i to the nearest OFFLINE landmark — "using their locations as
///     landmarks ensures established parking does not deviate too much
///     from the historical patterns". Keying g to the immutable landmark
///     set (rather than to whatever opened most recently) is what makes the
///     three penalty shapes behave as Fig. 5/Table III describe: Type II
///     confines new parkings to within L of the prediction, Type III
///     tolerates a mid-range band, Type I keeps a long tail. The landmark
///     set only ever changes wholesale, when reanchor() installs a freshly
///     re-optimized plan;
///   * the effective opening cost starts small and doubles every time
///     beta*k parkings have been opened since the last doubling, so late
///     over-building becomes prohibitive. Following the online k-means
///     seeding the algorithm borrows from (f_1 = w*/k), Algorithm 2's
///     "f_i <- f_i * w*/k" is read as: w*/k (with w* = half the minimum
///     pairwise landmark distance) sets the absolute starting scale in
///     meters, and the per-location base cost f_i only modulates it
///     relatively, f_eff(p) = (f(p) / mean landmark f) * scale. A literal
///     meter-times-meter product would make opening probabilities g*c/f
///     vanish for realistic f (~10 km), freezing the online adaptivity the
///     paper demonstrates;
///   * periodically (and at every doubling), a Peacock 2-D KS test compares
///     the current destination window (the last 500 destinations; the test
///     waits until it holds 30) against the historical sample and
///     switches the penalty type (very similar -> Type II, similar ->
///     Type III, less similar -> Type I, Section V-C).
///
/// Footnote 2's dynamics are supported: a station whose bikes are all
/// picked up can be removed and later re-established by demand.

#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <vector>

#include "core/penalty.h"
#include "geo/point.h"
#include "geo/spatial_index.h"
#include "solver/meyerson.h"
#include "stats/ks2d.h"
#include "stats/rng.h"

namespace esharing::core {

struct DeviationPlacerConfig {
  double beta{1.0};          ///< doubling ratio (>= 1); f doubles per beta*k openings
  double tolerance{200.0};   ///< penalty tolerance L in meters (paper: 200 m)
  PenaltyType initial_penalty{PenaltyType::kTypeII};  ///< Algorithm 2 line 4
  std::size_t ks_period{200};     ///< run the KS test every this many requests (0 = only at doublings)
  bool adaptive_type{true};   ///< switch penalty type from KS similarity
  /// When positive, use this w* instead of computing half the minimum
  /// pairwise landmark distance. Required to run with a single landmark
  /// (e.g. the Table III setup, one offline parking at the origin).
  double w_star_override{0.0};
  /// Multiplier gamma on the initial opening scale, scale_0 = gamma * w*/k.
  /// Controls how eagerly the online phase opens before the doubling
  /// schedule takes over: ~1 reproduces online k-means' aggressive seeding,
  /// larger values keep the station count near the offline k (the paper's
  /// reported behaviour, ~1.5x the offline count).
  double initial_scale_multiplier{20.0};
  /// When positive, start the opening scale at this absolute value (meters
  /// of walking-equivalent) instead of gamma * w*/k. Long request streams
  /// need a scale comparable to the real opening cost f (as Meyerson uses)
  /// or the beta*k doubling schedule cannot keep the station count near
  /// the offline k; see bench/plp_compare.cpp.
  double initial_scale_override{0.0};
};

/// One established parking location.
struct Station {
  geo::Point location;
  bool online_opened{false};  ///< false for offline landmarks
  bool active{true};          ///< false once removed (footnote 2)
};

class DeviationPenaltyPlacer {
 public:
  /// \param offline_parkings landmark set P from the offline algorithm
  /// \param historical_sample destination sample H(x, y) the offline
  ///        solution was computed from (KS-test reference)
  /// \param opening_cost_fn base space-occupation cost f_i at any location
  /// \throws std::invalid_argument if offline_parkings has < 2 stations,
  ///         beta < 1, or tolerance <= 0.
  DeviationPenaltyPlacer(std::vector<geo::Point> offline_parkings,
                         std::vector<geo::Point> historical_sample,
                         std::function<double(geo::Point)> opening_cost_fn,
                         DeviationPlacerConfig config, std::uint64_t seed);

  /// Process one streaming request with destination `dest` and arrival
  /// weight `weight` (expected arrivals represented by this request).
  solver::OnlineDecision process(geo::Point dest, double weight = 1.0);

  /// Remove a station whose bikes were all picked up (footnote 2). Online
  /// decisions may re-establish a parking there later.
  /// \throws std::out_of_range for invalid indices,
  ///         std::logic_error when removing the last active station.
  void remove_station(std::size_t index);

  /// Replace the offline landmark set P with a re-optimized one (the
  /// hourly re-anchor cadence of the incremental re-optimization engine;
  /// see solver::ReoptimizationSession). Deviation penalties and the KS
  /// regime machinery key to the NEW landmarks from the next request on;
  /// new landmark locations that are not yet active stations are
  /// established (online_opened = false), while existing stations persist
  /// — a physical parking does not vanish because the plan moved. The
  /// adapted opening scale and doubling counter carry over: resetting them
  /// would replay the aggressive early-opening phase after every
  /// re-anchor.
  /// A single landmark is allowed (unlike construction): w* only seeds the
  /// initial scale, which a re-anchor carries over.
  /// \throws std::invalid_argument on an empty landmark set.
  void reanchor(const std::vector<geo::Point>& new_landmarks);

  [[nodiscard]] std::uint64_t reanchors() const { return reanchors_; }

  // --- observers ---------------------------------------------------------
  [[nodiscard]] const std::vector<Station>& stations() const { return stations_; }
  /// Index of the active station nearest to `p` (ties: smallest index), or
  /// stations().size() when none is active. Indexed query, O(1) expected.
  [[nodiscard]] std::size_t nearest_active(geo::Point p) const;
  [[nodiscard]] std::size_t num_active() const;
  [[nodiscard]] std::size_t num_online_opened() const;
  /// Active station locations (order matches stations() filtering).
  [[nodiscard]] std::vector<geo::Point> active_locations() const;

  [[nodiscard]] double total_connection_cost() const { return connection_cost_; }
  /// Space occupation: sum of base opening costs of active stations.
  [[nodiscard]] double total_opening_cost() const;
  [[nodiscard]] double total_cost() const {
    return total_connection_cost() + total_opening_cost();
  }

  // --- checkpointing ------------------------------------------------------
  /// Serialize the full mutable state — stations, sliding window, KS
  /// history, opening scale, penalty regime, counters and the RNG engine —
  /// as versioned little-endian binary (see DESIGN.md, "Stream
  /// checkpoints"). A placer restored from this blob continues the request
  /// stream bit-identically to the original instance.
  void save(std::ostream& os) const;

  /// Rebuild a placer from a save() blob. `opening_cost_fn` and `config`
  /// are not serialized (closures cannot be) and must semantically match
  /// the ones the saved placer ran with; a few serialized config scalars
  /// are cross-checked to catch mismatches early.
  /// \throws std::runtime_error on truncated/corrupt input or a version or
  ///         config mismatch.
  [[nodiscard]] static DeviationPenaltyPlacer restore(
      std::istream& is, std::function<double(geo::Point)> opening_cost_fn,
      DeviationPlacerConfig config);

  [[nodiscard]] PenaltyType penalty_type() const { return penalty_.type(); }
  /// Current opening-cost scale (starts at w*/k, doubles per beta*k opens).
  [[nodiscard]] double cost_scale() const { return scale_; }
  [[nodiscard]] double last_similarity() const { return last_similarity_; }
  [[nodiscard]] std::size_t requests_seen() const { return requests_seen_; }

 private:
  void maybe_run_ks_test();
  /// Deviation of a destination from the offline prediction: distance to
  /// the nearest landmark.
  [[nodiscard]] double deviation(geo::Point p) const;

  DeviationPlacerConfig config_;
  std::function<double(geo::Point)> opening_cost_fn_;
  stats::Rng rng_;
  std::vector<Station> stations_;
  /// Bucketed mirror of stations_ (same ids; deactivated on removal).
  geo::SpatialIndex station_index_;
  std::vector<geo::Point> landmarks_;  ///< offline set P (replaced by reanchor)
  geo::SpatialIndex landmark_index_;   ///< bucketed mirror of landmarks_
  std::size_t k_;              ///< offline parking count |P|
  double reference_f_;         ///< mean base opening cost over landmarks
  double scale_;               ///< current opening scale (starts at w*/k)
  std::size_t opens_since_double_{0};  ///< the algorithm's counter a
  PenaltyFunction penalty_;
  std::vector<geo::Point> history_;    ///< H(x, y)
  stats::Ks2dReference history_ref_;   ///< history_ for the KS test (lazy)
  std::deque<geo::Point> window_;      ///< current sample G
  /// KS-test buffers reused across checks: window_ copied contiguous and
  /// the test's scratch.
  std::vector<geo::Point> ks_window_;
  stats::Ks2dScratch ks_scratch_;
  double connection_cost_{0.0};
  double last_similarity_{100.0};
  std::size_t requests_seen_{0};
  std::uint64_t reanchors_{0};
};

}  // namespace esharing::core
