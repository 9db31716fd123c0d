#pragma once

/// \file synthetic_city.h
/// Synthetic replacement for the Mobike public dataset (see DESIGN.md,
/// "Substitutions"). The paper evaluates on 3.2M Beijing trips from
/// 2017-05-10 to 2017-05-24, geohashed, binned into 100x100 m grids.
/// This generator produces trips with the same schema and the statistical
/// structure the algorithms depend on:
///
///  * demand anchored at POIs (subway / office / residential / recreation /
///    university), giving spatial clusters for parking placement;
///  * distinct weekday and weekend diurnal profiles and category mixes,
///    which create the weekday-vs-weekend KS-similarity block structure of
///    Table IV and the forecastable daily periodicity of Table II / Fig. 8;
///  * per-bike continuity (a trip starts where the bike last ended), which
///    lets the energy model trace residual battery per bike id, replacing
///    the paper's XQBike app crawl.

#include <array>
#include <cstdint>
#include <vector>

#include "data/trip.h"
#include "geo/grid.h"
#include "geo/latlon.h"
#include "geo/point.h"
#include "stats/rng.h"

namespace esharing::data {

enum class PoiCategory { kSubway = 0, kOffice, kResidential, kRecreation,
                         kUniversity };
inline constexpr int kNumPoiCategories = 5;

[[nodiscard]] const char* poi_category_name(PoiCategory c);

/// A point of interest anchoring demand.
struct Poi {
  PoiCategory category{PoiCategory::kSubway};
  geo::Point location;     ///< local meters
  double sigma{120.0};     ///< spatial spread of arrivals around the POI
  double popularity{1.0};  ///< base attraction weight
};

/// Generator configuration. Defaults mirror the paper's experimental field:
/// a 3x3 km^2 area, 15 days (2017-05-10..24), 100 m grid granularity.
// analyze-ok: knob-reach synthetic-data fixture: the generated city
struct CityConfig {
  double field_size_m{3000.0};
  geo::LatLon sw_corner{39.86, 116.38};  ///< anchor in Beijing
  int num_days{15};
  std::size_t trips_per_weekday{2000};
  std::size_t trips_per_weekend_day{1600};
  std::size_t num_bikes{600};
  std::size_t num_users{3000};
  std::size_t pois_per_category{4};
  int geohash_precision{7};
  double max_trip_m{4800.0};  ///< ~3 miles; average rides stay below this
  double grid_cell_m{100.0};
};

/// Diurnal demand weight of each hour (not normalized).
[[nodiscard]] const std::array<double, 24>& weekday_profile();
[[nodiscard]] const std::array<double, 24>& weekend_profile();

/// Attraction weight of a POI category at a given hour/day type. Encodes
/// commuting structure: offices and subways peak on weekday rush hours,
/// residential in the evening, recreation on weekends.
[[nodiscard]] double category_weight(PoiCategory c, bool weekend, int hour);

/// Deterministic synthetic city.
class SyntheticCity {
 public:
  SyntheticCity(CityConfig config, std::uint64_t seed);

  [[nodiscard]] const CityConfig& config() const { return config_; }
  [[nodiscard]] const std::vector<Poi>& pois() const { return pois_; }
  [[nodiscard]] const geo::LocalProjection& projection() const { return proj_; }
  [[nodiscard]] geo::BoundingBox field() const {
    return {{0.0, 0.0}, {config_.field_size_m, config_.field_size_m}};
  }
  /// The paper's 100x100 m analysis grid over the field.
  [[nodiscard]] geo::Grid grid() const {
    return geo::Grid(field(), config_.grid_cell_m);
  }

  /// Generate all trips over config().num_days, sorted by start time.
  /// Repeated calls continue the same city (bikes keep their positions and
  /// order ids keep increasing), each call covering the next num_days.
  [[nodiscard]] std::vector<TripRecord> generate_trips();

  /// Extra trips clustered at an unusual location — models the paper's
  /// "concert / sports game" demand surge that breaks the historical
  /// distribution (Section III-C).
  [[nodiscard]] std::vector<TripRecord> generate_event_burst(
      Seconds start, Seconds duration, geo::Point center, double sigma,
      std::size_t n_trips);

  /// Decode a record's geohashed locations into the local frame.
  [[nodiscard]] geo::Point start_point(const TripRecord& trip) const;
  [[nodiscard]] geo::Point end_point(const TripRecord& trip) const;

 private:
  [[nodiscard]] geo::Point sample_destination(bool weekend, int hour);
  [[nodiscard]] geo::Point clamp_to_field(geo::Point p) const;
  [[nodiscard]] std::string hash_of(geo::Point p) const;
  [[nodiscard]] TripRecord make_trip(Seconds when, geo::Point dest_hint);

  CityConfig config_;
  stats::Rng rng_;
  geo::LocalProjection proj_;
  std::vector<Poi> pois_;
  std::vector<geo::Point> bike_pos_;   ///< current location per bike id
  std::int64_t next_order_id_{1};
  std::int64_t next_day_{0};           ///< first day of the next generate_trips()
};

}  // namespace esharing::data
