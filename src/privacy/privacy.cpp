#include "privacy/privacy.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numbers>
#include <stdexcept>

#include "geo/geohash.h"

namespace esharing::privacy {

using geo::Point;

namespace {

constexpr std::uint64_t kSalt = 0x5eed5a17ULL;  ///< pseudonym key
constexpr int kGeohashPrecision = 7;            ///< published cell size

}  // namespace

std::uint64_t pseudonymize(std::uint64_t id, std::uint64_t salt) {
  // Two rounds of splitmix64 keyed by the salt; bijective per salt, so
  // pseudonyms never collide.
  std::uint64_t h = id + 0x9e3779b97f4a7c15ULL * (salt | 1ULL);
  for (int round = 0; round < 2; ++round) {
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
    h += salt;
  }
  return h;
}

double lambert_w_minus1(double x) {
  constexpr double kMinusOneOverE = -0.36787944117144233;
  if (x < kMinusOneOverE - 1e-15 || x >= 0.0) {
    throw std::invalid_argument("lambert_w_minus1: x outside [-1/e, 0)");
  }
  if (x <= kMinusOneOverE) return -1.0;

  // Initial guess (Chapeau-Blondeau & Monir): series near -1/e, log-based
  // guess near 0.
  double w;
  if (x < -0.25) {
    const double p = -std::sqrt(2.0 * (1.0 + std::numbers::e * x));
    w = -1.0 + p - p * p / 3.0 + 11.0 * p * p * p / 72.0;
  } else {
    const double l1 = std::log(-x);
    const double l2 = std::log(-l1);
    w = l1 - l2 + l2 / l1;
  }
  // Halley iterations.
  for (int iter = 0; iter < 60; ++iter) {
    const double ew = std::exp(w);
    const double f = w * ew - x;
    const double denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0);
    const double step = f / denom;
    w -= step;
    if (std::abs(step) < 1e-14 * (1.0 + std::abs(w))) break;
  }
  return w;
}

PlanarLaplace::PlanarLaplace(double epsilon) : epsilon_(epsilon) {
  if (!(epsilon > 0.0)) {
    throw std::invalid_argument("PlanarLaplace: epsilon must be positive");
  }
}

Point PlanarLaplace::obfuscate(Point p, stats::Rng& rng) const {
  const double theta = rng.uniform(0.0, 2.0 * std::numbers::pi);
  // Radius ~ Gamma(2, 1/eps): inverse CDF via W_{-1} (Andres et al. 2013).
  const double u = rng.uniform(0.0, 1.0);
  const double arg = (u - 1.0) / std::numbers::e;
  const double r = -(lambert_w_minus1(arg) + 1.0) / epsilon_;
  return {p.x + r * std::cos(theta), p.y + r * std::sin(theta)};
}

std::size_t min_od_group_size(const geo::Grid& grid,
                              const geo::LocalProjection& proj,
                              const std::vector<data::TripRecord>& trips) {
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> groups;
  for (const auto& t : trips) {
    const Point s = proj.to_local(geo::geohash_decode(t.start_geohash).center);
    const Point e = proj.to_local(geo::geohash_decode(t.end_geohash).center);
    const auto key = std::pair{grid.index_of(grid.clamped_cell_of(s)),
                               grid.index_of(grid.clamped_cell_of(e))};
    ++groups[key];
  }
  std::size_t k = 0;
  for (const auto& [key, n] : groups) {
    if (k == 0 || n < k) k = n;
  }
  return k;
}

std::vector<data::TripRecord> anonymize_trips(
    const std::vector<data::TripRecord>& trips,
    const geo::LocalProjection& proj, const AnonymizeConfig& config,
    stats::Rng& rng) {
  const bool obfuscate = config.epsilon > 0.0;
  const PlanarLaplace mechanism(obfuscate ? config.epsilon : 1.0);

  auto rehash = [&](const std::string& hash) {
    Point p = proj.to_local(geo::geohash_decode(hash).center);
    if (obfuscate) p = mechanism.obfuscate(p, rng);
    geo::LatLon c = proj.to_geo(p);
    c.lat = std::clamp(c.lat, -90.0, 90.0);
    c.lon = std::clamp(c.lon, -180.0, 180.0);
    return geo::geohash_encode(c, kGeohashPrecision);
  };

  std::vector<data::TripRecord> out;
  out.reserve(trips.size());
  for (const auto& t : trips) {
    data::TripRecord a = t;
    a.user_id = static_cast<std::int64_t>(
        pseudonymize(static_cast<std::uint64_t>(t.user_id), kSalt) >> 1);
    a.bike_id = static_cast<std::int64_t>(
        pseudonymize(static_cast<std::uint64_t>(t.bike_id), kSalt ^ 0xb1ce5ULL) >> 1);
    a.start_geohash = rehash(t.start_geohash);
    a.end_geohash = rehash(t.end_geohash);
    out.push_back(std::move(a));
  }
  return out;
}

}  // namespace esharing::privacy
