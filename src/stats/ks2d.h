#pragma once

/// \file ks2d.h
/// Two-dimensional two-sample Kolmogorov–Smirnov testing.
///
/// E-Sharing periodically compares the current stream of trip destinations
/// against the historical distribution the offline solution was computed
/// from (Algorithm 2, step 9). The paper adopts Peacock's 2-D KS test
/// [Peacock 1983]: the statistic is
///
///     D = sup_{x,y} |H(x,y) - G(x,y)|
///
/// where the supremum ranges over all four quadrant orientations
/// (x<X, y<Y), (x<X, y>Y), (x>X, y<Y), (x>X, y>Y) at every candidate origin.
/// Peacock's exact formulation evaluates origins at all pairings of sample
/// x- and y-coordinates (O(N^2) origins; the paper quotes O(N^3), and the
/// sweep below does it in O(N^2 log N)). The Fasano–Franceschini variant
/// restricts origins to the sample points themselves and is the standard
/// practical approximation. Its quadrant counts at every origin come from
/// one x-ordered sweep with a Fenwick tree over y-ranks per sample, so a
/// statistic costs O((n+m) log(n+m)).
///
/// Periodic checks against one fixed historical sample build a
/// Ks2dReference once (its x order, y ranks and Pearson r) and hand each
/// check a Ks2dScratch whose buffers are reused, so a steady-state check
/// sorts only the window and allocates nothing.

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "geo/point.h"

namespace esharing::stats {

/// Result of a two-sample 2-D KS comparison.
struct Ks2dResult {
  double d{0.0};            ///< the KS statistic in [0, 1]
  double p_value{1.0};      ///< approximate significance (Numerical-Recipes style)
  double similarity{100.0}; ///< the paper's similarity measure 100*(1-D) %
};

namespace detail {

/// One sample laid out for the Fasano–Franceschini sweep.
struct SweepSample {
  std::vector<geo::Point> by_x;   ///< the points sorted by x
  std::vector<std::size_t> y_pos; ///< by_x[i]'s position in y order
  std::vector<double> y_sorted;   ///< the y values, ascending
  std::vector<std::size_t> y_le;  ///< per y position: #values <= that y

  /// Lay out `pts`; `order` is a reusable (y, index) sort buffer.
  void assign(std::span<const geo::Point> pts,
              std::vector<std::pair<double, std::size_t>>& order);
};

/// The buffers one sweep reuses: the window's layout and its sort buffer,
/// the cross-sample ranks and both Fenwick trees.
struct SweepBuffers {
  SweepSample window;
  std::vector<std::pair<double, std::size_t>> order;
  /// Per y position of one sample: how many of the other's y are <= it.
  std::vector<std::size_t> ref_cross;
  std::vector<std::size_t> window_cross;
  std::vector<std::size_t> ref_tree;
  std::vector<std::size_t> window_tree;
};

}  // namespace detail

/// A reference sample prepared once for many Fasano–Franceschini checks:
/// the points sorted by x, their y ranks and the sample's Pearson r (taken
/// in the order given, as ks2d_test on the raw sample would).
class Ks2dReference {
 public:
  Ks2dReference() = default;
  explicit Ks2dReference(std::span<const geo::Point> sample);

  [[nodiscard]] bool empty() const { return sample_.by_x.empty(); }
  [[nodiscard]] std::size_t size() const { return sample_.by_x.size(); }
  /// The sample sorted by x, with its y positions and sorted y values.
  [[nodiscard]] const detail::SweepSample& layout() const { return sample_; }
  /// Pearson correlation of x and y (0 below two points).
  [[nodiscard]] double pearson_r() const { return r_; }

 private:
  detail::SweepSample sample_;
  double r_{0.0};
};

/// Buffers one caller reuses across checks against a Ks2dReference: the
/// window's sorts and ranks, the cross-sample ranks, both Fenwick trees
/// and the coordinates the p-value's Pearson r reads.
/// They only grow, so checks no larger than an earlier one allocate
/// nothing. Not shareable between concurrent checks.
class Ks2dScratch {
 private:
  friend Ks2dResult ks2d_test(const Ks2dReference&,
                              std::span<const geo::Point>, Ks2dScratch&,
                              std::size_t);
  detail::SweepBuffers sweep_;
  std::vector<double> x_, y_;  ///< the window's coordinates, for Pearson r
};

/// Peacock's exact statistic: origins at all (x_i, y_j) pairings of the
/// combined sample. O((n+m)^2 log(n+m)). Prefer for n+m up to a few
/// hundred.
/// \throws std::invalid_argument if either sample is empty.
[[nodiscard]] double peacock_statistic(std::span<const geo::Point> a,
                                       std::span<const geo::Point> b);

/// Fasano–Franceschini statistic: origins at the data points only, averaged
/// over the two samples. O((n+m) log(n+m)) by sweep. Close to Peacock's D
/// in practice (tested against it in tests/test_stats_ks2d.cpp).
/// \throws std::invalid_argument if either sample is empty.
[[nodiscard]] double fasano_franceschini_statistic(
    std::span<const geo::Point> a, std::span<const geo::Point> b);

/// Full test: statistic (Peacock when n+m <= peacock_limit, otherwise
/// Fasano–Franceschini), the paper's similarity percentage, and an
/// approximate p-value following Press et al. (correlation-corrected 1-D
/// KS tail with effective sample size n*m/(n+m)).
/// \throws std::invalid_argument if either sample is empty.
[[nodiscard]] Ks2dResult ks2d_test(std::span<const geo::Point> a,
                                   std::span<const geo::Point> b,
                                   std::size_t peacock_limit = 400);

/// The full test against a prepared reference; bit-identical to
/// ks2d_test(reference sample, window, peacock_limit). The
/// Fasano–Franceschini path allocates nothing once `scratch` has grown.
/// \throws std::invalid_argument if the reference or the window is empty.
[[nodiscard]] Ks2dResult ks2d_test(const Ks2dReference& reference,
                                   std::span<const geo::Point> window,
                                   Ks2dScratch& scratch,
                                   std::size_t peacock_limit = 400);

/// The paper's similarity measure for Table IV: 100*(1 - D) percent.
[[nodiscard]] constexpr double ks_similarity_percent(double d) {
  return 100.0 * (1.0 - d);
}

/// Tail probability Q_KS(lambda) of the KS distribution,
/// Q = 2 * sum_{j>=1} (-1)^{j-1} exp(-2 j^2 lambda^2).
[[nodiscard]] double ks_tail_probability(double lambda);

}  // namespace esharing::stats
