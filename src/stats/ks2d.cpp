#include "stats/ks2d.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>

#include "stats/summary.h"

namespace esharing::stats {

namespace {

using geo::Point;

void require_samples(std::size_t na, std::size_t nb, const char* who) {
  if (na == 0 || nb == 0) {
    throw std::invalid_argument(std::string(who) + ": empty sample");
  }
}

/// Fenwick (binary indexed) tree over 0-based positions, stored in a
/// caller-owned vector of size n + 1 (the sweep's trees live in
/// Ks2dScratch).
void clear_tree(std::vector<std::size_t>& tree, std::size_t n) {
  tree.resize(n + 1);  // geometric growth, as in SweepSample::assign
  std::fill(tree.begin(), tree.end(), 0);
}

void tree_add(std::vector<std::size_t>& tree, std::size_t pos) {
  for (std::size_t i = pos + 1; i < tree.size(); i += i & (~i + 1)) ++tree[i];
}

/// Number of inserted positions < `count`.
std::size_t tree_prefix(const std::vector<std::size_t>& tree,
                        std::size_t count) {
  std::size_t sum = 0;
  for (std::size_t i = count; i > 0; i &= i - 1) sum += tree[i];
  return sum;
}

/// Max quadrant-fraction difference at origin (X, Y). Quadrants follow the
/// Numerical-Recipes convention (<= vs >), which partitions the plane.
/// Symmetric in the two samples bit for bit (|u - v| == |v - u|).
double origin_diff(std::size_t a_ll, std::size_t a_l, std::size_t a_b,
                   std::size_t na, std::size_t b_ll, std::size_t b_l,
                   std::size_t b_b, std::size_t nb) {
  const auto frac = [](std::size_t c, std::size_t n) {
    return static_cast<double>(c) / static_cast<double>(n);
  };
  const double d_ll = std::abs(frac(a_ll, na) - frac(b_ll, nb));
  const double d_lg = std::abs(frac(a_l - a_ll, na) - frac(b_l - b_ll, nb));
  const double d_gl = std::abs(frac(a_b - a_ll, na) - frac(b_b - b_ll, nb));
  const double d_gg = std::abs(frac(na - a_l - a_b + a_ll, na) -
                               frac(nb - b_l - b_b + b_ll, nb));
  return std::max({d_ll, d_lg, d_gl, d_gg});
}

std::size_t rank_of(const std::vector<double>& sorted_unique, double v) {
  // number of elements <= v, as a 0-based "inclusive rank + 1" count
  return static_cast<std::size_t>(
      std::upper_bound(sorted_unique.begin(), sorted_unique.end(), v) -
      sorted_unique.begin());
}

/// Pearson r of the points' x and y in the order given (0 below two
/// points); `x` and `y` are reusable coordinate buffers.
double sample_pearson(std::span<const Point> pts, std::vector<double>& x,
                      std::vector<double>& y) {
  if (pts.size() < 2) return 0.0;
  x.clear();
  y.clear();
  for (Point p : pts) {
    x.push_back(p.x);
    y.push_back(p.y);
  }
  return pearson(x, y);
}

/// For each value of `sorted`, how many values of `other_sorted` are <= it
/// (one merge pass over two ascending arrays).
void cross_ranks(const std::vector<double>& sorted,
                 const std::vector<double>& other_sorted,
                 std::vector<std::size_t>& out) {
  out.resize(sorted.size());
  std::size_t j = 0;
  for (std::size_t k = 0; k < sorted.size(); ++k) {
    while (j < other_sorted.size() && other_sorted[j] <= sorted[k]) ++j;
    out[k] = j;
  }
}

/// The Fasano–Franceschini statistic of `window` against the laid-out
/// reference `r`: lays the window out in `buf` and sweeps all origins.
double sweep_statistic(const detail::SweepSample& r,
                       std::span<const Point> window,
                       detail::SweepBuffers& buf) {
  detail::SweepSample& w = buf.window;
  w.assign(window, buf.order);
  const std::size_t m = r.by_x.size();
  const std::size_t n = w.by_x.size();
  // #(y <= Y) in the other sample for every origin, by merging y orders.
  cross_ranks(r.y_sorted, w.y_sorted, buf.ref_cross);
  cross_ranks(w.y_sorted, r.y_sorted, buf.window_cross);
  clear_tree(buf.ref_tree, m);
  clear_tree(buf.window_tree, n);

  // Visit the origins (every point of both samples) in ascending x. Before
  // an origin at X is counted, every point with x <= X is in its sample's
  // tree at its y position, so the points below-left of the origin are a
  // prefix count up to #(y <= Y): the same integers a direct scan finds.
  double best_ref = 0.0, best_window = 0.0;
  std::size_t ir = 0, iw = 0;  // next origin of each sample
  std::size_t lr = 0, lw = 0;  // points of each sample with x <= X
  while (ir < m || iw < n) {
    const bool from_ref = iw == n || (ir < m && r.by_x[ir].x <= w.by_x[iw].x);
    const double X = from_ref ? r.by_x[ir].x : w.by_x[iw].x;
    while (lr < m && r.by_x[lr].x <= X) tree_add(buf.ref_tree, r.y_pos[lr++]);
    while (lw < n && w.by_x[lw].x <= X) {
      tree_add(buf.window_tree, w.y_pos[lw++]);
    }
    std::size_t b_ref = 0, b_window = 0;
    if (from_ref) {
      const std::size_t pos = r.y_pos[ir++];
      b_ref = r.y_le[pos];
      b_window = buf.ref_cross[pos];
    } else {
      const std::size_t pos = w.y_pos[iw++];
      b_window = w.y_le[pos];
      b_ref = buf.window_cross[pos];
    }
    const double d = origin_diff(
        tree_prefix(buf.ref_tree, b_ref), lr, b_ref, m,
        tree_prefix(buf.window_tree, b_window), lw, b_window, n);
    double& best = from_ref ? best_ref : best_window;
    best = std::max(best, d);
  }
  return (best_ref + best_window) / 2.0;
}

}  // namespace

void detail::SweepSample::assign(
    std::span<const Point> pts,
    std::vector<std::pair<double, std::size_t>>& order) {
  // resize() rather than assign(): when a buffer must grow, resize grows
  // it geometrically, so windows that creep up in size stop reallocating.
  const std::size_t n = pts.size();
  by_x.resize(n);
  std::copy(pts.begin(), pts.end(), by_x.begin());
  std::sort(by_x.begin(), by_x.end(),
            [](Point p, Point q) { return p.x < q.x; });
  order.resize(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = {by_x[i].y, i};
  std::sort(order.begin(), order.end(),
            [](const auto& u, const auto& v) { return u.first < v.first; });
  y_pos.resize(n);
  y_sorted.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    y_sorted[k] = order[k].first;
    y_pos[order[k].second] = k;
  }
  // #values <= y_sorted[k] is the end of k's run of equal values.
  y_le.resize(n);
  for (std::size_t k = n; k-- > 0;) {
    y_le[k] = (k + 1 < n && !(y_sorted[k] < y_sorted[k + 1])) ? y_le[k + 1]
                                                               : k + 1;
  }
}

Ks2dReference::Ks2dReference(std::span<const Point> sample) {
  std::vector<double> x, y;
  r_ = sample_pearson(sample, x, y);
  std::vector<std::pair<double, std::size_t>> order;
  sample_.assign(sample, order);
}

double peacock_statistic(std::span<const Point> a, std::span<const Point> b) {
  require_samples(a.size(), b.size(), "peacock_statistic");

  // Candidate origins: all pairings (x_i, y_j) of combined coordinates.
  std::vector<double> xs, ys;
  xs.reserve(a.size() + b.size());
  ys.reserve(a.size() + b.size());
  for (Point p : a) { xs.push_back(p.x); ys.push_back(p.y); }
  for (Point p : b) { xs.push_back(p.x); ys.push_back(p.y); }
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
  std::sort(ys.begin(), ys.end());
  ys.erase(std::unique(ys.begin(), ys.end()), ys.end());

  // Sort each sample by x so points can be swept into a Fenwick tree over
  // y-rank as the origin's X advances.
  auto by_x = [](Point p, Point q) { return p.x < q.x; };
  std::vector<Point> sa(a.begin(), a.end()), sb(b.begin(), b.end());
  std::sort(sa.begin(), sa.end(), by_x);
  std::sort(sb.begin(), sb.end(), by_x);

  // Per-sample sorted y arrays for the marginal counts #(y <= Y).
  std::vector<double> ay, by;
  ay.reserve(a.size());
  by.reserve(b.size());
  for (Point p : a) ay.push_back(p.y);
  for (Point p : b) by.push_back(p.y);
  std::sort(ay.begin(), ay.end());
  std::sort(by.begin(), by.end());

  std::vector<std::size_t> fa, fb;
  clear_tree(fa, ys.size());
  clear_tree(fb, ys.size());
  std::size_t ia = 0, ib = 0;
  double best = 0.0;
  for (double X : xs) {
    while (ia < sa.size() && sa[ia].x <= X) {
      tree_add(fa, rank_of(ys, sa[ia].y) - 1);
      ++ia;
    }
    while (ib < sb.size() && sb[ib].x <= X) {
      tree_add(fb, rank_of(ys, sb[ib].y) - 1);
      ++ib;
    }
    for (double Y : ys) {
      const std::size_t yr = rank_of(ys, Y);
      const std::size_t a_ll = tree_prefix(fa, yr);
      const std::size_t b_ll = tree_prefix(fb, yr);
      const std::size_t a_b = rank_of(ay, Y);
      const std::size_t b_b = rank_of(by, Y);
      best = std::max(best, origin_diff(a_ll, ia, a_b, a.size(), b_ll, ib,
                                        b_b, b.size()));
    }
  }
  return best;
}

double fasano_franceschini_statistic(std::span<const Point> a,
                                     std::span<const Point> b) {
  require_samples(a.size(), b.size(), "fasano_franceschini_statistic");
  detail::SweepBuffers buf;
  return sweep_statistic(Ks2dReference(a).layout(), b, buf);
}

double ks_tail_probability(double lambda) {
  if (lambda <= 0.0) return 1.0;
  double sum = 0.0;
  double sign = 1.0;
  for (int j = 1; j <= 100; ++j) {
    const double term = std::exp(-2.0 * j * j * lambda * lambda);
    sum += sign * term;
    if (term < 1e-12) break;
    sign = -sign;
  }
  return std::clamp(2.0 * sum, 0.0, 1.0);
}

Ks2dResult ks2d_test(const Ks2dReference& reference,
                     std::span<const Point> window, Ks2dScratch& scratch,
                     std::size_t peacock_limit) {
  require_samples(reference.size(), window.size(), "ks2d_test");
  const std::size_t m = reference.size();
  const std::size_t n = window.size();
  const double d =
      (m + n <= peacock_limit)
          ? peacock_statistic(reference.layout().by_x, window)
          : sweep_statistic(reference.layout(), window, scratch.sweep_);

  // Significance approximation following Press et al. (ks2d2s): effective
  // sample size with a coordinate-correlation correction.
  const double r1 = reference.pearson_r();
  const double r2 = sample_pearson(window, scratch.x_, scratch.y_);
  const double n_eff = static_cast<double>(m) * static_cast<double>(n) /
                       static_cast<double>(m + n);
  const double sqn = std::sqrt(n_eff);
  const double rr = std::sqrt(std::max(0.0, 1.0 - 0.5 * (r1 * r1 + r2 * r2)));
  const double lambda = sqn * d / (1.0 + rr * (0.25 - 0.75 / sqn));
  return {d, ks_tail_probability(lambda), ks_similarity_percent(d)};
}

Ks2dResult ks2d_test(std::span<const Point> a, std::span<const Point> b,
                     std::size_t peacock_limit) {
  Ks2dScratch scratch;
  return ks2d_test(Ks2dReference(a), b, scratch, peacock_limit);
}

}  // namespace esharing::stats
