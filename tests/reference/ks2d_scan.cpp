#include "ks2d_scan.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>

#include "stats/summary.h"

namespace esharing::stats::reference {

namespace {

using geo::Point;

struct QuadCounts {
  std::size_t ll{0};  // x<=X, y<=Y
  std::size_t l{0};   // x<=X
  std::size_t b{0};   // y<=Y
};

QuadCounts quad_counts(const std::vector<Point>& pts, Point o) {
  QuadCounts q;
  for (Point p : pts) {
    const bool left = p.x <= o.x;
    const bool below = p.y <= o.y;
    q.l += left ? 1 : 0;
    q.b += below ? 1 : 0;
    q.ll += (left && below) ? 1 : 0;
  }
  return q;
}

double origin_diff(const QuadCounts& qa, std::size_t na, const QuadCounts& qb,
                   std::size_t nb) {
  const auto frac = [](std::size_t c, std::size_t n) {
    return static_cast<double>(c) / static_cast<double>(n);
  };
  const double d_ll = std::abs(frac(qa.ll, na) - frac(qb.ll, nb));
  const double d_lg = std::abs(frac(qa.l - qa.ll, na) - frac(qb.l - qb.ll, nb));
  const double d_gl = std::abs(frac(qa.b - qa.ll, na) - frac(qb.b - qb.ll, nb));
  const double d_gg = std::abs(frac(na - qa.l - qa.b + qa.ll, na) -
                               frac(nb - qb.l - qb.b + qb.ll, nb));
  return std::max({d_ll, d_lg, d_gl, d_gg});
}

}  // namespace

double fasano_franceschini_scan(const std::vector<Point>& a,
                                const std::vector<Point>& b) {
  if (a.empty() || b.empty()) {
    throw std::invalid_argument("fasano_franceschini_scan: empty sample");
  }
  const auto max_over = [&](const std::vector<Point>& origins) {
    double best = 0.0;
    for (Point o : origins) {
      best = std::max(best, origin_diff(quad_counts(a, o), a.size(),
                                        quad_counts(b, o), b.size()));
    }
    return best;
  };
  return (max_over(a) + max_over(b)) / 2.0;
}

Ks2dResult ks2d_test_scan(const std::vector<Point>& a,
                          const std::vector<Point>& b) {
  const double d = fasano_franceschini_scan(a, b);
  const auto split = [](const std::vector<Point>& pts) {
    std::vector<double> x, y;
    for (Point p : pts) {
      x.push_back(p.x);
      y.push_back(p.y);
    }
    return std::pair{std::move(x), std::move(y)};
  };
  double r1 = 0.0, r2 = 0.0;
  if (a.size() >= 2) {
    auto [x, y] = split(a);
    r1 = pearson(x, y);
  }
  if (b.size() >= 2) {
    auto [x, y] = split(b);
    r2 = pearson(x, y);
  }
  const double n_eff = static_cast<double>(a.size()) *
                       static_cast<double>(b.size()) /
                       static_cast<double>(a.size() + b.size());
  const double sqn = std::sqrt(n_eff);
  const double rr = std::sqrt(std::max(0.0, 1.0 - 0.5 * (r1 * r1 + r2 * r2)));
  const double lambda = sqn * d / (1.0 + rr * (0.25 - 0.75 / sqn));
  return {d, ks_tail_probability(lambda), ks_similarity_percent(d)};
}

}  // namespace esharing::stats::reference
