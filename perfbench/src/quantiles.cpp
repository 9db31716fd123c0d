#include "quantiles.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

Quantile rank_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    throw std::invalid_argument("rank_quantile: empty sample");
  }
  if (!(q >= 0.0 && q <= 1.0)) {
    throw std::invalid_argument("rank_quantile: q outside [0, 1]");
  }
  const std::size_t n = sorted.size();
  // ceil(q * n) with a small guard so 0.99 * 1000 stays 990, not 991.
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return {q, sorted[rank - 1], n, n - rank};
}

std::optional<Quantile> tail_quantile(const std::vector<double>& sorted,
                                      double max_q, std::size_t min_beyond) {
  if (sorted.empty()) return std::nullopt;
  for (const double q : {0.999, 0.99, 0.95, 0.9, 0.75, 0.5}) {
    if (q > max_q + 1e-12) continue;
    const Quantile pick = rank_quantile(sorted, q);
    if (pick.beyond >= min_beyond) return pick;
  }
  return std::nullopt;
}

bool backlog_growing(const std::vector<std::size_t>& samples, double slack) {
  const std::size_t n = samples.size();
  if (n < 4) return false;
  const std::size_t quarter = n / 4;
  double first = 0.0;
  double last = 0.0;
  for (std::size_t i = 0; i < quarter; ++i) {
    first += static_cast<double>(samples[i]);
    last += static_cast<double>(samples[n - 1 - i]);
  }
  first /= static_cast<double>(quarter);
  last /= static_cast<double>(quarter);
  return last > 2.0 * first + slack;
}

bool rung_meets_slo(const RungObservation& rung, double limit_ms) {
  return rung.sent > 0 && rung.failed == 0 && rung.answered == rung.sent &&
         rung.tail_ms <= limit_ms &&
         !backlog_growing(rung.backlog, rung.rate * limit_ms / 1e3);
}

double slo_rate(std::vector<RungObservation> rungs, double limit_ms) {
  std::sort(rungs.begin(), rungs.end(),
            [](const RungObservation& a, const RungObservation& b) {
              return a.rate < b.rate;
            });
  // A rate counts only when every observation at it (repeats included) and
  // every lower rate meets the objective.
  double best = 0.0;
  for (std::size_t i = 0; i < rungs.size();) {
    std::size_t end = i;
    bool all_ok = true;
    for (; end < rungs.size() && rungs[end].rate == rungs[i].rate; ++end) {
      all_ok = all_ok && rung_meets_slo(rungs[end], limit_ms);
    }
    if (!all_ok) break;
    best = rungs[i].rate;
    i = end;
  }
  return best;
}

}  // namespace perfbench
