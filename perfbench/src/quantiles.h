#pragma once

/// \file quantiles.h
/// Exact latency quantiles from raw samples and the open-loop rate-ladder
/// verdict. Both are pure functions so the benchmark's self-test can pin
/// them (tests/selftest.cpp).

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// One quantile read off a sorted sample.
struct Quantile {
  double q{0.0};            ///< the quantile level, e.g. 0.99
  double value{0.0};        ///< the sample at that nearest rank
  std::size_t count{0};     ///< samples in the set
  std::size_t beyond{0};    ///< samples strictly above the rank
};

/// Nearest-rank quantile: the sample at 1-based rank ceil(q * n) of the
/// ascending `sorted` sample (rank 1 for q = 0). \throws
/// std::invalid_argument on an empty sample or q outside [0, 1].
[[nodiscard]] Quantile rank_quantile(const std::vector<double>& sorted,
                                     double q);

/// The highest level among 0.999, 0.99, 0.95, 0.9, 0.75 and 0.5 that does
/// not exceed `max_q` and leaves at least `min_beyond` samples above its
/// rank. Empty when no level qualifies (too few samples).
[[nodiscard]] std::optional<Quantile> tail_quantile(
    const std::vector<double>& sorted, double max_q,
    std::size_t min_beyond = 10);

/// What one rung of the open-loop rate ladder observed.
struct RungObservation {
  double rate{0.0};          ///< offered decides per second
  std::size_t sent{0};
  std::size_t answered{0};   ///< decisions received
  std::size_t failed{0};     ///< errors, refusals and missing replies
  double tail_ms{0.0};       ///< the latency quantile the limit applies to
  /// Outstanding requests (sent - answered), sampled at even intervals
  /// while the schedule ran.
  std::vector<std::size_t> backlog;
};

/// True when the backlog samples show a queue that keeps growing: the mean
/// of the last quarter exceeds twice the mean of the first quarter plus
/// `slack` requests. Fewer than four samples never count as growing.
[[nodiscard]] bool backlog_growing(const std::vector<std::size_t>& samples,
                                   double slack);

/// A rung meets the objective when every request was answered without
/// failure, its tail latency is within `limit_ms` and its backlog does not
/// grow by more than `limit_ms` worth of requests at the rung's rate.
[[nodiscard]] bool rung_meets_slo(const RungObservation& rung,
                                  double limit_ms);

/// The highest ladder rate whose rung and every lower rung meet the
/// objective; 0 when the lowest rung already misses it. Rungs may be given
/// in any order, and a rate observed several times counts only when every
/// observation meets the objective.
[[nodiscard]] double slo_rate(std::vector<RungObservation> rungs,
                              double limit_ms);

}  // namespace perfbench
