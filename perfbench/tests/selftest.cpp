/// Self-test of the benchmark's own logic: the exact quantile picker and
/// the rate-ladder / backlog verdict. Exit code 0 when every check holds.

#include <cstdio>
#include <stdexcept>
#include <vector>

#include "quantiles.h"
#include "trace.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
  }
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void test_rank_quantile() {
  using perfbench::rank_quantile;
  const auto v = ramp(1000);
  expect(rank_quantile(v, 0.5).value == 500.0, "p50 of 1..1000 is 500");
  expect(rank_quantile(v, 0.99).value == 990.0, "p99 of 1..1000 is 990");
  expect(rank_quantile(v, 0.99).beyond == 10, "p99 of 1000 leaves 10 beyond");
  expect(rank_quantile(v, 1.0).value == 1000.0, "p100 is the max");
  expect(rank_quantile(v, 0.0).value == 1.0, "p0 is the min");
  expect(rank_quantile({7.0}, 0.99).value == 7.0, "single sample");
  bool threw = false;
  try {
    (void)rank_quantile({}, 0.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "empty sample throws");
}

void test_tail_quantile() {
  using perfbench::tail_quantile;
  auto pick = tail_quantile(ramp(1000), 0.99);
  expect(pick && pick->q == 0.99 && pick->value == 990.0,
         "1000 samples support p99");
  pick = tail_quantile(ramp(999), 0.99);
  expect(pick && pick->q == 0.95,
         "999 samples fall back to p95 (9 beyond p99)");
  pick = tail_quantile(ramp(10000), 0.99);
  expect(pick && pick->q == 0.99, "max_q caps the level below p999");
  pick = tail_quantile(ramp(10000), 1.0);
  expect(pick && pick->q == 0.999 && pick->beyond == 10,
         "10000 samples support p999");
  pick = tail_quantile(ramp(100), 0.99);
  expect(pick && pick->q == 0.9 && pick->beyond == 10,
         "100 samples support p90 only");
  expect(!tail_quantile(ramp(15), 0.99).has_value(),
         "15 samples support no tail level");
  expect(!tail_quantile({}, 0.99).has_value(), "empty sample has no tail");
}

void test_backlog() {
  using perfbench::backlog_growing;
  expect(!backlog_growing({2, 3, 1, 2, 3, 2, 1, 2}, 16.0),
         "flat backlog is steady");
  expect(backlog_growing({1, 2, 3, 50, 100, 200, 400, 800}, 16.0),
         "runaway backlog grows");
  expect(!backlog_growing({0, 0, 0, 0, 5, 10, 12, 15}, 16.0),
         "small rise within slack is steady");
  expect(backlog_growing({0, 0, 0, 0, 5, 10, 12, 15}, 4.0),
         "the same rise beyond a smaller slack grows");
  expect(!backlog_growing({100, 200, 300}, 16.0),
         "too few samples never grow");
}

void test_ladder() {
  using perfbench::RungObservation;
  using perfbench::slo_rate;
  const auto rung = [](double rate, double tail_ms, std::size_t failed,
                       bool grows) {
    RungObservation r;
    r.rate = rate;
    r.sent = 1000;
    r.answered = 1000 - failed;
    r.failed = failed;
    r.tail_ms = tail_ms;
    r.backlog = grows
                    ? std::vector<std::size_t>{1, 2, 4, 8, 100, 300, 600, 900}
                    : std::vector<std::size_t>{1, 1, 2, 1, 1, 2, 1, 1};
    return r;
  };
  expect(slo_rate({rung(500, 2, 0, false), rung(1000, 3, 0, false),
                   rung(2000, 30, 0, false)},
                  20.0) == 1000.0,
         "tail over the limit ends the ladder");
  expect(slo_rate({rung(2000, 5, 0, true), rung(500, 2, 0, false),
                   rung(1000, 3, 0, false)},
                  20.0) == 1000.0,
         "growing backlog misses the objective; order does not matter");
  expect(slo_rate({rung(500, 2, 0, false), rung(1000, 3, 1, false),
                   rung(2000, 4, 0, false)},
                  20.0) == 500.0,
         "a failure misses the objective and higher rungs do not count");
  expect(slo_rate({rung(500, 25, 0, false)}, 20.0) == 0.0,
         "nominal rung over the limit gives 0");
  expect(slo_rate({rung(500, 2, 0, false), rung(1000, 3, 0, false),
                   rung(1000, 30, 0, false), rung(2000, 3, 0, false)},
                  20.0) == 500.0,
         "one failing repeat of a rate disqualifies that rate");
  expect(slo_rate({rung(500, 2, 0, false), rung(500, 3, 0, false),
                   rung(1000, 3, 0, false)},
                  20.0) == 1000.0,
         "passing repeats of a rate count once");
}

void test_tracer_self_time() {
  perfbench::Tracer t;
  {
    const perfbench::SpanGuard outer(&t, "outer", 1);
    const perfbench::SpanGuard inner(&t, "inner", 1);
  }
  const auto& spans = t.spans();
  expect(spans.size() == 2 && spans[1].parent == 0, "inner nests under outer");
  const double outer_total = t.total_ns("outer").front();
  const double inner_total = t.total_ns("inner").front();
  expect(t.self_ns("outer").front() == outer_total - inner_total,
         "self time subtracts child spans");
  const perfbench::SpanGuard off(nullptr, "ignored");
  expect(t.spans().size() == 2, "a null tracer records nothing");
}

}  // namespace

int main() {
  test_rank_quantile();
  test_tail_quantile();
  test_backlog();
  test_ladder();
  test_tracer_self_time();
  if (failures == 0) std::printf("perfbench selftest: all checks held\n");
  return failures == 0 ? 0 : 1;
}
