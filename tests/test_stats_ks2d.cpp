#include "stats/ks2d.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>

#include "ks2d_scan.h"
#include "stats/rng.h"
#include "stats/spatial.h"

namespace esharing::stats {
namespace {

using geo::BoundingBox;
using geo::Point;

std::vector<Point> uniform_sample(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  return uniform_points(rng, BoundingBox{{0, 0}, {1000, 1000}}, n);
}

TEST(Ks2d, IdenticalSamplesHaveZeroStatistic) {
  const auto a = uniform_sample(1, 60);
  EXPECT_DOUBLE_EQ(peacock_statistic(a, a), 0.0);
  EXPECT_DOUBLE_EQ(fasano_franceschini_statistic(a, a), 0.0);
}

TEST(Ks2d, DisjointSamplesHaveStatisticNearOne) {
  Rng rng(2);
  const auto a = normal_points(rng, {0, 0}, 1.0, 50);
  const auto b = normal_points(rng, {1e6, 1e6}, 1.0, 50);
  EXPECT_GT(peacock_statistic(a, b), 0.99);
}

TEST(Ks2d, StatisticIsSymmetric) {
  const auto a = uniform_sample(3, 40);
  const auto b = uniform_sample(4, 50);
  EXPECT_DOUBLE_EQ(peacock_statistic(a, b), peacock_statistic(b, a));
  EXPECT_DOUBLE_EQ(fasano_franceschini_statistic(a, b),
                   fasano_franceschini_statistic(b, a));
}

TEST(Ks2d, StatisticWithinUnitInterval) {
  for (std::uint64_t s = 0; s < 5; ++s) {
    const auto a = uniform_sample(10 + s, 30);
    const auto b = uniform_sample(20 + s, 35);
    const double d = peacock_statistic(a, b);
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 1.0);
  }
}

TEST(Ks2d, SameDistributionGivesSmallD) {
  const auto a = uniform_sample(5, 150);
  const auto b = uniform_sample(6, 150);
  EXPECT_LT(peacock_statistic(a, b), 0.25);
}

TEST(Ks2d, DifferentDistributionsGiveLargerD) {
  Rng rng(7);
  const auto uniform = uniform_sample(8, 120);
  const auto clustered = normal_points(rng, {500, 500}, 50.0, 120);
  const double d_diff = peacock_statistic(uniform, clustered);
  const double d_same = peacock_statistic(uniform, uniform_sample(9, 120));
  EXPECT_GT(d_diff, 2.0 * d_same);
}

TEST(Ks2d, FasanoFranceschiniTracksPeacock) {
  // The FF statistic uses a subset of Peacock's origins, so it can only be
  // <= Peacock's D, and in practice stays close.
  for (std::uint64_t s = 0; s < 8; ++s) {
    Rng rng(100 + s);
    const auto a = uniform_sample(200 + s, 60);
    const auto b = normal_points(rng, {500, 500}, 220.0, 60);
    const double dp = peacock_statistic(a, b);
    const double dff = fasano_franceschini_statistic(a, b);
    EXPECT_LE(dff, dp + 1e-12);
    EXPECT_GT(dff, dp * 0.5);
  }
}

TEST(Ks2d, ThrowsOnEmptySamples) {
  const auto a = uniform_sample(10, 5);
  EXPECT_THROW((void)peacock_statistic(a, {}), std::invalid_argument);
  EXPECT_THROW((void)peacock_statistic({}, a), std::invalid_argument);
  EXPECT_THROW((void)fasano_franceschini_statistic({}, a), std::invalid_argument);
  EXPECT_THROW((void)ks2d_test({}, a), std::invalid_argument);
}

TEST(Ks2d, SimilarityPercentFormula) {
  EXPECT_DOUBLE_EQ(ks_similarity_percent(0.0), 100.0);
  EXPECT_DOUBLE_EQ(ks_similarity_percent(1.0), 0.0);
  EXPECT_DOUBLE_EQ(ks_similarity_percent(0.25), 75.0);
}

TEST(Ks2d, TestUsesPeacockBelowLimitAndFfAbove) {
  const auto a = uniform_sample(11, 30);
  const auto b = uniform_sample(12, 30);
  const auto peacock = ks2d_test(a, b, /*peacock_limit=*/100);
  const auto ff = ks2d_test(a, b, /*peacock_limit=*/10);
  EXPECT_DOUBLE_EQ(peacock.d, peacock_statistic(a, b));
  EXPECT_DOUBLE_EQ(ff.d, fasano_franceschini_statistic(a, b));
}

TEST(Ks2d, PValueHighForSameDistribution) {
  const auto a = uniform_sample(13, 120);
  const auto b = uniform_sample(14, 120);
  EXPECT_GT(ks2d_test(a, b).p_value, 0.05);
}

TEST(Ks2d, PValueLowForDifferentDistributions) {
  Rng rng(15);
  const auto a = uniform_sample(16, 120);
  const auto b = normal_points(rng, {200, 800}, 40.0, 120);
  EXPECT_LT(ks2d_test(a, b).p_value, 0.01);
}

TEST(Ks2d, TailProbabilityProperties) {
  EXPECT_DOUBLE_EQ(ks_tail_probability(0.0), 1.0);
  EXPECT_LT(ks_tail_probability(2.0), 0.01);
  // Monotone decreasing.
  double prev = 1.0;
  for (double lambda = 0.1; lambda < 3.0; lambda += 0.1) {
    const double q = ks_tail_probability(lambda);
    EXPECT_LE(q, prev + 1e-12);
    EXPECT_GE(q, 0.0);
    prev = q;
  }
}

TEST(Ks2d, WeekdayWeekendStyleShiftIsDetected) {
  // Two POI mixtures sharing one cluster but differing in the other —
  // the Table IV situation (weekday vs weekend demand).
  Rng rng(17);
  const std::vector<GaussianCluster> weekday{
      {{500, 500}, 80.0, 3.0}, {{2500, 2500}, 80.0, 1.0}};
  const std::vector<GaussianCluster> weekend{
      {{500, 500}, 80.0, 1.0}, {{2500, 2500}, 80.0, 3.0}};
  const auto w1 = mixture_points(rng, weekday, 150);
  const auto w2 = mixture_points(rng, weekday, 150);
  const auto e1 = mixture_points(rng, weekend, 150);
  const double sim_within = ks2d_test(w1, w2).similarity;
  const double sim_across = ks2d_test(w1, e1).similarity;
  EXPECT_GT(sim_within, sim_across + 10.0);
}

/// Points on a 0..side integer grid: heavy ties in x, in y and in both.
std::vector<Point> grid_sample(Rng& rng, std::size_t n, int side) {
  std::vector<Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({static_cast<double>(rng.uniform_int(0, side)),
                   static_cast<double>(rng.uniform_int(0, side))});
  }
  return pts;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_result(const Ks2dResult& got, const Ks2dResult& want) {
  EXPECT_EQ(bits(got.d), bits(want.d)) << got.d << " vs " << want.d;
  EXPECT_EQ(bits(got.p_value), bits(want.p_value))
      << got.p_value << " vs " << want.p_value;
  EXPECT_EQ(bits(got.similarity), bits(want.similarity));
}

/// The sweep against the direct scan, through every entry point.
void expect_matches_scan(const std::vector<Point>& a,
                         const std::vector<Point>& b) {
  SCOPED_TRACE(::testing::Message() << "|a| = " << a.size()
                                    << ", |b| = " << b.size());
  const double want = reference::fasano_franceschini_scan(a, b);
  EXPECT_EQ(bits(fasano_franceschini_statistic(a, b)), bits(want));
  EXPECT_EQ(bits(fasano_franceschini_statistic(b, a)), bits(want));
  const Ks2dResult want_test = reference::ks2d_test_scan(a, b);
  expect_same_result(ks2d_test(a, b, 0), want_test);
  Ks2dScratch scratch;
  expect_same_result(ks2d_test(Ks2dReference(a), b, scratch, 0), want_test);
}

TEST(Ks2d, SweepMatchesScanOracleBitForBit) {
  Rng rng(31);
  for (std::size_t trial = 0; trial < 40; ++trial) {
    const auto na = static_cast<std::size_t>(rng.uniform_int(1, 300));
    const auto nb = static_cast<std::size_t>(rng.uniform_int(1, 300));
    if (trial % 2 == 0) {
      const int side = static_cast<int>(rng.uniform_int(1, 12));
      expect_matches_scan(grid_sample(rng, na, side),
                          grid_sample(rng, nb, side));
    } else {
      expect_matches_scan(
          uniform_points(rng, BoundingBox{{0, 0}, {1000, 1000}}, na),
          normal_points(rng, {500, 500}, 200.0, nb));
    }
  }
  // Duplicate points, within one sample and shared across both.
  const auto base = uniform_sample(32, 50);
  std::vector<Point> doubled = base;
  doubled.insert(doubled.end(), base.begin(), base.end());
  expect_matches_scan(base, doubled);
  expect_matches_scan(doubled, std::vector<Point>(7, base[3]));
  // One-point samples, alone and against each other.
  expect_matches_scan({base[0]}, base);
  expect_matches_scan(base, {base[1]});
  expect_matches_scan({base[0]}, {base[1]});
  expect_matches_scan({base[0]}, {base[0]});
  // 1-vs-2,000 size skews, both ways, continuous and tied.
  const auto big = uniform_sample(33, 2000);
  expect_matches_scan({base[2]}, big);
  expect_matches_scan(big, {base[2]});
  expect_matches_scan(grid_sample(rng, 2000, 6), grid_sample(rng, 1, 6));
}

TEST(Ks2d, ReferenceReuseIsStateless) {
  Rng rng(34);
  const auto history = uniform_sample(35, 250);
  const Ks2dReference reference(history);
  Ks2dScratch scratch;
  // Windows that grow, shrink and change ties between checks; each check
  // through the shared scratch must equal a fresh one, on both paths.
  const std::vector<std::size_t> sizes{227, 5, 1, 600, 40, 227, 2, 90};
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const auto window =
        i % 3 == 1 ? grid_sample(rng, sizes[i], 8)
                   : normal_points(rng, {400, 600}, 150.0, sizes[i]);
    SCOPED_TRACE(::testing::Message() << "check " << i);
    expect_same_result(ks2d_test(reference, window, scratch, 0),
                       ks2d_test(history, window, 0));
    expect_same_result(ks2d_test(reference, window, scratch),
                       ks2d_test(history, window));
    EXPECT_EQ(bits(ks2d_test(reference, window, scratch, 0).d),
              bits(reference::fasano_franceschini_scan(history, window)));
  }
  EXPECT_THROW((void)ks2d_test(reference, {}, scratch), std::invalid_argument);
  EXPECT_THROW((void)ks2d_test(Ks2dReference(), history, scratch),
               std::invalid_argument);
}

}  // namespace
}  // namespace esharing::stats
