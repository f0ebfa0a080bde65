#include "dds/common/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "dds/common/rng.hpp"

namespace dds {
namespace {

TEST(RunningStats, EmptyIsZeroed) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStats, KnownSample) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic population-variance example
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.cv(), 0.4);
}

TEST(RunningStats, CvZeroWhenMeanZero) {
  RunningStats s;
  s.add(-1.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.cv(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(3);
  RunningStats whole, left, right;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(2.0, 3.0);
    whole.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean_before = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean_before);
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), mean_before);
}

TEST(MeanFn, BasicAndEmpty) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.0);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Percentile, MedianOfOddSample) {
  const std::vector<double> xs = {5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 3.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  const std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 2.5);
}

TEST(Percentile, Extremes) {
  const std::vector<double> xs = {4.0, 2.0, 8.0, 6.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 8.0);
}

TEST(Percentile, RejectsBadInput) {
  EXPECT_THROW((void)percentile(std::vector<double>{}, 50.0),
               PreconditionError);
  const std::vector<double> xs = {1.0};
  EXPECT_THROW((void)percentile(xs, -1.0), PreconditionError);
  EXPECT_THROW((void)percentile(xs, 101.0), PreconditionError);
}

class PercentileMonotoneTest : public ::testing::TestWithParam<int> {};

TEST_P(PercentileMonotoneTest, MonotoneInP) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) xs.push_back(rng.uniform(-10.0, 10.0));
  double prev = percentile(xs, 0.0);
  for (double p = 5.0; p <= 100.0; p += 5.0) {
    const double cur = percentile(xs, p);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileMonotoneTest,
                         ::testing::Values(1, 2, 3, 4, 5));

/// The copy-sort-interpolate percentile the selection routine replaced.
double sortedReferencePercentile(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(Percentiles, SelectionMatchesSortBitwise) {
  constexpr double kPs[] = {0.0, 50.0, 95.0, 99.0, 100.0};
  Rng rng(2013);
  std::vector<std::size_t> sizes = {1, 2, 3};
  for (int i = 0; i < 40; ++i) {
    sizes.push_back(static_cast<std::size_t>(rng.uniformInt(4, 1000)));
  }
  sizes.push_back(200'000);

  using Shape = std::function<std::vector<double>(std::size_t)>;
  const auto randomValues = [&rng](std::size_t n) {
    std::vector<double> xs(n);
    for (double& x : xs) x = rng.uniform(-1e3, 1e3);
    return xs;
  };
  const std::vector<std::pair<std::string, Shape>> shapes = {
      {"ascending",
       [&](std::size_t n) {
         std::vector<double> xs = randomValues(n);
         std::sort(xs.begin(), xs.end());
         return xs;
       }},
      {"descending",
       [&](std::size_t n) {
         std::vector<double> xs = randomValues(n);
         std::sort(xs.begin(), xs.end(), std::greater<>());
         return xs;
       }},
      {"random", randomValues},
      {"heavy-tie",
       [&rng](std::size_t n) {
         std::vector<double> xs(n);
         for (double& x : xs) x = static_cast<double>(rng.uniformInt(0, 2));
         return xs;
       }},
  };

  for (const std::size_t n : sizes) {
    for (const auto& [shape, make] : shapes) {
      const std::vector<double> xs = make(n);
      std::vector<double> scratch = xs;
      const std::array<double, 5> all = percentiles(scratch, kPs);
      for (std::size_t k = 0; k < all.size(); ++k) {
        const double p = kPs[k];
        const double want = sortedReferencePercentile(xs, p);
        EXPECT_EQ(bits(all[k]), bits(want))
            << shape << " n=" << n << " p=" << p << " (five ranks)";
        EXPECT_EQ(bits(percentile(xs, p)), bits(want))
            << shape << " n=" << n << " p=" << p << " (one rank)";
      }
    }
  }
}

TEST(Percentiles, RejectsDescendingRanks) {
  std::vector<double> xs = {1.0, 2.0, 3.0};
  EXPECT_THROW((void)percentiles(xs, {95.0, 50.0}), PreconditionError);
  std::vector<double> none;
  EXPECT_THROW((void)percentiles(none, {50.0}), PreconditionError);
}

}  // namespace
}  // namespace dds
