// Unit tests of the benchmark's own pieces: the seeded spec generator,
// the percentile-versus-sample-count rule and the span arithmetic.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "dds/exp/job_spec.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr Workload kAll[] = {Workload::Sweep, Workload::Elastic,
                             Workload::Event};

TEST(Generator, SameSeedSameBytes) {
  for (const Workload w : kAll) {
    EXPECT_EQ(generateSpecs(w, 7), generateSpecs(w, 7)) << workloadName(w);
  }
}

TEST(Generator, OtherSeedOtherBytesSameShape) {
  for (const Workload w : kAll) {
    const auto a = generateSpecs(w, 7);
    const auto b = generateSpecs(w, 8);
    EXPECT_NE(a, b) << workloadName(w);
    EXPECT_EQ(a.size(), b.size()) << workloadName(w);
  }
}

TEST(Generator, PinnedBytes) {
  // The stream is the benchmark's input: it must not drift with the
  // library (job seeds and deals come from the benchmark's own RNG).
  EXPECT_EQ(generateSpecs(Workload::Event, 1).front(),
            "{\"v\":1,\"tenant\":\"event\",\"label\":"
            "\"s0-paper-constant-global\",\"graph\":\"paper\","
            "\"scheduler\":\"global\",\"config\":{\"seed\":885903008,"
            "\"horizon_h\":0.5,\"backend\":\"event\","
            "\"workload.profile\":\"constant\",\"workload.mean_rate\":12}}");
}

TEST(Generator, EveryStreamHasAtLeastHundredValidSpecs) {
  for (const Workload w : kAll) {
    const auto lines = generateSpecs(w, 3);
    EXPECT_GE(lines.size(), 100u) << workloadName(w);
    for (const std::string& line : lines) {
      EXPECT_NO_THROW((void)dds::experimentFromSpec(dds::parseJobSpec(line)))
          << line;
    }
  }
}

TEST(Generator, WorkloadNamesRoundTrip) {
  for (const Workload w : kAll) {
    EXPECT_EQ(parseWorkload(workloadName(w)), w);
  }
  EXPECT_FALSE(parseWorkload("hit").has_value());
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(percentile(v, 50), 50.0);
  EXPECT_EQ(percentile(v, 90), 90.0);
  EXPECT_EQ(percentile(v, 100), 100.0);
  EXPECT_EQ(percentile({3.0}, 90), 3.0);
  EXPECT_EQ(median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_THROW((void)percentile({}, 50), std::invalid_argument);
  EXPECT_THROW((void)percentile({1.0}, 0), std::invalid_argument);
}

TEST(Percentile, HarrellDavis) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  // Symmetric weights put the median of 1..n at (n + 1) / 2 exactly.
  EXPECT_NEAR(harrellDavis(v, 50), 50.5, 1e-9);
  // The Beta weights have mean p, so on 1..n the estimate is n p + 1/2.
  EXPECT_NEAR(harrellDavis(v, 90), 90.5, 1e-6);
  EXPECT_NEAR(harrellDavis({2.5, 2.5, 2.5, 2.5}, 90), 2.5, 1e-12);
  EXPECT_NEAR(harrellDavis({3.0}, 90), 3.0, 1e-12);
  // Order of the input does not matter.
  EXPECT_NEAR(harrellDavis({9.0, 1.0, 5.0, 3.0, 7.0}, 50), 5.0, 1e-9);
  EXPECT_THROW((void)harrellDavis({}, 50), std::invalid_argument);
  EXPECT_THROW((void)harrellDavis({1.0}, 100), std::invalid_argument);
}

TEST(Percentile, HarrellDavisIsSteadierThanOneOrderStatistic) {
  // One sample near the 90th rank jumps; the nearest-rank p90 follows it,
  // Harrell-Davis moves by a fraction of the jump.
  std::vector<double> a;
  for (int i = 1; i <= 100; ++i) a.push_back(i);
  std::vector<double> b = a;
  b[89] = 89.0;  // rank 90 now equals rank 89
  EXPECT_EQ(percentile(a, 90) - percentile(b, 90), 1.0);
  EXPECT_LT(harrellDavis(a, 90) - harrellDavis(b, 90), 0.25);
  EXPECT_GT(harrellDavis(a, 90) - harrellDavis(b, 90), 0.0);
}

TEST(Percentile, TenSamplesBeyondRule) {
  EXPECT_EQ(samplesBeyond(100, 90), 10u);
  EXPECT_TRUE(percentileSupported(100, 90));
  EXPECT_EQ(samplesBeyond(99, 90), 9u);
  EXPECT_FALSE(percentileSupported(99, 90));
  EXPECT_TRUE(percentileSupported(20, 50));
  EXPECT_FALSE(percentileSupported(19, 50));
  EXPECT_FALSE(percentileSupported(1000, 100));
  EXPECT_TRUE(percentileSupported(1000, 99));
  EXPECT_FALSE(percentileSupported(0, 50));
}

/// A synthetic run: call@0, header@3, deploy to 10, two intervals
/// [10,20] and [25,40] with a gap of 5, tail to 50.
std::vector<Stamp> syntheticRun(std::uint32_t job, std::int64_t t0) {
  const std::uint8_t other = 5;  // some event kind the split ignores
  return {{t0 + 0, job, kRunCall},
          {t0 + 3, job, runHeaderKind()},
          {t0 + 6, job, other},
          {t0 + 10, job, intervalBeginKind()},
          {t0 + 12, job, other},
          {t0 + 20, job, intervalEndKind()},
          {t0 + 22, job, other},
          {t0 + 25, job, intervalBeginKind()},
          {t0 + 40, job, intervalEndKind()},
          {t0 + 50, job, kRunReturn}};
}

TEST(Spans, SplitsOneRunIntoTilingPhases) {
  const auto runs = splitRuns(syntheticRun(4, 1000));
  ASSERT_EQ(runs.size(), 1u);
  const RunSpans& r = runs[0];
  EXPECT_EQ(r.job, 4u);
  EXPECT_EQ(r.wall, 50);
  EXPECT_EQ(r.setup, 3);
  EXPECT_EQ(r.deploy, 7);
  EXPECT_EQ(r.intervals, 10 + 15);
  EXPECT_EQ(r.remainder, 5 + 10);
  EXPECT_EQ(r.interval_count, 2u);
  EXPECT_EQ(r.events, 8u);  // every stamp but the two brackets
  EXPECT_EQ(r.setup + r.deploy + r.intervals + r.remainder, r.wall);
}

TEST(Spans, SplitsConsecutiveRuns) {
  auto stamps = syntheticRun(0, 0);
  const auto second = syntheticRun(1, 100);
  stamps.insert(stamps.end(), second.begin(), second.end());
  const auto runs = splitRuns(stamps);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[1].job, 1u);
  EXPECT_EQ(runs[1].wall, 50);
}

TEST(Spans, RejectsMalformedSequences) {
  auto no_return = syntheticRun(0, 0);
  no_return.pop_back();
  EXPECT_THROW((void)splitRuns(no_return), std::runtime_error);

  auto unbalanced = syntheticRun(0, 0);
  unbalanced.erase(unbalanced.begin() + 5);  // drop the first interval end
  EXPECT_THROW((void)splitRuns(unbalanced), std::runtime_error);

  auto backwards = syntheticRun(0, 0);
  backwards[4].ns = 1;
  EXPECT_THROW((void)splitRuns(backwards), std::runtime_error);

  auto no_header = syntheticRun(0, 0);
  no_header.erase(no_header.begin() + 1);
  EXPECT_THROW((void)splitRuns(no_header), std::runtime_error);

  auto two_headers = syntheticRun(0, 0);
  two_headers[2].kind = runHeaderKind();
  EXPECT_THROW((void)splitRuns(two_headers), std::runtime_error);
}

TEST(Spans, SinkStampsEveryEvent) {
  StampSink sink(4);
  sink.beginRun(9);
  sink.emit(dds::obs::RunHeaderEvent{});
  sink.emit(dds::obs::IntervalBeginEvent{});
  sink.emit(dds::obs::IntervalEndEvent{});
  sink.endRun();
  ASSERT_EQ(sink.stamps().size(), 5u);
  EXPECT_TRUE(sink.grew());  // five stamps into a reserve of four
  const auto runs = splitRuns(sink.stamps());
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].job, 9u);
  EXPECT_EQ(runs[0].events, 3u);
}

}  // namespace
}  // namespace perfbench
