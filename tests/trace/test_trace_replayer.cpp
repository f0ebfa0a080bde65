#include "dds/trace/trace_replayer.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace dds {
namespace {

double cpu(const TraceReplayer& r, std::uint32_t vm, SimTime t) {
  return r.cpuCoeffSample(VmId(vm), t).value;
}

double latency(const TraceReplayer& r, std::uint32_t a, std::uint32_t b,
               SimTime t) {
  return r.latencyCoeffSample(VmId(a), VmId(b), t).value;
}

double bandwidth(const TraceReplayer& r, std::uint32_t a, std::uint32_t b,
                 SimTime t) {
  return r.bandwidthCoeffSample(VmId(a), VmId(b), t).value;
}

TEST(TraceReplayer, IdealReturnsUnityEverywhere) {
  const auto r = TraceReplayer::ideal();
  EXPECT_DOUBLE_EQ(cpu(r, 0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(cpu(r, 17, 12345.0), 1.0);
  EXPECT_DOUBLE_EQ(latency(r, 0, 1, 99.0), 1.0);
  EXPECT_DOUBLE_EQ(bandwidth(r, 0, 1, 99.0), 1.0);
}

TEST(TraceReplayer, AssignmentIsStablePerVm) {
  const auto r = TraceReplayer::futureGridLike(7);
  const double a = cpu(r, 0, 1000.0);
  const double b = cpu(r, 0, 1000.0);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(TraceReplayer, DeterministicAcrossInstancesWithSameSeed) {
  const auto r1 = TraceReplayer::futureGridLike(21);
  const auto r2 = TraceReplayer::futureGridLike(21);
  for (std::uint32_t v = 0; v < 5; ++v) {
    for (double t : {0.0, 600.0, 7200.0}) {
      EXPECT_DOUBLE_EQ(cpu(r1, v, t), cpu(r2, v, t));
    }
  }
  EXPECT_DOUBLE_EQ(bandwidth(r1, 0, 1, 60.0), bandwidth(r2, 0, 1, 60.0));
}

TEST(TraceReplayer, AssignmentIsIndependentOfQueryOrder) {
  // Replay windows are a function of (seed, family, VM | pair), not of
  // which VMs or pairs were queried first: the same seed queried in
  // opposite orders, one side with extra interleaved queries, yields
  // bit-identical samples.
  const auto forward = TraceReplayer::futureGridLike(2013);
  const auto backward = TraceReplayer::futureGridLike(2013);
  constexpr std::uint32_t kVms = 6;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (std::uint32_t a = 0; a < kVms; ++a) {
    for (std::uint32_t b = a + 1; b < kVms; ++b) pairs.emplace_back(a, b);
  }
  const SimTime t = 5400.0;

  std::vector<CoeffSample> cpu_fwd, lat_fwd, bw_fwd;
  for (std::uint32_t v = 0; v < kVms; ++v) {
    cpu_fwd.push_back(forward.cpuCoeffSample(VmId(v), t));
  }
  for (const auto& [a, b] : pairs) {
    lat_fwd.push_back(forward.latencyCoeffSample(VmId(a), VmId(b), t));
    bw_fwd.push_back(forward.bandwidthCoeffSample(VmId(a), VmId(b), t));
  }

  std::vector<CoeffSample> cpu_bwd(kVms), lat_bwd(pairs.size()),
      bw_bwd(pairs.size());
  for (std::size_t i = pairs.size(); i-- > 0;) {
    const auto [a, b] = pairs[i];
    (void)backward.cpuCoeffSample(VmId(100 + a), t);
    (void)backward.bandwidthCoeffSample(VmId(b), VmId(200 + a), t);
    bw_bwd[i] = backward.bandwidthCoeffSample(VmId(b), VmId(a), t);
    (void)backward.latencyCoeffSample(VmId(300 + b), VmId(a), t);
    lat_bwd[i] = backward.latencyCoeffSample(VmId(b), VmId(a), t);
  }
  for (std::uint32_t v = kVms; v-- > 0;) {
    (void)backward.cpuCoeffSample(VmId(50 + v), t);
    cpu_bwd[v] = backward.cpuCoeffSample(VmId(v), t);
  }

  for (std::uint32_t v = 0; v < kVms; ++v) {
    EXPECT_EQ(cpu_fwd[v].value, cpu_bwd[v].value) << "vm " << v;
    EXPECT_EQ(cpu_fwd[v].valid_until, cpu_bwd[v].valid_until) << "vm " << v;
  }
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(lat_fwd[i].value, lat_bwd[i].value) << "pair " << i;
    EXPECT_EQ(lat_fwd[i].valid_until, lat_bwd[i].valid_until) << "pair " << i;
    EXPECT_EQ(bw_fwd[i].value, bw_bwd[i].value) << "pair " << i;
    EXPECT_EQ(bw_fwd[i].valid_until, bw_bwd[i].valid_until) << "pair " << i;
  }
}

TEST(TraceReplayer, DifferentVmsUsuallyDiffer) {
  const auto r = TraceReplayer::futureGridLike(3);
  int distinct = 0;
  for (std::uint32_t v = 1; v <= 8; ++v) {
    if (cpu(r, v, 1000.0) != cpu(r, 0, 1000.0)) ++distinct;
  }
  EXPECT_GE(distinct, 6);  // random windows rarely collide
}

TEST(TraceReplayer, PairCoefficientsAreSymmetric) {
  const auto r = TraceReplayer::futureGridLike(11);
  EXPECT_DOUBLE_EQ(latency(r, 2, 5, 300.0), latency(r, 5, 2, 300.0));
  EXPECT_DOUBLE_EQ(bandwidth(r, 2, 5, 300.0), bandwidth(r, 5, 2, 300.0));
}

TEST(TraceReplayer, SelfPairQueriesAreRejected) {
  const auto r = TraceReplayer::futureGridLike(1);
  EXPECT_THROW((void)latency(r, 3, 3, 0.0), PreconditionError);
  EXPECT_THROW((void)bandwidth(r, 3, 3, 0.0), PreconditionError);
}

TEST(TraceReplayer, CoefficientsVaryOverTime) {
  const auto r = TraceReplayer::futureGridLike(5);
  bool varied = false;
  const double first = cpu(r, 0, 0.0);
  for (double t = 300.0; t < 24 * 3600.0; t += 300.0) {
    if (cpu(r, 0, t) != first) {
      varied = true;
      break;
    }
  }
  EXPECT_TRUE(varied);
}

TEST(TraceReplayer, RejectsEmptyPools) {
  EXPECT_THROW(TraceReplayer({}, {PerfTrace::constant(1.0)},
                             {PerfTrace::constant(1.0)}, 0),
               PreconditionError);
  EXPECT_THROW(TraceReplayer({PerfTrace::constant(1.0)}, {},
                             {PerfTrace::constant(1.0)}, 0),
               PreconditionError);
  EXPECT_THROW(TraceReplayer({PerfTrace::constant(1.0)},
                             {PerfTrace::constant(1.0)}, {}, 0),
               PreconditionError);
}

TEST(TraceReplayer, CpuCoefficientsStayPositive) {
  const auto r = TraceReplayer::futureGridLike(13);
  for (std::uint32_t v = 0; v < 4; ++v) {
    for (double t = 0.0; t < 12 * 3600.0; t += 600.0) {
      EXPECT_GT(cpu(r, v, t), 0.0);
    }
  }
}

}  // namespace
}  // namespace dds
