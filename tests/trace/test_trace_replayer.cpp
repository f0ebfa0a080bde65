#include "dds/trace/trace_replayer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
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

TEST(TraceReplayer, CorpusIsFixedAndShared) {
  const auto corpus = TraceReplayer::futureGridCorpus();
  EXPECT_EQ(corpus.get(), TraceReplayer::futureGridCorpus().get());
  // 32 traces per family, each 4 days at a 300 s sample period.
  for (const auto* pool : {&corpus->cpu, &corpus->latency,
                           &corpus->bandwidth}) {
    ASSERT_EQ(pool->size(), 32u);
    for (const PerfTrace& trace : *pool) {
      EXPECT_EQ(trace.sampleCount(), 1152u);
      EXPECT_DOUBLE_EQ(trace.samplePeriod(), 300.0);
    }
  }
}

TEST(TraceReplayer, SeedsShareCorpusTracesButNotWindows) {
  // The run seed picks windows only: two seeds replay values drawn from
  // the same corpus traces, but assign most VMs a different window.
  const auto corpus = TraceReplayer::futureGridCorpus();
  const auto inCorpus = [&](double value) {
    return std::any_of(
        corpus->cpu.begin(), corpus->cpu.end(), [&](const PerfTrace& tr) {
          const auto& xs = tr.samples();
          return std::find(xs.begin(), xs.end(), value) != xs.end();
        });
  };
  const auto a = TraceReplayer::futureGridLike(1);
  const auto b = TraceReplayer::futureGridLike(2);
  constexpr std::uint32_t kVms = 16;
  int differing = 0;
  for (std::uint32_t v = 0; v < kVms; ++v) {
    bool differs = false;
    for (double t = 0.0; t < 6 * 3600.0; t += 1800.0) {
      EXPECT_TRUE(inCorpus(cpu(a, v, t))) << "vm " << v << " t " << t;
      EXPECT_TRUE(inCorpus(cpu(b, v, t))) << "vm " << v << " t " << t;
      differs = differs || cpu(a, v, t) != cpu(b, v, t);
    }
    if (differs) ++differing;
  }
  EXPECT_GE(differing, 14);
}

TEST(TraceReplayer, ConcurrentFirstUseMatchesSerialReplay) {
  // Four threads race to build the process-wide corpus; each must see
  // the same corpus and replay exactly what a serial run replays.
  constexpr std::size_t kThreads = 4;
  const auto fingerprint = [](std::uint64_t seed) {
    const auto r = TraceReplayer::futureGridLike(seed);
    std::vector<double> xs;
    for (std::uint32_t v = 0; v < 6; ++v) {
      for (double t = 0.0; t < 4 * 3600.0; t += 900.0) {
        xs.push_back(cpu(r, v, t));
        xs.push_back(latency(r, v, v + 1, t));
        xs.push_back(bandwidth(r, v, v + 1, t));
      }
    }
    return xs;
  };
  std::vector<std::vector<double>> racing(kThreads);
  std::vector<const TraceCorpus*> seen(kThreads, nullptr);
  {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i]() {
        seen[i] = TraceReplayer::futureGridCorpus().get();
        racing[i] = fingerprint(100 + i);
      });
    }
    for (auto& t : threads) t.join();
  }
  for (std::size_t i = 0; i < kThreads; ++i) {
    EXPECT_EQ(seen[i], TraceReplayer::futureGridCorpus().get());
    EXPECT_EQ(racing[i], fingerprint(100 + i)) << "thread " << i;
  }
}

}  // namespace
}  // namespace dds
