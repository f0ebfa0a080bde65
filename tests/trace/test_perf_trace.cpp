#include "dds/trace/perf_trace.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "dds/common/rng.hpp"
#include "dds/trace/trace_replayer.hpp"

namespace dds {
namespace {

TEST(PerfTrace, BasicAccessors) {
  const PerfTrace t({1.0, 0.8, 1.2}, 10.0);
  EXPECT_EQ(t.sampleCount(), 3u);
  EXPECT_DOUBLE_EQ(t.samplePeriod(), 10.0);
  EXPECT_DOUBLE_EQ(t.duration(), 30.0);
}

TEST(PerfTrace, AtUsesZeroOrderHold) {
  const PerfTrace t({1.0, 2.0, 3.0}, 10.0);
  EXPECT_DOUBLE_EQ(t.at(0.0), 1.0);
  EXPECT_DOUBLE_EQ(t.at(9.9), 1.0);
  EXPECT_DOUBLE_EQ(t.at(10.0), 2.0);
  EXPECT_DOUBLE_EQ(t.at(25.0), 3.0);
}

TEST(PerfTrace, AtWrapsPastDuration) {
  const PerfTrace t({1.0, 2.0}, 5.0);
  EXPECT_DOUBLE_EQ(t.at(10.0), 1.0);   // exactly one full cycle
  EXPECT_DOUBLE_EQ(t.at(16.0), 2.0);   // 16 mod 10 = 6 -> second sample
  EXPECT_DOUBLE_EQ(t.at(1000.0), 1.0);
}

TEST(PerfTrace, AtOffsetShiftsOrigin) {
  const PerfTrace t({1.0, 2.0, 3.0}, 10.0);
  EXPECT_DOUBLE_EQ(t.sampleAtOffset(10.0, 0.0).value, 2.0);
  EXPECT_DOUBLE_EQ(t.sampleAtOffset(10.0, 10.0).value, 3.0);
  // 35 mod 30 = 5 -> idx 0
  EXPECT_DOUBLE_EQ(t.sampleAtOffset(25.0, 10.0).value, 1.0);
}

TEST(PerfTrace, ConstantFactory) {
  const auto t = PerfTrace::constant(0.75);
  EXPECT_DOUBLE_EQ(t.at(0.0), 0.75);
  EXPECT_DOUBLE_EQ(t.at(1e7), 0.75);
}

TEST(PerfTrace, StatsSummarizeSamples) {
  const PerfTrace t({1.0, 2.0, 3.0}, 1.0);
  const auto s = t.stats();
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(PerfTrace, RejectsInvalidConstruction) {
  EXPECT_THROW(PerfTrace({}, 1.0), PreconditionError);
  EXPECT_THROW(PerfTrace({1.0}, 0.0), PreconditionError);
  EXPECT_THROW(PerfTrace({-0.5}, 1.0), PreconditionError);
}

TEST(PerfTrace, RejectsNegativeQueryTime) {
  const PerfTrace t({1.0}, 1.0);
  EXPECT_THROW((void)t.at(-1.0), PreconditionError);
}

// --- zero-order-hold windows ------------------------------------------------

/// Bin that `offset + t` falls in (before wrapping), as sampleAtOffset
/// computes it.
double binOf(const PerfTrace& trace, SimTime offset, SimTime t) {
  return std::floor((offset + t) / trace.samplePeriod());
}

/// The window formula sampleAtOffset replaced, stepping with libm
/// std::nextafter; kept here so the one-pass form is pinned to it.
SimTime nextafterWindow(const PerfTrace& trace, SimTime offset, SimTime t) {
  if (trace.sampleCount() == 1) {
    return std::numeric_limits<SimTime>::infinity();
  }
  const double period = trace.samplePeriod();
  const double k = std::floor((offset + t) / period);
  SimTime until = (k + 1.0) * period - offset;
  const double boundary_sum = offset + until;
  const double sum_step =
      std::nextafter(boundary_sum, std::numeric_limits<double>::infinity()) -
      boundary_sum;
  until -= 4.0 * sum_step;
  while (until > t &&
         std::floor((offset + std::nextafter(until, t)) / period) > k) {
    until = std::nextafter(until, t);
  }
  return until > t ? until : t;
}

/// Seeded (trace, offset, t) draws over the FutureGrid corpus: offsets
/// anywhere in [0, duration], query times from 0 to ~12 days, plus a share
/// of queries placed exactly on a bin edge.
struct WindowDraw {
  const PerfTrace* trace;
  SimTime offset;
  SimTime t;
};

template <class Fn>
void forEachDraw(std::uint64_t seed, int count, Fn&& fn) {
  const auto corpus = TraceReplayer::futureGridCorpus();
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    const auto& pool = i % 3 == 0   ? corpus->cpu
                       : i % 3 == 1 ? corpus->latency
                                    : corpus->bandwidth;
    const PerfTrace& trace = pool[static_cast<std::size_t>(i) % pool.size()];
    const SimTime offset = rng.uniform(0.0, trace.duration());
    SimTime t = rng.uniform(0.0, 1.0e6);
    if (i % 4 == 0) {  // on (or next to) a bin edge
      const double edge = (binOf(trace, offset, t) + 1.0) *
                              trace.samplePeriod() -
                          offset;
      t = edge >= 0.0 ? edge : 0.0;
    }
    fn(WindowDraw{&trace, offset, t});
  }
}

TEST(PerfTraceWindow, ValueIsConstantOnTheWindow) {
  int cached = 0;
  forEachDraw(41, 20000, [&](const WindowDraw& d) {
    const PerfTrace& trace = *d.trace;
    const CoeffSample s = trace.sampleAtOffset(d.offset, d.t);
    EXPECT_EQ(s.value, trace.at(d.offset + d.t));
    ASSERT_GE(s.valid_until, d.t);
    if (s.valid_until == d.t) return;  // degenerate: nothing cached
    ++cached;
    const double k = binOf(trace, d.offset, d.t);
    const SimTime last = nextDown(s.valid_until);
    for (const SimTime q : {d.t, last, 0.5 * (d.t + s.valid_until),
                            d.t + 0.25 * (s.valid_until - d.t),
                            d.t + 0.75 * (s.valid_until - d.t)}) {
      EXPECT_EQ(binOf(trace, d.offset, q), k)
          << "offset " << d.offset << " t " << d.t << " q " << q;
      EXPECT_EQ(trace.sampleAtOffset(d.offset, q).value, s.value);
    }
  });
  EXPECT_GT(cached, 19000);
}

TEST(PerfTraceWindow, BinChangesWithinAFewUlpsPastTheWindow) {
  forEachDraw(42, 20000, [](const WindowDraw& d) {
    const PerfTrace& trace = *d.trace;
    const SimTime until = trace.sampleAtOffset(d.offset, d.t).valid_until;
    if (until == d.t) return;
    const double k = binOf(trace, d.offset, d.t);
    // The window ends a few steps of the rounded sum offset + t short of
    // the bin edge; eight such steps past it must reach the next bin.
    const double sum = d.offset + until;
    const double step = nextUp(sum) - sum;
    EXPECT_GT(binOf(trace, d.offset, until + 8.0 * step), k)
        << "offset " << d.offset << " t " << d.t << " until " << until;
  });
}

TEST(PerfTraceWindow, EqualsTheNextafterFormulaBitForBit) {
  forEachDraw(43, 20000, [](const WindowDraw& d) {
    const SimTime got = d.trace->sampleAtOffset(d.offset, d.t).valid_until;
    const SimTime want = nextafterWindow(*d.trace, d.offset, d.t);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << "offset " << d.offset << " t " << d.t;
  });
  // Hand-picked corners: zero offset and time, a full-duration offset,
  // queries on exact bin edges, and a far-future query.
  const PerfTrace t({1.0, 2.0, 3.0}, 300.0);
  for (const SimTime offset : {0.0, 0.1, 299.9, 300.0, 900.0}) {
    for (const SimTime q : {0.0, 1.0e-300, 299.9, 300.0, 600.0, 1.0e9}) {
      EXPECT_EQ(t.sampleAtOffset(offset, q).valid_until,
                nextafterWindow(t, offset, q))
          << offset << " " << q;
    }
  }
  EXPECT_EQ(PerfTrace::constant(0.5).sampleAtOffset(7.0, 3.0).valid_until,
            std::numeric_limits<SimTime>::infinity());
}

TEST(PerfTraceWindow, NextUpAndNextDownMatchNextafter) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kMin = std::numeric_limits<double>::min();
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  constexpr double kMax = std::numeric_limits<double>::max();
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  std::vector<double> xs = {0.0,      -0.0,     kDenorm,  -kDenorm,
                            2 * kDenorm, -2 * kDenorm, kMin, -kMin,
                            kMin - kDenorm, -(kMin - kDenorm), 1.0, -1.0,
                            0.5,      -0.5,     300.0,    -300.0,
                            345600.0, 1.0e300,  -1.0e300, kMax,
                            -kMax};
  Rng rng(44);
  for (int i = 0; i < 1000; ++i) {
    xs.push_back(rng.uniform(-1.0, 1.0) *
                 std::pow(10.0, rng.uniform(-300.0, 300.0)));
  }
  for (const double x : xs) {
    EXPECT_EQ(bits(nextUp(x)), bits(std::nextafter(x, kInf))) << x;
    EXPECT_EQ(bits(nextDown(x)), bits(std::nextafter(x, -kInf))) << x;
  }
}

}  // namespace
}  // namespace dds
