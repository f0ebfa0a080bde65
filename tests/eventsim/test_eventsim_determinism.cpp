// Bit-identity, determinism, and golden-trace coverage for the event
// simulator, plus unit tests for the event heap and the latency-sample
// reservoir. The product's cached simulator must reproduce the
// self-contained oracle::ReferenceEventSimulator exactly, not
// approximately: every latency sample, counter, interval metric — and the
// trace bytes of an engine run — must match byte-for-byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "dds/common/rng.hpp"
#include "dds/common/stats.hpp"
#include "dds/core/engine.hpp"
#include "dds/dataflow/standard_graphs.hpp"
#include "dds/eventsim/event_heap.hpp"
#include "dds/eventsim/event_simulator.hpp"
#include "dds/obs/jsonl_sink.hpp"
#include "dds/oracle/invariants.hpp"
#include "dds/oracle/reference_event_simulator.hpp"
#include "dds/oracle/run_reference.hpp"
#include "dds/sched/heuristic_scheduler.hpp"
#include "golden.hpp"
#include "stepping.hpp"

namespace dds {
namespace {

// --- EventHeap -------------------------------------------------------------

TEST(EventHeap, PopsInTimeOrder) {
  EventHeap h;
  h.push(3.0, EventKind::Arrival, PeId(0), VmId(0), 0, 0.0);
  h.push(1.0, EventKind::Arrival, PeId(1), VmId(0), 0, 0.0);
  h.push(2.0, EventKind::Arrival, PeId(2), VmId(0), 0, 0.0);
  EXPECT_EQ(h.popTop().pe, PeId(1));
  EXPECT_EQ(h.popTop().pe, PeId(2));
  EXPECT_EQ(h.popTop().pe, PeId(0));
  EXPECT_TRUE(h.empty());
}

TEST(EventHeap, EqualTimesPopKindThenFifo) {
  EventHeap h;
  // Same timestamp: kind priority (Arrival < Delivery < Completion),
  // then insertion order within a kind.
  h.push(5.0, EventKind::Completion, PeId(10), VmId(0), 0, 0.0);
  h.push(5.0, EventKind::Delivery, PeId(11), VmId(0), 0, 0.0);
  h.push(5.0, EventKind::Arrival, PeId(12), VmId(0), 0, 0.0);
  h.push(5.0, EventKind::Delivery, PeId(13), VmId(0), 0, 0.0);
  EXPECT_EQ(h.popTop().pe, PeId(12));
  EXPECT_EQ(h.popTop().pe, PeId(11));
  EXPECT_EQ(h.popTop().pe, PeId(13));
  EXPECT_EQ(h.popTop().pe, PeId(10));
}

TEST(EventHeap, MatchesSortedOrderUnderInterleaving) {
  // Seeded push/pop interleavings against a stable sort by (time, kind)
  // of the queued events in insertion order. Four distinct times across
  // all three kinds make most comparisons ties; pops leave the root hole
  // that the next push, top() or popTop() must fill.
  struct Queued {
    double time;
    EventKind kind;
    std::int32_t id;  ///< insertion order, carried in Event::core.
  };
  const auto sortedFront = [](std::vector<Queued>& q) {
    std::stable_sort(q.begin(), q.end(),
                     [](const Queued& a, const Queued& b) {
                       return a.time != b.time ? a.time < b.time
                                               : a.kind < b.kind;
                     });
    const Queued front = q.front();
    q.erase(q.begin());
    return front;
  };
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    EventHeap h;
    std::vector<Queued> model;
    std::int32_t next_id = 0;
    const auto push = [&] {
      const Queued q{0.5 * static_cast<double>(rng.uniformInt(0, 3)),
                     static_cast<EventKind>(rng.uniformInt(0, 2)), next_id++};
      h.push(q.time, q.kind, PeId(0), VmId(0), q.id, 0.0);
      model.push_back(q);
    };
    for (int op = 0; op < 400; ++op) {
      // Bias toward pushes early and pops late so the heap both grows
      // past several levels and drains to empty.
      const bool pop = !model.empty() &&
                       rng.uniformInt(0, 399) < std::min(op + 100, 399);
      if (!pop) {
        push();
        continue;
      }
      const Event ev = h.popTop();
      const Queued want = sortedFront(model);
      ASSERT_EQ(ev.core, want.id) << "seed " << seed << " op " << op;
      ASSERT_EQ(ev.time, want.time);
      ASSERT_EQ(ev.kind, want.kind);
      // The root is a hole now: the counts exclude it.
      ASSERT_EQ(h.size(), model.size());
      ASSERT_EQ(h.empty(), model.empty());
      switch (rng.uniformInt(0, 2)) {
        case 0:
          push();  // fills the hole with one sift-down
          break;
        case 1:
          if (!model.empty()) {
            // top() fills the hole from the back without popping.
            std::vector<Queued> peek = model;
            ASSERT_EQ(h.top().core, sortedFront(peek).id);
            ASSERT_EQ(h.size(), model.size());
          }
          break;
        default:
          break;  // the next popTop() fills the hole itself
      }
    }
    while (!model.empty()) {
      ASSERT_EQ(h.popTop().core, sortedFront(model).id) << "seed " << seed;
    }
    EXPECT_TRUE(h.empty());
    EXPECT_EQ(h.size(), 0u);
    EXPECT_THROW((void)h.popTop(), PreconditionError);
  }
}

// --- product simulator == reference simulator ------------------------------

/// The global heuristic deployed for `rate` on a 5-minute wave, stepped
/// directly — under its adaptation or on the fixed initial deployment —
/// so the whole EventSimResult can be fingerprinted.
template <class Simulator>
EventSimResult runHeuristic(const Dataflow& df, double rate, bool adaptive) {
  CloudProvider cloud(awsCatalog2013());
  TraceReplayer replayer = TraceReplayer::futureGridLike(2013);
  MonitoringService mon(cloud, replayer);
  SchedulerEnv env;
  env.dataflow = &df;
  env.cloud = &cloud;
  env.monitor = &mon;
  HeuristicScheduler sched(env, Strategy::Global,
                           adaptive ? SchedulerSpec::Mode::Adaptive
                                    : SchedulerSpec::Mode::Static);

  EventSimConfig cfg;
  cfg.seed = 7;
  Simulator sim(df, cloud, mon, cfg);
  PeriodicWaveRate profile(rate, 0.4 * rate, 300.0, 0.0);
  Deployment dep = sched.deploy(profile.rate(0.0));
  return adaptive ? runAdaptive(sim, sched, profile, std::move(dep), 300.0)
                  : runFixed(sim, profile, dep, 300.0);
}

/// An adaptive engine run on the event backend, as one canonical string
/// of every model-determined output: the JSONL trace, the latency summary,
/// the drain counters and each interval's per-PE stats (hexfloat). The
/// run also passes the per-interval invariants.
std::string adaptiveRun(const Dataflow& df, double rate, bool reference,
                        std::uint64_t* core_index_rebuilds = nullptr) {
  ExperimentConfig cfg;
  cfg.horizon_s = 10.0 * kSecondsPerMinute;
  cfg.workload.mean_rate = rate;
  cfg.workload.profile = ProfileKind::PeriodicWave;
  cfg.workload.infra_variability = true;
  cfg.seed = 7;
  cfg.backend = SimBackend::Event;
  std::ostringstream out;
  obs::JsonlTraceSink sink(out);
  const SimulationEngine engine(df, cfg);
  const ExperimentResult r =
      reference ? oracle::runReference(engine, parseScheduler("global"), &sink)
                : engine.run(parseScheduler("global"), &sink);
  oracle::expectIntervalInvariants(r, SimBackend::Event);
  out << std::hexfloat << r.messages_delivered << ' ' << r.latency_mean_s
      << ' ' << r.latency_p95_s << ' ' << r.latency_p99_s << '\n';
  for (const obs::MetricSample& m : r.metrics) {
    if (m.name == "eventsim.core_index_rebuilds" &&
        core_index_rebuilds != nullptr) {
      *core_index_rebuilds = static_cast<std::uint64_t>(m.value);
    }
    if (m.name == "eventsim.arrivals" || m.name == "eventsim.deliveries" ||
        m.name == "eventsim.completions" || m.name == "eventsim.dispatches") {
      out << m.name << ' ' << m.value << '\n';
    }
  }
  for (const IntervalMetrics& im : r.run.intervals()) {
    for (const PeIntervalStats& ps : im.pe_stats) {
      out << ps.arrival_rate << ' ' << ps.offered_rate << ' '
          << ps.processed_rate << ' ' << ps.output_rate << ' '
          << ps.capacity_rate << ' ' << ps.relative_throughput << ' '
          << ps.backlog_msgs << ' ' << ps.allocated_cores << '\n';
    }
  }
  return out.str();
}

TEST(EventSimIdentity, CachedMatchesReferenceStatic) {
  const Dataflow df = makePaperDataflow();
  const EventSimResult ref =
      runHeuristic<oracle::ReferenceEventSimulator>(df, 20.0, false);
  const EventSimResult cached = runHeuristic<EventSimulator>(df, 20.0, false);
  EXPECT_EQ(fingerprint(ref), fingerprint(cached));
  EXPECT_GT(cached.counters.drained(), 0u);
}

TEST(EventSimIdentity, CachedMatchesReferenceAdaptive) {
  // Adaptation reallocates cores mid-run: the ledger generation moves and
  // every cache layer must invalidate at exactly the right events. The
  // stepped run compares every field of the result; the engine run adds
  // migration, probes and the trace.
  const Dataflow df = makePaperDataflow();
  const EventSimResult ref =
      runHeuristic<oracle::ReferenceEventSimulator>(df, 25.0, true);
  const EventSimResult cached = runHeuristic<EventSimulator>(df, 25.0, true);
  EXPECT_EQ(fingerprint(ref), fingerprint(cached));
  EXPECT_GT(cached.counters.core_index_rebuilds, 1u);

  std::uint64_t rebuilds = 0;
  EXPECT_EQ(adaptiveRun(df, 25.0, true),
            adaptiveRun(df, 25.0, false, &rebuilds));
  EXPECT_GT(rebuilds, 1u);
}

TEST(EventSimIdentity, SameSeedSameEngineIsDeterministic) {
  const Dataflow df = makeChainDataflow(4, 2);
  EXPECT_EQ(fingerprint(runHeuristic<EventSimulator>(df, 15.0, true)),
            fingerprint(runHeuristic<EventSimulator>(df, 15.0, true)));
  EXPECT_EQ(adaptiveRun(df, 15.0, false), adaptiveRun(df, 15.0, false));
}

/// Deterministic arrivals at `rate` onto a two-PE pipeline whose source
/// holds an m1.medium core (first) and an m1.small core, its sink two
/// m1.large cores; stepped for 10 minutes on that fixed deployment.
template <class Simulator>
EventSimResult runArrivalTies(const Dataflow& df, double rate) {
  CloudProvider cloud(awsCatalog2013());
  TraceReplayer replayer = TraceReplayer::ideal();
  MonitoringService mon(cloud, replayer);
  const VmId medium = cloud.acquire(ResourceClassId(1), 0.0);
  const VmId small = cloud.acquire(ResourceClassId(0), 0.0);
  const VmId large = cloud.acquire(ResourceClassId(2), 0.0);
  cloud.allocateCore(medium, PeId(0));
  cloud.allocateCore(small, PeId(0));
  cloud.allocateCore(large, PeId(1));
  cloud.allocateCore(large, PeId(1));
  EventSimConfig cfg;
  cfg.poisson_arrivals = false;
  Simulator sim(df, cloud, mon, cfg);
  const Deployment dep(df);
  return runFixed(sim, ConstantRate(rate), dep, 600.0);
}

TEST(EventSimIdentity, ArrivalTiesMatchReference) {
  // Deterministic arrivals every 0.5 s (or 0.25 s, overloading the
  // source) onto a source whose first core (m1.medium, power 2) serves a
  // cost-1 message in exactly 0.5 s and whose second (m1.small, power 1)
  // in 1 s: completions land on arrival instants and on interval ends
  // (60 s is a multiple of both spacings). Who wins the tie decides
  // which core serves the arrival — and so its service time — so the
  // cached simulator must let the arrival win, as the reference does.
  DataflowBuilder b("ties");
  const PeId src = b.addPe("src", {{"src", 1.0, 1.0, 1.0}});
  const PeId sink = b.addPe("sink", {{"sink", 1.0, 1.0, 1.0}});
  b.addEdge(src, sink);
  const Dataflow df = std::move(b).build();
  for (const double rate : {2.0, 4.0}) {
    const EventSimResult ref =
        runArrivalTies<oracle::ReferenceEventSimulator>(df, rate);
    const EventSimResult cached = runArrivalTies<EventSimulator>(df, rate);
    EXPECT_EQ(fingerprint(ref), fingerprint(cached)) << "rate " << rate;
    EXPECT_GT(cached.messages_delivered, 0u);
  }
}

TEST(EventSimIdentity, PairSlotTableStaysLinearUnderVmChurn) {
  // Every interval moves both PEs of a pipeline onto fresh VMs and stops
  // the old ones, so VM ids climb and are never reused. The coefficient
  // cache must free the stopped producers' pair rows, or the table would
  // hold ~(VMs ever acquired)^2 / 2 entries. A message still in service
  // on a stopped source VM completes and routes from it, re-creating its
  // freed row until the next ledger change frees it again. The oracle
  // steps the same ledger alongside.
  DataflowBuilder b("pipe");
  const PeId src = b.addPe("src", {{"src", 1.0, 0.1, 1.0}});
  const PeId sink = b.addPe("sink", {{"sink", 1.0, 0.1, 1.0}});
  b.addEdge(src, sink);
  const Dataflow df = std::move(b).build();
  CloudProvider cloud(awsCatalog2013());
  TraceReplayer replayer = TraceReplayer::futureGridLike(11);
  MonitoringService mon(cloud, replayer);
  EventSimConfig cfg;
  cfg.seed = 5;
  EventSimulator sim(df, cloud, mon, cfg);
  oracle::ReferenceEventSimulator ref(df, cloud, mon, cfg);
  const Deployment dep(df);
  constexpr IntervalIndex kIntervals = 300;
  int recreated_rows = 0;
  for (IntervalIndex i = 0; i < kIntervals; ++i) {
    const SimTime t = static_cast<SimTime>(i) * cfg.interval_s;
    const std::vector<VmId> retiring = cloud.activeVms();
    for (const PeId pe : {src, sink}) {
      cloud.allocateCore(cloud.acquire(ResourceClassId(0), t), pe);
    }
    for (const VmId vm : retiring) {
      for (const PeId pe : {src, sink}) {
        (void)cloud.releaseAllCoresOf(vm, pe);
      }
      cloud.release(vm, t);
    }
    (void)sim.step(i, 8.0, dep);
    (void)ref.step(i, 8.0, dep);
    // The running source's row reaches the newest id; a re-created row of
    // the stopped source does too.
    ASSERT_LE(sim.pairSlotTableEntries(),
              cloud.activeIds().size() * cloud.instanceCount())
        << "interval " << i;
    if (sim.pairSlotTableEntries() > cloud.instanceCount()) ++recreated_rows;
  }
  EXPECT_EQ(fingerprint(sim.result()), fingerprint(ref.result()));
  EXPECT_GT(sim.result().messages_delivered, 0u);
  EXPECT_EQ(cloud.instanceCount(), 2u * kIntervals);
  EXPECT_GT(recreated_rows, 0);
}

// --- golden engine trace ---------------------------------------------------

std::string runTracedEventBackend(bool reference_engine) {
  ExperimentConfig cfg;
  cfg.horizon_s = 10.0 * kSecondsPerMinute;
  cfg.workload.mean_rate = 10.0;
  cfg.workload.profile = ProfileKind::PeriodicWave;
  cfg.workload.infra_variability = true;
  cfg.seed = 77;
  cfg.backend = SimBackend::Event;
  const Dataflow df = makePaperDataflow();
  std::ostringstream out;
  obs::JsonlTraceSink sink(out);
  const SimulationEngine engine(df, cfg);
  const ExperimentResult r =
      reference_engine
          ? oracle::runReference(engine, parseScheduler("global"), &sink)
          : engine.run(parseScheduler("global"), &sink);
  oracle::expectIntervalInvariants(r, SimBackend::Event);
  return out.str();
}

constexpr const char* kEventSimFixture =
    "eventsim/testdata/golden_eventsim_trace.jsonl";

TEST(EventSimGolden, CachedEngineTraceByteIdentical) {
  expectMatchesGolden(runTracedEventBackend(false), kEventSimFixture);
}

TEST(EventSimGolden, ReferenceEngineTraceByteIdentical) {
  // Same fixture on purpose: the two engines must emit the same bytes.
  EXPECT_EQ(runTracedEventBackend(true), readGolden(kEventSimFixture));
}

// --- latency-sample reservoir ----------------------------------------------

TEST(EventSimReservoir, CappedRunKeepsPercentilesAndArrivals) {
  const Dataflow df = makePaperDataflow();
  auto run = [&](std::size_t cap) {
    CloudProvider cloud(awsCatalog2013());
    TraceReplayer replayer = TraceReplayer::futureGridLike(2013);
    MonitoringService mon(cloud, replayer);
    SchedulerEnv env;
    env.dataflow = &df;
    env.cloud = &cloud;
    env.monitor = &mon;
    HeuristicScheduler sched(env, Strategy::Global);
    EventSimConfig cfg;
    cfg.seed = 11;
    cfg.max_latency_samples = cap;
    EventSimulator sim(df, cloud, mon, cfg);
    const Deployment dep = sched.deploy(20.0);
    return runFixed(sim, ConstantRate(20.0), dep, 300.0);
  };
  const EventSimResult uncapped = run(1u << 30);
  const EventSimResult capped = run(500);

  ASSERT_GT(uncapped.latency_samples.size(), 2000u);
  ASSERT_EQ(capped.latency_samples.size(), 500u);
  // The reservoir draws from a dedicated RNG stream: arrivals (and the
  // full-population latency moments) must be unaffected by the cap.
  EXPECT_EQ(capped.messages_injected, uncapped.messages_injected);
  EXPECT_EQ(capped.latency.count(), uncapped.latency.count());
  EXPECT_DOUBLE_EQ(capped.latency.mean(), uncapped.latency.mean());
  // A uniform 500-sample reservoir estimates the population percentiles;
  // tolerance scales with the spread of the distribution.
  const double spread = percentile(uncapped.latency_samples, 95) -
                        percentile(uncapped.latency_samples, 5);
  for (const double p : {50.0, 90.0, 95.0}) {
    EXPECT_NEAR(percentile(capped.latency_samples, p),
                percentile(uncapped.latency_samples, p), 0.25 * spread)
        << "p" << p;
  }
}

}  // namespace
}  // namespace dds
