// Discrete-event, message-level simulator.
//
// The fluid simulator (dds/sim) models each adaptation interval in steady
// state — ideal for long sweeps. This module simulates *individual
// messages*: Poisson arrivals modulated by the rate profile, one-at-a-time
// service on each allocated core (service time = c / observed core power),
// per-PE FIFO queues, and network transfer delays (latency + size over
// observed bandwidth) between VMs. It produces the same per-interval
// IntervalMetrics series as the fluid simulator *plus* end-to-end message
// latency statistics — the processing-latency QoS dimension the paper's
// introduction motivates ("penalty of high processing latencies during
// the high data rate period").
//
// Two engines share one model. The *cached* engine (default) keeps the
// per-event hot paths allocation-free and O(1) amortized: a per-PE
// free-core index rebuilt only when the cloud's allocation ledger
// generation moves, a (producer VM, successor PE) routing table whose
// entries carry exact zero-order-hold validity windows, a memoized
// core-power lookup, and one flat 4-ary heap of deliveries and
// completions held by value, with the pending arrival kept beside it as
// in the reference drain loop. The *reference* engine is the
// straightforward scan-everything implementation. Both produce
// bit-identical results — same RNG consumption, latency samples, interval
// metrics and trace bytes — which fingerprint() checks byte-for-byte (the
// throughput benchmark asserts it on every row).
//
// The simulator is a stepper: SimulationEngine drives it one interval at
// a time through the same four calls as the fluid simulator (step,
// migrateBacklog, pauseService, dropBacklog), and the engine's interval
// loop owns the clock, the scheduler and every trace record.
//
// The two simulators cross-validate each other: under identical
// deployments their throughput agrees (see tests/eventsim).
#pragma once

#include <deque>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "dds/cloud/cloud_provider.hpp"
#include "dds/common/rng.hpp"
#include "dds/common/stats.hpp"
#include "dds/dataflow/dataflow.hpp"
#include "dds/eventsim/event_heap.hpp"
#include "dds/metrics/run_metrics.hpp"
#include "dds/monitor/lookup_cache.hpp"
#include "dds/monitor/monitoring.hpp"
#include "dds/sim/deployment.hpp"

namespace dds {

/// Event-simulation knobs.
struct EventSimConfig {
  /// Which hot-path implementation to run. Both are bit-identical;
  /// Reference exists as the cross-check oracle and perf baseline.
  enum class Engine { Cached, Reference };

  double msg_size_bytes = 100.0e3;  ///< ~100 KB/msg (§8.1).
  SimTime interval_s = 60.0;        ///< adaptation/metrics interval.
  std::uint64_t seed = 42;          ///< arrival-process seed.
  bool poisson_arrivals = true;     ///< false = deterministic spacing.
  /// Cap on stored end-to-end latency samples; past the cap the sample
  /// set is maintained as a uniform reservoir (Algorithm R) drawn from a
  /// dedicated RNG stream, so capped runs estimate the same percentiles
  /// as uncapped ones without perturbing the arrival process.
  std::size_t max_latency_samples = 200'000;
  Engine engine = Engine::Cached;

  void validate() const;
};

/// Event-loop work counters. The first four are model-determined and part
/// of the bit-identity fingerprint; the cache counters and wall clock
/// describe the engine's work and are excluded from it.
struct EventSimCounters {
  std::uint64_t arrivals = 0;     ///< external arrival events drained.
  std::uint64_t deliveries = 0;   ///< network delivery events drained.
  std::uint64_t completions = 0;  ///< core completion events drained.
  std::uint64_t dispatches = 0;   ///< messages started on a core.
  std::uint64_t route_refreshes = 0;      ///< routing-table recomputes.
  std::uint64_t core_index_rebuilds = 0;  ///< free-core index rebuilds.

  /// Total events drained — the numerator of events/second.
  [[nodiscard]] std::uint64_t drained() const {
    return arrivals + deliveries + completions;
  }
};

/// End-to-end latency summary plus the per-interval metric series,
/// accumulated over every step() so far.
struct EventSimResult {
  RunResult intervals;              ///< same shape as the fluid simulator.
  std::size_t messages_injected = 0;
  std::size_t messages_delivered = 0;  ///< completions at output PEs.
  RunningStats latency;             ///< end-to-end seconds, all deliveries.
  std::vector<double> latency_samples;  ///< capped reservoir (percentiles).
  /// Queue-wait seconds per PE (enqueue -> service start), by PeId:
  /// the per-stage latency breakdown that identifies the bottleneck.
  std::vector<RunningStats> pe_queue_wait;
  EventSimCounters counters;
  double wall_seconds = 0.0;  ///< wall-clock time spent inside step().

  [[nodiscard]] double latencyPercentile(double p) const;

  /// PE with the largest mean queue wait among PEs that actually queued
  /// at least one message; PeId(0) when nothing queued anywhere.
  [[nodiscard]] PeId worstQueueingPe() const;
};

/// Canonical byte string over every model-determined field of a result
/// (hexfloat, so equal strings mean bit-equal doubles). Two runs are
/// bit-identical iff their fingerprints compare equal; cache-work counters
/// and wall_seconds are deliberately excluded.
[[nodiscard]] std::string fingerprint(const EventSimResult& r);

/// Simulates a deployed dataflow at message granularity, one interval per
/// step(). Intervals must be stepped in order, starting at 0.
class EventSimulator {
 public:
  EventSimulator(const Dataflow& df, CloudProvider& cloud,
                 const MonitoringService& mon, EventSimConfig cfg);

  /// Drain every event of interval `index` with external arrivals at
  /// `input_rate` under `deployment`, and return the interval's metrics
  /// (also appended to result().intervals).
  [[nodiscard]] IntervalMetrics step(IntervalIndex index, double input_rate,
                                     const Deployment& deployment);

  /// Pull round(fraction x queue length) messages off the back of `pe`'s
  /// queue; they re-enter it at the start of the interval after the next
  /// step (network transfer of migrated buffers, §5).
  void migrateBacklog(PeId pe, double fraction);

  /// Start no new service at `pe` for `seconds` from the start of the next
  /// step (state migration downtime); in-flight service still completes.
  /// Overlapping pauses extend to the latest end, they do not stack.
  void pauseService(PeId pe, SimTime seconds);

  /// Permanently drop round(fraction x queue length) of `pe`'s queued
  /// messages. Returns the number of messages lost.
  double dropBacklog(PeId pe, double fraction);

  /// Latency, counters, wall time and the interval series so far.
  [[nodiscard]] const EventSimResult& result() const { return result_; }

 private:
  struct Message {
    SimTime created;
    SimTime enqueued = 0.0;  ///< when it entered the current PE's queue.
  };

  /// One PE's runtime state: FIFO queue plus selectivity credit.
  struct PeState {
    std::deque<Message> queue;
    double selectivity_credit = 0.0;
    std::size_t arrivals_in_interval = 0;
    std::size_t processed_in_interval = 0;
    std::size_t emitted_in_interval = 0;
  };

  /// A message in flight over the network toward `pe` (reference engine).
  /// `seq` makes the ordering total: equal-time events pop FIFO instead
  /// of in std::priority_queue's unspecified structural order, so results
  /// are well-defined, portable across standard libraries, and match the
  /// cached engine's event heap exactly.
  struct Delivery {
    SimTime time;
    std::uint64_t seq = 0;
    PeId pe;
    Message msg;
    bool operator>(const Delivery& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };

  /// A busy core finishes a message at `time` (reference engine).
  struct Completion {
    SimTime time;
    std::uint64_t seq = 0;
    PeId pe;
    VmId vm;
    int core = 0;  ///< which physical core frees up.
    Message msg;
    bool operator>(const Completion& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };

  /// One dispatchable (vm, core) pair owned by a PE; the per-PE slot
  /// lists mirror the reference peCores() scan order (VM id ascending,
  /// core index ascending) and are rebuilt only on ledger changes.
  struct CoreSlot {
    VmId vm;
    std::int32_t core = 0;
  };

  /// Cached network delay from a producer VM to a successor PE. Valid
  /// while the allocation ledger generation matches (core placement
  /// decides colocation and the candidate VM set) and `now` is inside
  /// the folded zero-order-hold window of every coefficient consulted.
  struct RouteEntry {
    double delay = 0.0;
    SimTime valid_until = -1.0;
    std::uint64_t ledger_gen = ~std::uint64_t{0};
  };

  /// Memoized observedBandwidthSample for one (producer VM, candidate VM)
  /// pair. Route refreshes fold hundreds of pair coefficients; caching
  /// each pair inside its own zero-order-hold window turns those folds
  /// into array reads.
  struct PairSample {
    double value = 0.0;
    SimTime valid_until = -1.0;
  };

  /// Where a (vm, core) currently sits in the free-core index: which PE
  /// owns it and at which position in that PE's slot list.
  struct SlotRef {
    PeId owner{0};
    std::uint32_t idx = kNoSlot;
  };
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// Messages pulled out of a queue by migrateBacklog, due back at `due`.
  struct Transit {
    SimTime due;
    PeId pe;
    std::deque<Message> msgs;
  };

  /// Start of the interval the next step() simulates.
  [[nodiscard]] SimTime nextStart() const {
    return static_cast<SimTime>(next_index_) * cfg_.interval_s;
  }

  // -- shared model logic (identical in both engines) -------------------
  void dispatchIdleCores(PeId pe, SimTime now, const Deployment& dep);
  void deliverDownstream(PeId from, VmId from_vm, const Message& msg,
                         SimTime now, const Deployment& dep);
  void enqueueAt(PeId pe, Message msg, SimTime now, const Deployment& dep);
  void handleCompletion(SimTime time, PeId pe, VmId vm, int core,
                        const Message& msg, const Deployment& dep);
  void recordDeliveredLatency(double latency);

  // -- reference engine -------------------------------------------------
  void dispatchIdleCoresReference(PeId pe, SimTime now,
                                  const Deployment& dep);
  [[nodiscard]] double referenceRouteDelay(VmId from_vm, PeId succ,
                                           SimTime now) const;
  void drainReference(SimTime t0, SimTime t1, double rate,
                      const Deployment& dep);

  // -- cached engine ----------------------------------------------------
  void refreshLedgerViews();
  void dispatchIdleCoresCached(PeId pe, SimTime now, const Deployment& dep);
  [[nodiscard]] double cachedRouteDelay(VmId from_vm, PeId succ,
                                        SimTime now);
  void drainCached(SimTime t0, SimTime t1, double rate,
                   const Deployment& dep);

  const Dataflow* df_;
  CloudProvider* cloud_;
  const MonitoringService* mon_;
  EventSimConfig cfg_;
  bool cached_ = true;

  IntervalIndex next_index_ = 0;
  std::vector<PeState> pe_state_;
  std::vector<Transit> in_transit_;  ///< migrated messages, insertion order.
  /// Migration downtime: no new dispatch at a PE before this time. Lives
  /// in the shared model logic so both engines stay bit-identical.
  std::vector<SimTime> pe_pause_until_;
  /// Busy flag per (vm, core) — indexed by VM id then core index.
  std::vector<std::vector<bool>> core_busy_;

  // Reference-engine event queues.
  std::priority_queue<Completion, std::vector<Completion>,
                      std::greater<Completion>>
      completions_;
  std::priority_queue<Delivery, std::vector<Delivery>,
                      std::greater<Delivery>>
      deliveries_;
  std::uint64_t ref_seq_ = 0;  ///< tie-break stamp for the queues above.

  // Cached-engine state.
  EventHeap heap_;
  std::vector<std::vector<CoreSlot>> pe_slots_;  ///< by PeId.
  std::vector<std::vector<VmId>> pe_vms_;  ///< VMs holding the PE's cores.
  /// Free-slot bitmap per PE over pe_slots_ indices (bit set = idle);
  /// find-first-set claims the lowest index, i.e. the reference engine's
  /// (vm ascending, core ascending) dispatch order.
  std::vector<std::vector<std::uint64_t>> pe_free_;
  std::vector<std::vector<SlotRef>> slot_ref_;  ///< [VmId][core].
  std::uint64_t slots_gen_ = 0;
  bool slots_valid_ = false;
  std::vector<std::vector<RouteEntry>> routes_;  ///< [successor PE][VM].
  std::vector<std::vector<PairSample>> bw_pairs_;  ///< [from VM][to VM].
  CorePowerCache power_;

  EventSimResult result_;
  Rng rng_{0};
  Rng reservoir_rng_{0};  ///< latency-sample reservoir stream only.
};

}  // namespace dds
