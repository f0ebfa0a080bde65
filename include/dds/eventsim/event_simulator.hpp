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
// The per-event hot paths are allocation-free and O(1) amortized: a
// per-PE free-core index rebuilt only when the cloud's allocation ledger
// generation moves, a (producer VM, successor PE) routing table whose
// entries carry exact zero-order-hold validity windows, core power and
// pair bandwidth read through the windowed CoeffCache the fluid kernel
// shares (synced at each free-core index rebuild), and one flat 4-ary
// heap of deliveries and completions held by value, with the pending
// arrival kept beside it.
// The simulator only reads the cloud: core ownership comes from the
// ledger, and the busy flags it claims and frees are its own.
//
// The test-only dds_oracle library holds a self-contained scan-everything
// implementation of the same model (oracle::ReferenceEventSimulator);
// fingerprint() compares the two byte-for-byte — same RNG consumption,
// latency samples, interval metrics and trace bytes.
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
#include <string>
#include <vector>

#include "dds/cloud/cloud_provider.hpp"
#include "dds/common/rng.hpp"
#include "dds/common/stats.hpp"
#include "dds/dataflow/dataflow.hpp"
#include "dds/eventsim/event_heap.hpp"
#include "dds/metrics/run_metrics.hpp"
#include "dds/monitor/coeff_cache.hpp"
#include "dds/monitor/monitoring.hpp"
#include "dds/sim/deployment.hpp"
#include "dds/sim/simulator.hpp"

namespace dds {

/// Event-simulation knobs: the shared SimConfig (message size, interval)
/// plus the arrival process and the latency reservoir.
struct EventSimConfig : SimConfig {
  std::uint64_t seed = 42;          ///< arrival-process seed.
  bool poisson_arrivals = true;     ///< false = deterministic spacing.
  /// Cap on stored end-to-end latency samples; past the cap the sample
  /// set is maintained as a uniform reservoir (Algorithm R) drawn from a
  /// dedicated RNG stream, so capped runs estimate the same percentiles
  /// as uncapped ones without perturbing the arrival process.
  std::size_t max_latency_samples = 200'000;

  /// SimConfig's rules plus a positive sample cap; throws
  /// PreconditionError.
  void validate() const;
};

/// Event-loop work counters. The first four are model-determined and part
/// of the bit-identity fingerprint; the cache counters and wall clock
/// describe the simulator's work and are excluded from it.
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
  EventSimulator(const Dataflow& df, const CloudProvider& cloud,
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

  /// CoeffCache::pairSlotTableEntries of the simulator's cache.
  [[nodiscard]] std::size_t pairSlotTableEntries() const {
    return coeff_.pairSlotTableEntries();
  }

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

  /// One dispatchable (vm, core) pair owned by a PE; the per-PE slot
  /// lists follow the peCores() scan order (VM id ascending, core index
  /// ascending) and are rebuilt only on ledger changes.
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

  void dispatchIdleCores(PeId pe, SimTime now, const Deployment& dep);
  void deliverDownstream(PeId from, VmId from_vm, const Message& msg,
                         SimTime now, const Deployment& dep);
  void enqueueAt(PeId pe, Message msg, SimTime now, const Deployment& dep);
  void handleCompletion(SimTime time, PeId pe, VmId vm, int core,
                        const Message& msg, const Deployment& dep);
  void recordDeliveredLatency(double latency);
  void refreshLedgerViews();
  [[nodiscard]] double routeDelay(VmId from_vm, PeId succ, SimTime now);
  void drain(SimTime t0, SimTime t1, double rate, const Deployment& dep);

  const Dataflow* df_;
  const CloudProvider* cloud_;
  const MonitoringService* mon_;
  EventSimConfig cfg_;

  IntervalIndex next_index_ = 0;
  std::vector<PeState> pe_state_;
  std::vector<Transit> in_transit_;  ///< migrated messages, insertion order.
  /// Migration downtime: no new dispatch at a PE before this time.
  std::vector<SimTime> pe_pause_until_;
  /// Busy flag per (vm, core) — indexed by VM id then core index.
  std::vector<std::vector<bool>> core_busy_;

  EventHeap heap_;
  std::vector<std::vector<CoreSlot>> pe_slots_;  ///< by PeId.
  std::vector<std::vector<VmId>> pe_vms_;  ///< VMs holding the PE's cores.
  /// Free-slot bitmap per PE over pe_slots_ indices (bit set = idle);
  /// find-first-set claims the lowest index, i.e. the (vm ascending, core
  /// ascending) dispatch order.
  std::vector<std::vector<std::uint64_t>> pe_free_;
  std::vector<std::vector<SlotRef>> slot_ref_;  ///< [VmId][core].
  std::uint64_t slots_gen_ = 0;
  bool slots_valid_ = false;
  std::vector<std::vector<RouteEntry>> routes_;  ///< [successor PE][VM].
  /// Core power and pair bandwidth, synced on every ledger-view rebuild.
  CoeffCache coeff_;

  EventSimResult result_;
  Rng rng_{0};
  Rng reservoir_rng_{0};  ///< latency-sample reservoir stream only.
};

}  // namespace dds
