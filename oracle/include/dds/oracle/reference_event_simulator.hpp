// Reference event simulator: the straightforward scan-everything
// implementation of the message-level model that EventSimulator caches.
//
// Per event it scans the ledger for the PE's cores (peCores), queries the
// monitor directly, and keeps deliveries and completions in two
// priority queues ordered by (time, insertion stamp), with the pending
// arrival held beside them. It carries its own copy of every model rule —
// FIFO queueing, selectivity credit, the latency reservoir, migrate /
// pause / drop and the interval metrics — and shares no model code with
// the product, so a bit-identical fingerprint() checks those rules as
// well as the product's caches.
//
// It exists only as a bit-identity oracle: tests and benches link it,
// the product does not.
#pragma once

#include <deque>
#include <functional>
#include <queue>
#include <vector>

#include "dds/cloud/cloud_provider.hpp"
#include "dds/common/rng.hpp"
#include "dds/dataflow/dataflow.hpp"
#include "dds/eventsim/event_simulator.hpp"
#include "dds/metrics/run_metrics.hpp"
#include "dds/monitor/monitoring.hpp"
#include "dds/sim/deployment.hpp"

namespace dds::oracle {

/// Same constructor, seam calls and result type as EventSimulator.
class ReferenceEventSimulator {
 public:
  ReferenceEventSimulator(const Dataflow& df, const CloudProvider& cloud,
                          const MonitoringService& mon, EventSimConfig cfg);

  [[nodiscard]] IntervalMetrics step(IntervalIndex index, double input_rate,
                                     const Deployment& deployment);
  void migrateBacklog(PeId pe, double fraction);
  void pauseService(PeId pe, SimTime seconds);
  double dropBacklog(PeId pe, double fraction);

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

  /// A message in flight over the network toward `pe`. `seq` makes the
  /// ordering total: equal-time events pop FIFO.
  struct Delivery {
    SimTime time;
    std::uint64_t seq = 0;
    PeId pe;
    Message msg;
    bool operator>(const Delivery& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };

  /// A busy core finishes a message at `time`.
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

  /// Messages pulled out of a queue by migrateBacklog, due back at `due`.
  struct Transit {
    SimTime due;
    PeId pe;
    std::deque<Message> msgs;
  };

  [[nodiscard]] SimTime nextStart() const {
    return static_cast<SimTime>(next_index_) * cfg_.interval_s;
  }

  void dispatchIdleCores(PeId pe, SimTime now, const Deployment& dep);
  void deliverDownstream(PeId from, VmId from_vm, const Message& msg,
                         SimTime now, const Deployment& dep);
  void enqueueAt(PeId pe, Message msg, SimTime now, const Deployment& dep);
  void handleCompletion(const Completion& done, const Deployment& dep);
  void recordDeliveredLatency(double latency);
  [[nodiscard]] double routeDelay(VmId from_vm, PeId succ, SimTime now) const;
  void drain(SimTime t0, SimTime t1, double rate, const Deployment& dep);

  const Dataflow* df_;
  const CloudProvider* cloud_;
  const MonitoringService* mon_;
  EventSimConfig cfg_;

  IntervalIndex next_index_ = 0;
  std::vector<PeState> pe_state_;
  std::vector<Transit> in_transit_;  ///< migrated messages, insertion order.
  std::vector<SimTime> pe_pause_until_;  ///< no dispatch before this time.
  /// Busy flag per (vm, core) — indexed by VM id then core index.
  std::vector<std::vector<bool>> core_busy_;

  std::priority_queue<Completion, std::vector<Completion>,
                      std::greater<Completion>>
      completions_;
  std::priority_queue<Delivery, std::vector<Delivery>,
                      std::greater<Delivery>>
      deliveries_;
  std::uint64_t seq_ = 0;  ///< tie-break stamp for the queues above.

  EventSimResult result_;
  Rng rng_{0};
  Rng reservoir_rng_{0};  ///< latency-sample reservoir stream only.
};

}  // namespace dds::oracle
