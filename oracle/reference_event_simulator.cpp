#include "dds/oracle/reference_event_simulator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "dds/sim/rate_model.hpp"

namespace dds::oracle {

ReferenceEventSimulator::ReferenceEventSimulator(const Dataflow& df,
                                                 const CloudProvider& cloud,
                                                 const MonitoringService& mon,
                                                 EventSimConfig cfg)
    : df_(&df),
      cloud_(&cloud),
      mon_(&mon),
      cfg_(cfg),
      rng_(cfg.seed),
      reservoir_rng_(cfg.seed ^ 0x5ee5a11e5ull) {
  cfg_.validate();
  const std::size_t n = df.peCount();
  pe_state_.assign(n, {});
  pe_pause_until_.assign(n, 0.0);
  result_.pe_queue_wait.assign(n, RunningStats{});
}

// ---------------------------------------------------------------------------
// Model rules.
// ---------------------------------------------------------------------------

void ReferenceEventSimulator::dispatchIdleCores(PeId pe, SimTime now,
                                                const Deployment& dep) {
  // Migration downtime gate: while the PE's buffered state is in flight,
  // no new message may start service (queued arrivals wait; cores already
  // busy run to completion).
  if (now < pe_pause_until_[pe.value()]) return;
  PeState& st = pe_state_[pe.value()];
  if (st.queue.empty()) return;
  const auto& alt = df_->pe(pe).alternate(dep.activeAlternate(pe));
  for (const auto& vc : peCores(*cloud_, pe)) {
    const VmInstance& vm = cloud_->instance(vc.vm);
    if (vc.vm.value() >= core_busy_.size()) {
      core_busy_.resize(vc.vm.value() + 1);
    }
    auto& busy = core_busy_[vc.vm.value()];
    if (busy.size() < static_cast<std::size_t>(vm.coreCount())) {
      busy.resize(static_cast<std::size_t>(vm.coreCount()), false);
    }
    for (int c = 0; c < vm.coreCount() && !st.queue.empty(); ++c) {
      const auto owner = vm.coreOwner(c);
      if (!owner.has_value() || *owner != pe) continue;
      if (busy[static_cast<std::size_t>(c)]) continue;
      // Claim the core and start the message at the head of the queue.
      busy[static_cast<std::size_t>(c)] = true;
      const Message msg = st.queue.front();
      st.queue.pop_front();
      result_.pe_queue_wait[pe.value()].add(now - msg.enqueued);
      ++result_.counters.dispatches;
      const double speed = mon_->observedCorePower(vc.vm, now);
      const double service =
          speed > 0.0 ? alt.cost_core_sec / speed
                      : std::numeric_limits<double>::infinity();
      completions_.push({now + service, seq_++, pe, vc.vm, c, msg});
    }
    if (st.queue.empty()) break;
  }
}

void ReferenceEventSimulator::enqueueAt(PeId pe, Message msg, SimTime now,
                                        const Deployment& dep) {
  msg.enqueued = now;
  pe_state_[pe.value()].queue.push_back(msg);
  ++pe_state_[pe.value()].arrivals_in_interval;
  dispatchIdleCores(pe, now, dep);
}

double ReferenceEventSimulator::routeDelay(VmId from_vm, PeId succ,
                                           SimTime now) const {
  double delay = 0.0;
  bool colocated = false;
  double best_mbps = 0.0;
  for (const auto& vc : peCores(*cloud_, succ)) {
    if (vc.vm == from_vm) {
      colocated = true;
      break;
    }
    best_mbps =
        std::max(best_mbps, mon_->observedBandwidthMbps(from_vm, vc.vm, now));
  }
  if (!colocated && best_mbps > 0.0) {
    // Route over the best-connected target VM: one-way latency plus the
    // serialization time of a ~100 KB message at the observed bandwidth.
    for (const auto& vc : peCores(*cloud_, succ)) {
      if (mon_->observedBandwidthMbps(from_vm, vc.vm, now) == best_mbps) {
        delay = mon_->observedLatencyMs(from_vm, vc.vm, now) / 1000.0 +
                cfg_.msg_size_bytes * 8.0 / (best_mbps * 1.0e6);
        break;
      }
    }
  }
  return delay;
}

void ReferenceEventSimulator::deliverDownstream(PeId from, VmId from_vm,
                                                const Message& msg,
                                                SimTime now,
                                                const Deployment& dep) {
  // And-split: every successor receives a copy. The copy keeps the
  // original creation time so end-to-end latency spans the whole path.
  for (const PeId succ : df_->successors(from)) {
    // Network cost from the producing VM to the successor's best VM;
    // colocated flows are in-memory (§4).
    const double delay = routeDelay(from_vm, succ, now);
    if (delay <= 0.0) {
      enqueueAt(succ, msg, now, dep);
    } else {
      deliveries_.push({now + delay, seq_++, succ, msg});
    }
  }
}

void ReferenceEventSimulator::recordDeliveredLatency(double latency) {
  result_.latency.add(latency);
  ++result_.messages_delivered;
  if (result_.latency_samples.size() < cfg_.max_latency_samples) {
    result_.latency_samples.push_back(latency);
    return;
  }
  // Algorithm R: past the cap, the i-th delivery replaces a random stored
  // sample with probability cap/i, from a dedicated stream.
  const auto seen = static_cast<std::int64_t>(result_.latency.count());
  const std::int64_t j = reservoir_rng_.uniformInt(0, seen - 1);
  if (j < static_cast<std::int64_t>(cfg_.max_latency_samples)) {
    result_.latency_samples[static_cast<std::size_t>(j)] = latency;
  }
}

void ReferenceEventSimulator::handleCompletion(const Completion& done,
                                               const Deployment& dep) {
  // Free the physical core (ownership may have changed during
  // adaptation; the busy flag is positional, so this stays correct).
  if (done.vm.value() < core_busy_.size()) {
    auto& busy = core_busy_[done.vm.value()];
    if (static_cast<std::size_t>(done.core) < busy.size()) {
      busy[static_cast<std::size_t>(done.core)] = false;
    }
  }
  PeState& st = pe_state_[done.pe.value()];
  ++st.processed_in_interval;

  const auto& alt = df_->pe(done.pe).alternate(dep.activeAlternate(done.pe));
  if (df_->isOutput(done.pe)) {
    recordDeliveredLatency(done.time - done.msg.created);
  }
  // Selectivity as credit so fractional ratios average out exactly.
  st.selectivity_credit += alt.selectivity;
  while (st.selectivity_credit >= 1.0 - 1e-12) {
    st.selectivity_credit -= 1.0;
    ++st.emitted_in_interval;
    deliverDownstream(done.pe, done.vm, done.msg, done.time, dep);
  }
  dispatchIdleCores(done.pe, done.time, dep);
}

void ReferenceEventSimulator::drain(SimTime t0, SimTime t1, double rate,
                                    const Deployment& dep) {
  // Piecewise-constant arrival rate within the interval.
  SimTime next_arrival = std::numeric_limits<SimTime>::infinity();
  if (rate > 0.0) {
    next_arrival =
        t0 + (cfg_.poisson_arrivals ? rng_.exponential(rate) : 1.0 / rate);
  }

  // Drain events in time order until the interval ends.
  while (true) {
    const SimTime completion_time =
        completions_.empty() ? std::numeric_limits<SimTime>::infinity()
                             : completions_.top().time;
    const SimTime delivery_time =
        deliveries_.empty() ? std::numeric_limits<SimTime>::infinity()
                            : deliveries_.top().time;
    const SimTime next_time =
        std::min({next_arrival, completion_time, delivery_time});
    if (next_time >= t1) break;

    if (next_arrival <= completion_time && next_arrival <= delivery_time) {
      // External message enters every input PE (same stream fan-in as
      // the fluid model).
      ++result_.messages_injected;
      ++result_.counters.arrivals;
      for (const PeId in : df_->inputs()) {
        enqueueAt(in, Message{next_arrival, next_arrival}, next_arrival,
                  dep);
      }
      next_arrival +=
          cfg_.poisson_arrivals ? rng_.exponential(rate) : 1.0 / rate;
    } else if (delivery_time <= completion_time) {
      const Delivery arriving = deliveries_.top();
      deliveries_.pop();
      ++result_.counters.deliveries;
      enqueueAt(arriving.pe, arriving.msg, arriving.time, dep);
    } else {
      const Completion done = completions_.top();
      completions_.pop();
      ++result_.counters.completions;
      handleCompletion(done, dep);
    }
  }
}

// ---------------------------------------------------------------------------
// The stepper seam.
// ---------------------------------------------------------------------------

namespace {

/// How many of `queued` messages a `fraction` share is (at most all).
std::size_t shareOf(std::size_t queued, double fraction) {
  DDS_REQUIRE(fraction >= 0.0 && fraction <= 1.0, "fraction out of range");
  return static_cast<std::size_t>(
      std::llround(static_cast<double>(queued) * fraction));
}

}  // namespace

void ReferenceEventSimulator::migrateBacklog(PeId pe, double fraction) {
  auto& queue = pe_state_.at(pe.value()).queue;
  const std::size_t take = shareOf(queue.size(), fraction);
  std::deque<Message> moved;
  for (std::size_t k = 0; k < take; ++k) {
    moved.push_back(queue.back());
    queue.pop_back();
  }
  if (!moved.empty()) {
    in_transit_.push_back(
        {nextStart() + cfg_.interval_s, pe, std::move(moved)});
  }
}

void ReferenceEventSimulator::pauseService(PeId pe, SimTime seconds) {
  DDS_REQUIRE(seconds >= 0.0, "pause must be non-negative");
  SimTime& until = pe_pause_until_.at(pe.value());
  until = std::max(until, nextStart() + seconds);
}

double ReferenceEventSimulator::dropBacklog(PeId pe, double fraction) {
  auto& queue = pe_state_.at(pe.value()).queue;
  const std::size_t lost = shareOf(queue.size(), fraction);
  queue.erase(queue.end() - static_cast<std::ptrdiff_t>(lost), queue.end());
  return static_cast<double>(lost);
}

IntervalMetrics ReferenceEventSimulator::step(IntervalIndex index, double rate,
                                              const Deployment& deployment) {
  DDS_REQUIRE(index == next_index_, "intervals must be stepped in order");
  const auto wall_start = std::chrono::steady_clock::now();
  const std::size_t n = df_->peCount();
  const SimTime dt = cfg_.interval_s;
  const SimTime t0 = nextStart();
  const SimTime t1 = t0 + dt;
  ++next_index_;

  // Resume PEs whose migration pause lapsed before this interval: their
  // queued messages got no dispatch kick while the gate was closed.
  for (std::size_t p = 0; p < n; ++p) {
    if (pe_pause_until_[p] > 0.0 && t0 >= pe_pause_until_[p]) {
      pe_pause_until_[p] = 0.0;
      if (!pe_state_[p].queue.empty()) {
        dispatchIdleCores(PeId(static_cast<PeId::value_type>(p)), t0,
                          deployment);
      }
    }
  }

  // Deliver any migrated messages whose transfer completed by t0, in
  // insertion order; the survivors keep their relative order.
  std::size_t keep = 0;
  for (std::size_t k = 0; k < in_transit_.size(); ++k) {
    Transit& tr = in_transit_[k];
    if (tr.due <= t0) {
      auto& queue = pe_state_[tr.pe.value()].queue;
      for (Message m : tr.msgs) {
        m.enqueued = t0;
        queue.push_back(m);
      }
      dispatchIdleCores(tr.pe, t0, deployment);
    } else {
      if (keep != k) in_transit_[keep] = std::move(tr);
      ++keep;
    }
  }
  in_transit_.resize(keep);

  for (auto& st : pe_state_) {
    st.arrivals_in_interval = 0;
    st.processed_in_interval = 0;
    st.emitted_in_interval = 0;
  }

  drain(t0, t1, rate, deployment);

  // Interval metrics, same shape as the fluid simulator's.
  IntervalMetrics m;
  m.index = index;
  m.start = t0;
  m.input_rate = rate;
  m.pe_stats.resize(n);
  const auto expected = expectedOutputRates(*df_, deployment, rate);
  double omega_acc = 0.0;
  for (std::size_t p = 0; p < n; ++p) {
    const PeId pe(static_cast<PeId::value_type>(p));
    PeIntervalStats& ps = m.pe_stats[p];
    const PeState& st = pe_state_[p];
    ps.arrival_rate = static_cast<double>(st.arrivals_in_interval) / dt;
    ps.processed_rate = static_cast<double>(st.processed_in_interval) / dt;
    ps.output_rate = static_cast<double>(st.emitted_in_interval) / dt;
    ps.offered_rate =
        ps.arrival_rate + static_cast<double>(st.queue.size()) / dt;
    ps.backlog_msgs = static_cast<double>(st.queue.size());
    ps.allocated_cores = totalCores(*cloud_, pe);
    const auto& alt = df_->pe(pe).alternate(deployment.activeAlternate(pe));
    ps.capacity_rate =
        observedPowerOf(*cloud_, *mon_, pe, t0 + 0.5 * dt) /
        alt.cost_core_sec;
    const double offered_msgs =
        static_cast<double>(st.arrivals_in_interval + st.queue.size());
    ps.relative_throughput =
        offered_msgs > 0.0
            ? static_cast<double>(st.processed_in_interval) / offered_msgs
            : 1.0;
  }
  for (const PeId o : df_->outputs()) {
    const double exp_rate = expected[o.value()];
    const double ratio =
        exp_rate > 0.0 ? m.pe_stats[o.value()].output_rate / exp_rate : 1.0;
    omega_acc += std::clamp(ratio, 0.0, 1.0);
  }
  m.omega = omega_acc / static_cast<double>(df_->outputs().size());
  double gamma_acc = 0.0;
  for (const auto& pe : df_->pes()) {
    gamma_acc += pe.relativeValue(deployment.activeAlternate(pe.id()));
  }
  m.gamma = gamma_acc / static_cast<double>(n);
  m.cost_cumulative = cloud_->accumulatedCost(t1);
  m.active_vms = static_cast<int>(cloud_->activeIds().size());
  m.allocated_cores = totalAllocatedCores(*cloud_);

  result_.intervals.add(m);
  result_.wall_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return m;
}

}  // namespace dds::oracle
