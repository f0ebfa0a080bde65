#include "dds/eventsim/event_simulator.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>

#include "dds/common/time.hpp"
#include "dds/sim/rate_model.hpp"

namespace dds {

void EventSimConfig::validate() const {
  SimConfig::validate();
  DDS_REQUIRE(max_latency_samples > 0, "latency sample cap must be > 0");
}

std::string fingerprint(const EventSimResult& r) {
  std::ostringstream os;
  os << std::hexfloat;
  const auto stats = [&os](const RunningStats& s) {
    os << s.count() << ' ' << s.mean() << ' ' << s.variance() << ' '
       << s.min() << ' ' << s.max() << '\n';
  };
  os << r.messages_injected << ' ' << r.messages_delivered << '\n';
  os << r.counters.arrivals << ' ' << r.counters.deliveries << ' '
     << r.counters.completions << ' ' << r.counters.dispatches << '\n';
  stats(r.latency);
  os << r.latency_samples.size() << '\n';
  for (const double v : r.latency_samples) os << v << ' ';
  os << '\n';
  for (const auto& w : r.pe_queue_wait) stats(w);
  for (const auto& m : r.intervals.intervals()) {
    os << m.index << ' ' << m.start << ' ' << m.input_rate << ' ' << m.omega
       << ' ' << m.gamma << ' ' << m.cost_cumulative << ' ' << m.active_vms
       << ' ' << m.allocated_cores << '\n';
    for (const auto& ps : m.pe_stats) {
      os << ps.arrival_rate << ' ' << ps.offered_rate << ' '
         << ps.processed_rate << ' ' << ps.output_rate << ' '
         << ps.capacity_rate << ' ' << ps.relative_throughput << ' '
         << ps.backlog_msgs << ' ' << ps.allocated_cores << '\n';
    }
  }
  return os.str();
}

EventSimulator::EventSimulator(const Dataflow& df, const CloudProvider& cloud,
                               const MonitoringService& mon,
                               EventSimConfig cfg)
    : df_(&df),
      cloud_(&cloud),
      mon_(&mon),
      cfg_(cfg),
      coeff_(mon),
      rng_(cfg.seed),
      reservoir_rng_(cfg.seed ^ 0x5ee5a11e5ull) {
  cfg_.validate();
  const std::size_t n = df.peCount();
  pe_state_.assign(n, {});
  pe_pause_until_.assign(n, 0.0);
  pe_slots_.assign(n, {});
  pe_vms_.assign(n, {});
  pe_free_.assign(n, {});
  routes_.assign(n, {});
  result_.pe_queue_wait.assign(n, RunningStats{});
}

// ---------------------------------------------------------------------------
// Model logic.
// ---------------------------------------------------------------------------

void EventSimulator::enqueueAt(PeId pe, Message msg, SimTime now,
                               const Deployment& dep) {
  msg.enqueued = now;
  pe_state_[pe.value()].queue.push_back(msg);
  ++pe_state_[pe.value()].arrivals_in_interval;
  dispatchIdleCores(pe, now, dep);
}

void EventSimulator::deliverDownstream(PeId from, VmId from_vm,
                                       const Message& msg, SimTime now,
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
      heap_.push(now + delay, EventKind::Delivery, succ, VmId(0), 0,
                 msg.created);
    }
  }
}

void EventSimulator::recordDeliveredLatency(double latency) {
  result_.latency.add(latency);
  ++result_.messages_delivered;
  if (result_.latency_samples.size() < cfg_.max_latency_samples) {
    result_.latency_samples.push_back(latency);
    return;
  }
  // Algorithm R: past the cap, the i-th delivery replaces a random stored
  // sample with probability cap/i, keeping the reservoir uniform over all
  // deliveries. Draws come from a dedicated stream so capping never
  // perturbs the arrival process.
  const auto seen = static_cast<std::int64_t>(result_.latency.count());
  const std::int64_t j = reservoir_rng_.uniformInt(0, seen - 1);
  if (j < static_cast<std::int64_t>(cfg_.max_latency_samples)) {
    result_.latency_samples[static_cast<std::size_t>(j)] = latency;
  }
}

void EventSimulator::handleCompletion(SimTime time, PeId pe, VmId vm,
                                      int core, const Message& msg,
                                      const Deployment& dep) {
  // Free the physical core (ownership may have changed during
  // adaptation; the busy flag is positional, so this stays correct).
  if (vm.value() < core_busy_.size()) {
    auto& busy = core_busy_[vm.value()];
    if (static_cast<std::size_t>(core) < busy.size()) {
      busy[static_cast<std::size_t>(core)] = false;
      // Mirror the free into the bitmap under the core's *current* owner.
      // Stale views (ledger moved since the last rebuild) skip this; the
      // next rebuild reconstructs the bitmap from the busy flags.
      if (slots_valid_ &&
          slots_gen_ == cloud_->ledgerGeneration() &&
          vm.value() < slot_ref_.size() &&
          static_cast<std::size_t>(core) < slot_ref_[vm.value()].size()) {
        const SlotRef ref =
            slot_ref_[vm.value()][static_cast<std::size_t>(core)];
        if (ref.idx != kNoSlot) {
          pe_free_[ref.owner.value()][ref.idx >> 6] |=
              std::uint64_t{1} << (ref.idx & 63);
        }
      }
    }
  }
  PeState& st = pe_state_[pe.value()];
  ++st.processed_in_interval;

  const auto& alt = df_->pe(pe).alternate(dep.activeAlternate(pe));
  if (df_->isOutput(pe)) {
    recordDeliveredLatency(time - msg.created);
  }
  // Selectivity as credit so fractional ratios average out exactly.
  st.selectivity_credit += alt.selectivity;
  while (st.selectivity_credit >= 1.0 - 1e-12) {
    st.selectivity_credit -= 1.0;
    ++st.emitted_in_interval;
    deliverDownstream(pe, vm, msg, time, dep);
  }
  dispatchIdleCores(pe, time, dep);
}

// ---------------------------------------------------------------------------
// Caches: ledger-generation-guarded indexes, zero-order-hold windowed
// monitor lookups, one flat event heap.
// ---------------------------------------------------------------------------

void EventSimulator::refreshLedgerViews() {
  const CloudProvider& cloud = *cloud_;
  const std::uint64_t gen = cloud.ledgerGeneration();
  if (slots_valid_ && gen == slots_gen_) return;
  for (auto& v : pe_slots_) v.clear();
  for (auto& v : pe_vms_) v.clear();
  for (auto& refs : slot_ref_) {
    std::fill(refs.begin(), refs.end(), SlotRef{});
  }
  for (const VmId id : cloud.activeIds()) {
    const VmInstance& vm = cloud.instance(id);
    const std::size_t vmi = id.value();
    if (vmi >= core_busy_.size()) core_busy_.resize(vmi + 1);
    auto& busy = core_busy_[vmi];
    if (busy.size() < static_cast<std::size_t>(vm.coreCount())) {
      busy.resize(static_cast<std::size_t>(vm.coreCount()), false);
    }
    if (vmi >= slot_ref_.size()) slot_ref_.resize(vmi + 1);
    auto& refs = slot_ref_[vmi];
    if (refs.size() < static_cast<std::size_t>(vm.coreCount())) {
      refs.resize(static_cast<std::size_t>(vm.coreCount()));
    }
    for (int c = 0; c < vm.coreCount(); ++c) {
      const auto owner = vm.coreOwner(c);
      if (!owner.has_value()) continue;
      auto& slots = pe_slots_[owner->value()];
      refs[static_cast<std::size_t>(c)] = {
          *owner, static_cast<std::uint32_t>(slots.size())};
      slots.push_back({vm.id(), c});
      auto& vms = pe_vms_[owner->value()];
      if (vms.empty() || vms.back() != vm.id()) vms.push_back(vm.id());
    }
  }
  // Free-slot bitmaps, from the positional busy flags (ground truth).
  for (std::size_t p = 0; p < pe_slots_.size(); ++p) {
    const auto& slots = pe_slots_[p];
    auto& words = pe_free_[p];
    words.assign((slots.size() + 63) / 64, 0);
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const CoreSlot& s = slots[i];
      if (!core_busy_[s.vm.value()][static_cast<std::size_t>(s.core)]) {
        words[i >> 6] |= std::uint64_t{1} << (i & 63);
      }
    }
  }
  coeff_.sync(cloud);
  slots_gen_ = gen;
  slots_valid_ = true;
  ++result_.counters.core_index_rebuilds;
}

void EventSimulator::dispatchIdleCores(PeId pe, SimTime now,
                                       const Deployment& dep) {
  // Migration downtime gate: while the PE's buffered state is in flight,
  // no new message may start service (queued arrivals wait; cores already
  // busy run to completion).
  if (now < pe_pause_until_[pe.value()]) return;
  PeState& st = pe_state_[pe.value()];
  if (st.queue.empty()) return;
  refreshLedgerViews();
  const auto& alt = df_->pe(pe).alternate(dep.activeAlternate(pe));
  // Find-first-set over the free-slot bitmap claims the lowest slot
  // index — the ledger scan's (vm asc, core asc) order — without walking
  // the busy prefix.
  const auto& slots = pe_slots_[pe.value()];
  auto& words = pe_free_[pe.value()];
  for (std::size_t w = 0; w < words.size();) {
    if (words[w] == 0) {
      ++w;
      continue;
    }
    const auto b = static_cast<std::size_t>(std::countr_zero(words[w]));
    words[w] &= words[w] - 1;  // claim the slot.
    const CoreSlot& slot = slots[(w << 6) + b];
    core_busy_[slot.vm.value()][static_cast<std::size_t>(slot.core)] = true;
    const Message msg = st.queue.front();
    st.queue.pop_front();
    result_.pe_queue_wait[pe.value()].add(now - msg.enqueued);
    ++result_.counters.dispatches;
    const double speed = coeff_.corePower(slot.vm.value(), now).value;
    const double service =
        speed > 0.0 ? alt.cost_core_sec / speed
                    : std::numeric_limits<double>::infinity();
    heap_.push(now + service, EventKind::Completion, pe, slot.vm, slot.core,
               msg.created);
    if (st.queue.empty()) break;
  }
}

double EventSimulator::routeDelay(VmId from_vm, PeId succ, SimTime now) {
  auto& row = routes_[succ.value()];
  if (from_vm.value() >= row.size()) row.resize(from_vm.value() + 1);
  RouteEntry& e = row[from_vm.value()];
  const std::uint64_t gen = cloud_->ledgerGeneration();
  if (e.ledger_gen == gen && now < e.valid_until) return e.delay;

  // Recompute in peCores() scan order. Fold the zero-order-hold window of
  // every coefficient consulted; a colocated or network-free
  // route depends only on core placement, which the generation guard
  // covers.
  refreshLedgerViews();  // pe_vms_ may predate the current generation.
  ++result_.counters.route_refreshes;
  const auto inf = std::numeric_limits<SimTime>::infinity();
  SimTime until = inf;
  double delay = 0.0;
  bool colocated = false;
  double best_mbps = 0.0;
  VmId best_vm{0};
  for (const VmId vm : pe_vms_[succ.value()]) {
    if (vm == from_vm) {
      colocated = true;
      break;
    }
    const CoeffSample& bw =
        coeff_.bandwidth(coeff_.pairSlot(from_vm.value(), vm.value()), now);
    // The first VM in scan order with the highest bandwidth.
    if (bw.value > best_mbps) {
      best_mbps = bw.value;
      best_vm = vm;
    }
    until = std::min(until, bw.valid_until);
  }
  if (!colocated && best_mbps > 0.0) {
    const CoeffSample l = mon_->observedLatencySample(from_vm, best_vm, now);
    delay = l.value / 1000.0 + cfg_.msg_size_bytes * 8.0 / (best_mbps * 1.0e6);
    until = std::min(until, l.valid_until);
  }
  if (colocated) until = inf;
  e.delay = delay;
  e.valid_until = until;
  e.ledger_gen = gen;
  return delay;
}

void EventSimulator::drain(SimTime t0, SimTime t1, double rate,
                           const Deployment& dep) {
  // The pending arrival stays outside the heap: it is dropped at the
  // interval end and re-drawn at the next interval start (rates change
  // per interval), and it wins an equal-time tie against any queued
  // event.
  const SimTime inf = std::numeric_limits<SimTime>::infinity();
  SimTime next_arrival = inf;
  if (rate > 0.0) {
    next_arrival =
        t0 + (cfg_.poisson_arrivals ? rng_.exponential(rate) : 1.0 / rate);
  }

  while (true) {
    const SimTime queued = heap_.empty() ? inf : heap_.top().time;
    if (next_arrival <= queued) {
      if (next_arrival >= t1) break;
      ++result_.messages_injected;
      ++result_.counters.arrivals;
      for (const PeId in : df_->inputs()) {
        enqueueAt(in, Message{next_arrival, next_arrival}, next_arrival,
                  dep);
      }
      next_arrival +=
          cfg_.poisson_arrivals ? rng_.exponential(rate) : 1.0 / rate;
      continue;
    }
    if (queued >= t1) break;
    // Message::enqueued is rewritten when the message lands in a queue,
    // so an event carries only the creation time.
    const Event ev = heap_.popTop();
    if (ev.kind == EventKind::Delivery) {
      ++result_.counters.deliveries;
      enqueueAt(ev.pe, Message{ev.msg_created}, ev.time, dep);
    } else {
      ++result_.counters.completions;
      handleCompletion(ev.time, ev.pe, ev.vm, ev.core,
                       Message{ev.msg_created}, dep);
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

void EventSimulator::migrateBacklog(PeId pe, double fraction) {
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

void EventSimulator::pauseService(PeId pe, SimTime seconds) {
  DDS_REQUIRE(seconds >= 0.0, "pause must be non-negative");
  SimTime& until = pe_pause_until_.at(pe.value());
  until = std::max(until, nextStart() + seconds);
}

double EventSimulator::dropBacklog(PeId pe, double fraction) {
  auto& queue = pe_state_.at(pe.value()).queue;
  const std::size_t lost = shareOf(queue.size(), fraction);
  queue.erase(queue.end() - static_cast<std::ptrdiff_t>(lost), queue.end());
  return static_cast<double>(lost);
}

IntervalMetrics EventSimulator::step(IntervalIndex index, double rate,
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

  // Deliver any migrated messages whose transfer completed by t0.
  // Stable swap-free compaction: landed entries are processed in
  // insertion order and the survivors keep their relative order.
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

}  // namespace dds
