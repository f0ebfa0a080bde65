// Typed, seed-deterministic simulation trace events.
//
// Every adaptation-relevant state change in a run — interval boundaries,
// VM lifecycle, core allocation, alternate switches, straggler
// quarantine, fault injection, Ω̂ violations, scheduler decisions — is
// one `TraceEvent` variant. Payloads carry plain integers and doubles
// only (ids are unwrapped at this serialization boundary), and nothing
// derives from wall-clock or allocation order, so two runs with the
// same seed and config emit byte-identical traces.
//
// Events are consumed through the `TraceSink` interface (trace_sink.hpp)
// and serialized one-per-line as JSONL (jsonl_sink.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "dds/common/time.hpp"

namespace dds::obs {

/// First record of every trace: identifies the run so an analyzer can
/// interpret interval indices and the profit objective without the
/// original config file.
struct RunHeaderEvent {
  std::string scheduler;
  std::uint64_t seed = 0;
  double sigma = 0.0;
  double omega_target = 0.0;
  double epsilon = 0.0;
  double horizon_s = 0.0;
  double interval_s = 0.0;
  std::string backend;  // "fluid" or "event"
};

/// Interval `interval` starts at simulation time `t` with the workload
/// offering `input_rate` msg/s.
struct IntervalBeginEvent {
  SimTime t = 0.0;
  std::int64_t interval = 0;
  double input_rate = 0.0;
};

/// Interval summary: Ω for the interval, running Γ̄/Ω̄, cumulative cost
/// μ, resource footprint, utilization ρ = processed/capacity in [0,1]
/// and total queued backlog across PEs.
struct IntervalEndEvent {
  SimTime t = 0.0;
  std::int64_t interval = 0;
  double omega = 0.0;
  double omega_bar = 0.0;
  double gamma = 0.0;
  double cost = 0.0;
  double utilization = 0.0;
  double backlog_msgs = 0.0;
  std::int64_t active_vms = 0;
  std::int64_t allocated_cores = 0;
};

/// A VM of resource class `vm_class` was acquired at `t` and becomes
/// usable at `ready` (provisioning delays push `ready` past `t`).
struct VmAcquireEvent {
  SimTime t = 0.0;
  std::uint32_t vm = 0;
  std::string vm_class;
  std::int64_t cores = 0;
  double price_per_hour = 0.0;
  SimTime ready = 0.0;
};

/// A VM was released; `billed_cost` is its final hour-quantized bill.
struct VmReleaseEvent {
  SimTime t = 0.0;
  std::uint32_t vm = 0;
  std::string vm_class;
  double billed_cost = 0.0;
};

/// The provider rejected an acquisition request (injected acquisition
/// fault); the scheduler's retry/fallback layer sees this as pressure.
struct AcquisitionFailureEvent {
  SimTime t = 0.0;
  std::string vm_class;
};

/// `delta` cores of `vm` were (de)allocated to `pe` (+1 on allocate,
/// -1 on release).
struct CoreAllocEvent {
  SimTime t = 0.0;
  std::uint32_t vm = 0;
  std::uint32_t pe = 0;
  std::int64_t delta = 0;
};

/// PE `pe` switched its active alternate `from` -> `to` (gamma values
/// are the alternates' normalized-value contributions).
struct AlternateSwitchEvent {
  SimTime t = 0.0;
  std::uint32_t pe = 0;
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  double gamma_from = 0.0;
  double gamma_to = 0.0;
};

/// StragglerGuard quarantined `vm` (smoothed throughput ratio below
/// threshold); `evacuated_cores` PE-cores were moved off it.
struct StragglerQuarantineEvent {
  SimTime t = 0.0;
  std::uint32_t vm = 0;
  double smoothed_ratio = 0.0;
  std::int64_t evacuated_cores = 0;
};

/// A quarantined VM recovered and re-entered the placement pool.
struct StragglerRecoveryEvent {
  SimTime t = 0.0;
  std::uint32_t vm = 0;
};

/// The fault plan fired: `family` names the fault class ("crash",
/// "straggler", ...), `messages_lost` the inflight loss charged.
struct FaultInjectionEvent {
  SimTime t = 0.0;
  std::uint32_t vm = 0;
  std::string family;
  double messages_lost = 0.0;
};

/// A provisioning VM's capacity came online: `vm` was acquired earlier
/// and its cores start delivering observed power at `t` (= ready time).
struct ProvisioningCompleteEvent {
  SimTime t = 0.0;
  std::uint32_t vm = 0;
};

/// The provider announced it will reclaim spot VM `vm` at `preempt_at`
/// (the warning notice; `preempt_at - t` is the notice window remaining).
struct PreemptionNoticeEvent {
  SimTime t = 0.0;
  std::uint32_t vm = 0;
  SimTime preempt_at = 0.0;
};

/// The provider reclaimed spot VM `vm`; `messages_lost` is the undrained
/// backlog charged against the hosted PEs.
struct PreemptionEvent {
  SimTime t = 0.0;
  std::uint32_t vm = 0;
  double messages_lost = 0.0;
};

/// PE `pe` began migrating `backlog_fraction` of its buffered state;
/// service on the moved share pauses for `downtime_s` seconds while the
/// buffers transfer.
struct MigrationBeginEvent {
  SimTime t = 0.0;
  std::uint32_t pe = 0;
  double backlog_fraction = 0.0;
  double downtime_s = 0.0;
};

/// PE `pe` finished its buffer migration and resumed full service.
struct MigrationEndEvent {
  SimTime t = 0.0;
  std::uint32_t pe = 0;
};

/// The interval's Ω dropped below the target Ω̂ (paper constraint
/// Ω̄ ≥ Ω̂; per-interval dips show *where* the average was lost).
struct OmegaViolationEvent {
  SimTime t = 0.0;
  std::int64_t interval = 0;
  double omega = 0.0;
  double omega_target = 0.0;
};

/// A candidate plan the scheduler evaluated and did not pick, with the
/// profit Θ = Γ̄ − σ·μ it would have scored.
struct RejectedPlan {
  std::string plan;
  double theta = 0.0;
};

/// One scheduler decision: which phase ran ("deploy", "alternate",
/// "resource", "quarantine", ...), what action it took, the observed
/// Ω/Ω̄ that triggered it, the chosen plan's Θ (NaN when the policy
/// does not score plans), and optionally the best rejected candidates.
struct SchedulerDecisionEvent {
  SimTime t = 0.0;
  std::int64_t interval = 0;
  std::string phase;
  std::string action;
  double omega = 0.0;
  double omega_bar = 0.0;
  double theta = 0.0;
  std::vector<RejectedPlan> rejected;
};

/// The forecaster's predicted rate vector: rates[k] predicts interval
/// + k (the model has observed rates up to interval − 1, so rates[0]
/// is the one-step prediction of the current interval). Emitted once
/// per interval while forecasting is enabled.
struct ForecastEvent {
  SimTime t = 0.0;
  std::int64_t interval = 0;
  std::string model;
  std::vector<double> rates;
};

/// The predictive scheduler bought `vms` VMs ahead of a forecast peak:
/// `peak_rate` predicted at `peak_interval`, `lead_s` seconds ahead of
/// now; the last of the new VMs finishes provisioning at `ready_by`.
struct PreAcquireEvent {
  SimTime t = 0.0;
  std::int64_t interval = 0;
  std::int64_t peak_interval = 0;
  double peak_rate = 0.0;
  double lead_s = 0.0;
  std::int64_t vms = 0;
  SimTime ready_by = 0.0;
};

using TraceEvent =
    std::variant<RunHeaderEvent, IntervalBeginEvent, IntervalEndEvent,
                 VmAcquireEvent, VmReleaseEvent, AcquisitionFailureEvent,
                 CoreAllocEvent, AlternateSwitchEvent,
                 StragglerQuarantineEvent, StragglerRecoveryEvent,
                 FaultInjectionEvent, ProvisioningCompleteEvent,
                 PreemptionNoticeEvent, PreemptionEvent,
                 MigrationBeginEvent, MigrationEndEvent,
                 OmegaViolationEvent, SchedulerDecisionEvent,
                 ForecastEvent, PreAcquireEvent>;

/// Stable wire name of the event's type ("interval_end", "vm_acquire",
/// ...); used as the "ev" discriminator in JSONL records.
[[nodiscard]] std::string_view traceEventName(const TraceEvent& e);

}  // namespace dds::obs
