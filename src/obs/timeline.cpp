#include "dds/obs/timeline.hpp"

#include <algorithm>
#include <cmath>

#include "dds/common/stats.hpp"

namespace dds::obs {

namespace {

// Interval a discrete event at time t belongs to. Events emitted
// exactly on a boundary (the common case: adaptation runs at interval
// start) attribute to the interval that begins there.
std::int64_t intervalOf(SimTime t, double interval_s) {
  if (interval_s <= 0.0) return 0;
  return static_cast<std::int64_t>(std::floor(t / interval_s + 1e-9));
}

struct Fold {
  TraceAnalysis out;
  std::map<std::int64_t, TimelineRow> rows;
  double omega_sum = 0.0;
  double gamma_sum = 0.0;

  TimelineRow& row(std::int64_t interval) {
    TimelineRow& r = rows[interval];
    r.interval = interval;
    return r;
  }

  TimelineRow& rowAt(SimTime t) {
    return row(intervalOf(t, out.has_header ? out.header.interval_s : 0.0));
  }

  void operator()(const RunHeaderEvent& e) {
    out.header = e;
    out.has_header = true;
  }

  void operator()(const IntervalBeginEvent& e) {
    TimelineRow& r = row(e.interval);
    r.t = e.t;
    r.input_rate = e.input_rate;
  }

  void operator()(const IntervalEndEvent& e) {
    TimelineRow& r = row(e.interval);
    r.omega = e.omega;
    r.omega_bar = e.omega_bar;
    r.gamma = e.gamma;
    r.cost = e.cost;
    r.utilization = e.utilization;
    r.backlog_msgs = e.backlog_msgs;
    r.active_vms = e.active_vms;
    r.allocated_cores = e.allocated_cores;
    omega_sum += e.omega;
    gamma_sum += e.gamma;
    out.final_cost = e.cost;
    out.peak_vms =
        std::max(out.peak_vms, static_cast<double>(e.active_vms));
    out.peak_cores =
        std::max(out.peak_cores, static_cast<double>(e.allocated_cores));
  }

  void operator()(const VmAcquireEvent& e) { ++rowAt(e.t).vm_acquires; }
  void operator()(const VmReleaseEvent& e) { ++rowAt(e.t).vm_releases; }

  void operator()(const AcquisitionFailureEvent& e) {
    ++rowAt(e.t).acquisition_failures;
  }

  void operator()(const CoreAllocEvent&) {}

  void operator()(const AlternateSwitchEvent& e) {
    ++rowAt(e.t).alternate_switches;
  }

  void operator()(const StragglerQuarantineEvent& e) {
    ++rowAt(e.t).quarantines;
  }

  void operator()(const StragglerRecoveryEvent&) {}

  void operator()(const FaultInjectionEvent& e) { ++rowAt(e.t).faults; }

  void operator()(const ProvisioningCompleteEvent& e) {
    ++rowAt(e.t).provisioning_completions;
  }

  void operator()(const PreemptionNoticeEvent& e) {
    ++rowAt(e.t).preemption_notices;
  }

  void operator()(const PreemptionEvent& e) { ++rowAt(e.t).preemptions; }

  void operator()(const MigrationBeginEvent& e) { ++rowAt(e.t).migrations; }

  void operator()(const MigrationEndEvent&) {}

  void operator()(const OmegaViolationEvent& e) {
    row(e.interval).violated = true;
    ++out.violations;
  }

  void operator()(const SchedulerDecisionEvent& e) {
    ++row(e.interval).decisions;
  }

  void operator()(const ForecastEvent& e) {
    out.forecast_model = e.model;
    if (e.rates.empty()) return;
    TimelineRow& r = row(e.interval);
    r.predicted_rate = e.rates.front();
    r.has_prediction = true;
  }

  void operator()(const PreAcquireEvent& e) {
    ++row(e.interval).preacquires;
    out.preacquires.push_back({.interval = e.interval,
                               .peak_interval = e.peak_interval,
                               .peak_rate = e.peak_rate,
                               .lead_s = e.lead_s,
                               .vms = e.vms,
                               .ready_by = e.ready_by,
                               .beat_peak = false});
  }
};

/// Near-zero realized rates are excluded from MAPE (the relative error
/// is unbounded there); bias keeps every joined sample.
constexpr double kMapeRateFloor = 1e-6;

}  // namespace

TraceAnalysis analyzeTrace(const std::vector<TraceEvent>& events) {
  Fold fold;
  for (const TraceEvent& event : events) {
    ++fold.out.event_counts[std::string(traceEventName(event))];
    std::visit(fold, event);
  }
  for (auto& [interval, r] : fold.rows) {
    fold.out.rows.push_back(r);
  }
  // std::map iteration is already interval-ordered.
  const auto n = static_cast<double>(
      fold.out.event_counts.count("interval_end") != 0
          ? fold.out.event_counts.at("interval_end")
          : 0);
  if (n > 0.0) {
    fold.out.average_omega = fold.omega_sum / n;
    fold.out.average_gamma = fold.gamma_sum / n;
  }
  fold.out.theta = fold.out.average_gamma -
                   (fold.out.has_header ? fold.out.header.sigma : 0.0) *
                       fold.out.final_cost;

  // Elasticity summary: episodes are maximal runs of violated intervals.
  const double interval_s =
      fold.out.has_header ? fold.out.header.interval_s : 0.0;
  std::vector<double> episodes;
  std::int64_t streak = 0;
  std::int64_t violated_intervals = 0;
  for (const TimelineRow& r : fold.out.rows) {
    if (r.violated) {
      ++streak;
      ++violated_intervals;
    } else if (streak > 0) {
      episodes.push_back(static_cast<double>(streak) * interval_s);
      streak = 0;
    }
  }
  if (streak > 0) {
    episodes.push_back(static_cast<double>(streak) * interval_s);
  }
  fold.out.slo_violation_s =
      static_cast<double>(violated_intervals) * interval_s;
  fold.out.recovery_episodes = static_cast<std::int64_t>(episodes.size());
  if (!episodes.empty()) {
    double sum = 0.0;
    for (const double e : episodes) sum += e;
    fold.out.mean_recovery_s = sum / static_cast<double>(episodes.size());
    fold.out.p95_recovery_s = percentiles(episodes, {95.0})[0];
  }

  // Forecast accuracy: join each interval's one-step prediction with
  // the realized input rate the interval_begin event recorded.
  double ape_sum = 0.0;
  double bias_sum = 0.0;
  std::int64_t mape_samples = 0;
  for (const TimelineRow& r : fold.out.rows) {
    if (!r.has_prediction) continue;
    ++fold.out.forecast_samples;
    bias_sum += r.predicted_rate - r.input_rate;
    if (r.input_rate > kMapeRateFloor) {
      ape_sum += std::abs(r.predicted_rate - r.input_rate) / r.input_rate;
      ++mape_samples;
    }
  }
  if (fold.out.forecast_samples > 0) {
    fold.out.forecast_bias =
        bias_sum / static_cast<double>(fold.out.forecast_samples);
  }
  if (mape_samples > 0) {
    fold.out.forecast_mape = ape_sum / static_cast<double>(mape_samples);
  }
  for (PreAcquireRecord& p : fold.out.preacquires) {
    p.beat_peak =
        p.ready_by <= static_cast<double>(p.peak_interval) * interval_s;
    ++(p.beat_peak ? fold.out.preacquires_beat
                   : fold.out.preacquires_missed);
  }
  return fold.out;
}

}  // namespace dds::obs
