// Fault-tolerance extension bench (paper §9 future work).
//
// Part 1 — the original crash sweep: Omega, cost and lost messages versus
// VM mean-time-between-failures, comparing the adaptive global heuristic
// (which re-allocates around crashes) against the static deployment
// (which bleeds capacity it never replaces).
//
// Part 2 — a combined fault-intensity sweep over the full fault plan
// (crashes + stragglers + acquisition failures + provisioning delays +
// network partitions), with the resilience layer enabled (straggler
// quarantine, acquisition retry/backoff, graceful degradation).  Reports
// the recovery metrics: MTTR, availability, violation episodes,
// quarantined stragglers and rejected acquisitions per policy.
#include "bench_util.hpp"

namespace {

using namespace dds;

/// One knob in [0, 1]: 0 = fault-free, 1 = the harshest mix we model.
ExperimentConfig faultMixConfig(double intensity) {
  ExperimentConfig cfg;
  cfg.horizon_s = 4.0 * kSecondsPerHour;
  cfg.workload.mean_rate = 10.0;
  cfg.seed = 2013;
  if (intensity > 0.0) {
    cfg.faults.vm_mtbf_hours = 8.0 / intensity;
    cfg.faults.straggler_mtbf_hours = 4.0 / intensity;
    cfg.faults.straggler_factor = 0.3;
    cfg.faults.straggler_duration_s = 600.0;
    cfg.faults.acquisition_failure_prob = 0.3 * intensity;
    cfg.elasticity.provisioning_delay_s = 120.0 * intensity;
    cfg.faults.partition_mtbf_hours = 8.0 / intensity;
    cfg.faults.partition_duration_s = 120.0;
  }
  // Resilience layer on for every policy that adapts.
  cfg.resilience.quarantine_threshold = 0.5;
  cfg.resilience.quarantine_probes = 3;
  cfg.resilience.acquisition_max_retries = 3;
  cfg.resilience.acquisition_backoff_s = 60.0;
  cfg.resilience.graceful_degradation = true;
  return cfg;
}

}  // namespace

int main() {
  using namespace dds;
  using namespace dds::bench;

  printHeader("Faults",
              "recovery under VM crashes: adaptive vs static (10 msg/s, "
              "4 h)");

  const Dataflow df = makePaperDataflow();
  const std::vector<double> mtbfs = {0.0, 8.0, 4.0, 2.0, 1.0};
  const std::vector<SchedulerSpec> crash_kinds = {
      parseScheduler("global"), parseScheduler("global-static")};
  std::vector<ExperimentConfig> crash_rows;
  for (const double mtbf : mtbfs) {
    ExperimentConfig cfg;
    cfg.horizon_s = 4.0 * kSecondsPerHour;
    cfg.workload.mean_rate = 10.0;
    cfg.faults.vm_mtbf_hours = mtbf;
    cfg.seed = 2013;
    crash_rows.push_back(cfg);
  }
  const auto crash_outcomes = runGrid(df, crash_rows, crash_kinds);

  TextTable table({"MTBF(h)", "policy", "failures", "omega", "met",
                   "lost-msgs", "cost$"});
  std::vector<std::vector<double>> csv;
  for (std::size_t i = 0; i < mtbfs.size(); ++i) {
    const double mtbf = mtbfs[i];
    for (std::size_t k = 0; k < crash_kinds.size(); ++k) {
      const auto& r = crash_outcomes[i * crash_kinds.size() + k].result;
      table.addRow({mtbf == 0.0 ? "none" : TextTable::num(mtbf, 0),
                    r.scheduler_name, std::to_string(r.vm_failures),
                    TextTable::num(r.average_omega), constraintMark(r),
                    TextTable::num(r.messages_lost, 0),
                    TextTable::num(r.total_cost, 2)});
      csv.push_back({mtbf, k == 0 ? 1.0 : 0.0,
                     static_cast<double>(r.vm_failures), r.average_omega,
                     r.constraint_met ? 1.0 : 0.0, r.messages_lost,
                     r.total_cost});
    }
  }
  printTableAndCsv(table,
                   {"mtbf_h", "adaptive", "failures", "omega", "met",
                    "lost", "cost"},
                   csv);

  std::cout << "Reading: as crashes become frequent the static deployment's "
               "throughput\ncollapses (dead capacity is never replaced), "
               "while the adaptive heuristic\nre-allocates within an "
               "interval and holds the constraint until failures\noutpace "
               "recovery.\n\n";

  printHeader("Faults-2",
              "full fault plan sweep: crashes + stragglers + acquisition "
              "failures + partitions, resilience layer on");

  const std::vector<double> intensities = {0.0, 0.25, 0.5, 1.0};
  const std::vector<SchedulerSpec> mix_kinds = {
      parseScheduler("global"), parseScheduler("local"),
      parseScheduler("global-static")};
  std::vector<ExperimentConfig> mix_rows;
  for (const double intensity : intensities) {
    mix_rows.push_back(faultMixConfig(intensity));
  }
  const auto mix_outcomes = runGrid(df, mix_rows, mix_kinds);

  TextTable table2({"intensity", "policy", "omega", "avail", "episodes",
                    "mttr(s)", "quarant", "rejects", "degr", "cost$"});
  std::vector<std::vector<double>> csv2;
  for (std::size_t i = 0; i < intensities.size(); ++i) {
    const double intensity = intensities[i];
    for (std::size_t k = 0; k < mix_kinds.size(); ++k) {
      const auto kind = mix_kinds[k];
      const auto& r = mix_outcomes[i * mix_kinds.size() + k].result;
      table2.addRow(
          {TextTable::num(intensity, 2), r.scheduler_name,
           TextTable::num(r.average_omega),
           TextTable::num(r.recovery.availability),
           std::to_string(r.recovery.violation_episodes),
           TextTable::num(r.recovery.mttr_s, 0),
           std::to_string(r.resilience.stragglers_quarantined),
           std::to_string(r.acquisition_rejections),
           std::to_string(r.resilience.graceful_degradations),
           TextTable::num(r.total_cost, 2)});
      csv2.push_back(
          {intensity,
           kind == parseScheduler("global-static")
               ? 0.0
               : (kind == parseScheduler("global") ? 1.0 : 2.0),
           r.average_omega, r.recovery.availability,
           static_cast<double>(r.recovery.violation_episodes),
           r.recovery.mttr_s,
           static_cast<double>(r.resilience.stragglers_quarantined),
           static_cast<double>(r.acquisition_rejections),
           static_cast<double>(r.resilience.graceful_degradations),
           r.total_cost});
    }
  }
  printTableAndCsv(table2,
                   {"intensity", "policy", "omega", "availability",
                    "episodes", "mttr_s", "quarantined", "rejections",
                    "degradations", "cost"},
                   csv2);

  std::cout << "Reading: with the whole fault plan active the adaptive "
               "policies keep\navailability high by quarantining "
               "stragglers, retrying rejected\nacquisitions against "
               "cheaper classes and degrading gracefully while\ncapacity "
               "is on order; the static deployment accumulates "
               "unrecovered\nviolation episodes instead.\n";
  return 0;
}
