// Flash-crowd response bench: a 3x rate spike hits at 40% of the horizon
// (the "velocity" scenario of the paper's introduction). Measures, per
// policy, the depth of the Omega dip, the time to recover the constraint,
// and the money spent — the elasticity reaction time story.
#include "bench_util.hpp"

namespace {

using namespace dds;

struct Response {
  ExperimentResult result;
  double min_omega = 1.0;
  double recovery_minutes = -1.0;  ///< spike start -> omega back over 0.65.
};

Response measure(const Dataflow& df, const SchedulerSpec& kind) {
  ExperimentConfig cfg;
  cfg.horizon_s = 2.0 * kSecondsPerHour;
  cfg.workload.mean_rate = 10.0;
  cfg.workload.profile = ProfileKind::Spike;  // 3x burst at 40% for 10% of horizon
  cfg.seed = 2013;
  Response resp;
  resp.result = SimulationEngine(df, cfg).run(kind);

  const SimTime spike_start = 0.4 * cfg.horizon_s;
  bool recovered = false;
  for (const auto& m : resp.result.run.intervals()) {
    if (m.start < spike_start) continue;
    resp.min_omega = std::min(resp.min_omega, m.omega);
    if (!recovered && m.omega >= 0.65) {
      resp.recovery_minutes = (m.start - spike_start) / 60.0;
      recovered = true;
    }
  }
  return resp;
}

}  // namespace

int main() {
  using namespace dds;
  using namespace dds::bench;

  printHeader("Spike",
              "flash-crowd response: 3x burst at 10 msg/s base (2 h)");

  const Dataflow df = makePaperDataflow();
  TextTable table({"policy", "omega", "min-omega", "recovery(min)",
                   "cost$", "theta"});
  for (const auto kind :
       {parseScheduler("global"), parseScheduler("local"),
        parseScheduler("reactive-autoscaler"),
        parseScheduler("global-static")}) {
    const auto resp = measure(df, kind);
    table.addRow({resp.result.scheduler_name,
                  TextTable::num(resp.result.average_omega),
                  TextTable::num(resp.min_omega),
                  resp.recovery_minutes < 0.0
                      ? "never"
                      : TextTable::num(resp.recovery_minutes, 0),
                  TextTable::num(resp.result.total_cost, 2),
                  TextTable::num(resp.result.theta)});
  }
  std::cout << table.render() << '\n';

  std::cout << "Reading: the model-driven heuristics answer the burst "
               "within an interval or\ntwo (global fastest); the reactive "
               "baseline waits for queues to build before\neach "
               "single-core step, so it only recovers when the burst ends; "
               "the static\ndeployment never reacts — its 'recovery' at "
               "~12 min is just the spike ending,\nand its Omega floor of "
               "~1/3 is exactly base-capacity over 3x load.\n";
  return 0;
}
