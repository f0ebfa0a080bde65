// IoT sensor aggregation — a many-inputs topology on the *event-level*
// backend: 8 sensor feeds reduce through a binary aggregation tree to one
// dashboard. Shows (a) multi-input dataflows, (b) the message-granularity
// simulator with end-to-end latency percentiles, and (c) an honest
// consequence of the paper's throughput-only objective: adapting to
// Omega-hat = 0.7 deliberately runs below the arrival rate, so queues —
// and latency — grow without bound. The queue-delay SLA extension
// (`max_queue_delay_s`) restores bounded latency for extra capacity.
#include <iostream>

#include "dds/dds.hpp"

int main() {
  using namespace dds;

  const Dataflow df = makeAggregationTreeDataflow(/*leaves=*/8,
                                                  /*fan_in=*/2);
  std::cout << "Aggregation tree: " << df.peCount() << " PEs ("
            << df.inputs().size() << " sensor feeds, depth "
            << df.topologicalOrder().size() - df.inputs().size()
            << " stages)\n\n";

  ExperimentConfig cfg;
  cfg.backend = SimBackend::Event;
  cfg.horizon_s = kSecondsPerHour;
  cfg.workload.mean_rate = 4.0;            // per sensor feed
  cfg.workload.profile = ProfileKind::Spike;  // a 3x burst mid-run
  cfg.workload.infra_variability = true;

  TextTable table({"policy", "omega", "met", "delivered", "lat-mean(s)",
                   "lat-p95(s)", "lat-p99(s)", "cost$"});
  struct Variant {
    std::string label;
    SchedulerSpec kind;
    double sla_s;
  };
  for (const auto& v : {Variant{"global (throughput only)",
                                parseScheduler("global"), 0.0},
                        Variant{"global + 30s queue SLA",
                                parseScheduler("global"), 30.0},
                        Variant{"global-static",
                                parseScheduler("global-static"), 0.0}}) {
    cfg.heuristic.max_queue_delay_s = v.sla_s;
    const auto r = SimulationEngine(df, cfg).run(v.kind);
    table.addRow({v.label, TextTable::num(r.average_omega),
                  r.constraint_met ? "yes" : "NO",
                  std::to_string(r.messages_delivered),
                  TextTable::num(r.latency_mean_s),
                  TextTable::num(r.latency_p95_s),
                  TextTable::num(r.latency_p99_s),
                  TextTable::num(r.total_cost, 2)});
  }
  std::cout << table.render() << '\n'
            << "Reading: the throughput-only policy happily satisfies "
               "Omega >= 0.7 while its\nqueues (and latency) diverge — "
               "the paper's objective simply does not see\nlatency. The "
               "30 s queue-delay SLA buys bounded tails with extra "
               "capacity;\nthe static plan sits between, coasting on its "
               "full-demand provisioning.\n";
  return 0;
}
