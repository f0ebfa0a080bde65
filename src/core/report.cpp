#include "dds/core/report.hpp"

namespace dds {

CsvTable intervalSeriesCsv(const RunResult& run) {
  CsvTable t;
  t.header = {"interval", "start_s",  "input_rate", "omega",
              "gamma",    "cost_usd", "active_vms", "cores"};
  t.rows.reserve(run.intervals().size());
  for (const auto& m : run.intervals()) {
    t.rows.push_back({static_cast<double>(m.index), m.start, m.input_rate,
                      m.omega, m.gamma, m.cost_cumulative,
                      static_cast<double>(m.active_vms),
                      static_cast<double>(m.allocated_cores)});
  }
  return t;
}

TextTable summaryTable(std::span<const ExperimentResult> results) {
  TextTable table({"scheduler", "omega", "met", "gamma", "cost$", "theta",
                   "peak-VMs", "failures"});
  for (const auto& r : results) {
    table.addRow({r.scheduler_name, TextTable::num(r.average_omega),
                  r.constraint_met ? "yes" : "NO",
                  TextTable::num(r.average_gamma),
                  TextTable::num(r.total_cost, 2), TextTable::num(r.theta),
                  std::to_string(r.peak_vms),
                  std::to_string(r.vm_failures)});
  }
  return table;
}

}  // namespace dds
