// Shared helpers for the figure-reproduction benches.
//
// Every bench prints (a) a human-readable aligned table and (b) the same
// rows as `CSV:`-prefixed lines so plotting scripts can scrape the output.
#pragma once

#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "dds/dds.hpp"

namespace dds::bench {

inline void printHeader(const std::string& figure,
                        const std::string& caption) {
  std::cout << "==================================================\n"
            << figure << ": " << caption << '\n'
            << "==================================================\n";
}

/// A policy's CSV id: its position in allSchedulers().
inline double policyId(const SchedulerSpec& spec) {
  const auto& all = allSchedulers();
  return static_cast<double>(std::find(all.begin(), all.end(), spec) -
                             all.begin());
}

inline void printTableAndCsv(const TextTable& table,
                             const std::vector<std::string>& csv_header,
                             const std::vector<std::vector<double>>& rows) {
  std::cout << table.render() << '\n';
  std::ostringstream os;
  os << "CSV:";
  for (std::size_t i = 0; i < csv_header.size(); ++i) {
    os << (i ? "," : "") << csv_header[i];
  }
  std::cout << os.str() << '\n';
  for (const auto& row : rows) {
    std::ostringstream line;
    line << "CSV:";
    for (std::size_t i = 0; i < row.size(); ++i) {
      line << (i ? "," : "") << row[i];
    }
    std::cout << line.str() << '\n';
  }
  std::cout << '\n';
}

/// The §8 data-rate sweep (2..50 msg/s).
inline std::vector<double> paperRates() {
  return {2.0, 5.0, 10.0, 20.0, 30.0, 40.0, 50.0};
}

/// Run one experiment per (row config, policy) pair as a single parallel
/// campaign. Outcomes come back row-major — outcome index =
/// row * kinds.size() + kind — and are identical at any worker count, so
/// the tables the benches print do not depend on the host's core count.
inline std::vector<JobOutcome> runGrid(
    const Dataflow& df, const std::vector<ExperimentConfig>& rows,
    const std::vector<SchedulerSpec>& kinds) {
  Campaign campaign;
  for (const auto& cfg : rows) {
    for (const auto kind : kinds) {
      campaign.add({.dataflow = &df,
                    .config = cfg,
                    .kind = kind,
                    .label = schedulerName(kind)});
    }
  }
  CampaignResult res = runCampaign(campaign);
  return std::move(res.outcomes);
}

/// A short marker so shape claims can be eyeballed in the text output.
inline std::string constraintMark(const ExperimentResult& r) {
  return r.constraint_met ? "yes" : "NO";
}

/// The figs. 6-8 body: local vs global adaptive across the rate sweep
/// under the given variability mix, run as one parallel campaign.
inline void runLocalVsGlobalSweep(const Dataflow& df, ProfileKind profile,
                                  bool infra_variability) {
  const std::vector<double> rates = paperRates();
  std::vector<ExperimentConfig> rows;
  for (const double rate : rates) {
    ExperimentConfig cfg;
    cfg.horizon_s = 4.0 * kSecondsPerHour;
    cfg.workload.mean_rate = rate;
    cfg.workload.profile = profile;
    cfg.workload.infra_variability = infra_variability;
    cfg.seed = 2013;
    rows.push_back(cfg);
  }
  const std::vector<SchedulerSpec> kinds = {parseScheduler("local"),
                                            parseScheduler("global")};
  const auto outcomes = runGrid(df, rows, kinds);

  TextTable table({"rate", "policy", "omega", "met", "gamma", "cost$",
                   "theta"});
  std::vector<std::vector<double>> csv;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      const auto& r = outcomes[i * kinds.size() + k].result;
      table.addRow({TextTable::num(rates[i], 0), r.scheduler_name,
                    TextTable::num(r.average_omega), constraintMark(r),
                    TextTable::num(r.average_gamma),
                    TextTable::num(r.total_cost, 2),
                    TextTable::num(r.theta)});
      csv.push_back({rates[i], static_cast<double>(k), r.average_omega,
                     r.constraint_met ? 1.0 : 0.0, r.average_gamma,
                     r.total_cost, r.theta});
    }
  }
  printTableAndCsv(
      table, {"rate", "policy", "omega", "met", "gamma", "cost", "theta"},
      csv);
}

}  // namespace dds::bench
