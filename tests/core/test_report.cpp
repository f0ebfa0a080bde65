#include "dds/core/report.hpp"

#include <gtest/gtest.h>

#include "dds/core/engine.hpp"
#include "dds/dataflow/standard_graphs.hpp"

namespace dds {
namespace {

ExperimentResult sampleResult() {
  const Dataflow df = makePaperDataflow();
  ExperimentConfig cfg;
  cfg.horizon_s = 10.0 * kSecondsPerMinute;
  cfg.workload.mean_rate = 5.0;
  return SimulationEngine(df, cfg).run(parseScheduler("global"));
}

TEST(Report, IntervalSeriesHasOneRowPerInterval) {
  const auto r = sampleResult();
  const auto csv = intervalSeriesCsv(r.run);
  EXPECT_EQ(csv.header.size(), 8u);
  EXPECT_EQ(csv.rows.size(), r.run.intervals().size());
  // Columns line up with the metric series.
  ASSERT_EQ(csv.header[3], "omega");
  for (std::size_t i = 0; i < csv.rows.size(); ++i) {
    EXPECT_DOUBLE_EQ(csv.rows[i][3], r.run.intervals()[i].omega);
  }
}

TEST(Report, SummaryTableNamesSchedulers) {
  const auto a = sampleResult();
  const std::vector<ExperimentResult> results = {a};
  const auto table = summaryTable(results);
  EXPECT_EQ(table.rowCount(), 1u);
  EXPECT_NE(table.render().find("global"), std::string::npos);
}

TEST(Report, EmptyInputsProduceEmptyTables) {
  const RunResult empty_run;
  EXPECT_TRUE(intervalSeriesCsv(empty_run).rows.empty());
  EXPECT_EQ(summaryTable({}).rowCount(), 0u);
}

}  // namespace
}  // namespace dds
