#include "dds/exp/campaign.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dds/common/error.hpp"
#include "dds/common/time.hpp"
#include "dds/dataflow/standard_graphs.hpp"
#include "dds/exp/replication.hpp"

namespace dds {
namespace {

ExperimentConfig shortConfig() {
  ExperimentConfig cfg;
  cfg.horizon_s = 0.5 * kSecondsPerHour;
  cfg.workload.mean_rate = 10.0;
  cfg.workload.profile = ProfileKind::PeriodicWave;
  cfg.workload.infra_variability = true;
  cfg.seed = 77;
  return cfg;
}

/// Every metric the campaign exports, compared exactly: the parallel
/// runner must be BIT-identical to serial, not merely close.
void expectIdentical(const JobOutcome& a, const JobOutcome& b) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.result.scheduler_name, b.result.scheduler_name);
  EXPECT_EQ(a.result.average_omega, b.result.average_omega);
  EXPECT_EQ(a.result.average_gamma, b.result.average_gamma);
  EXPECT_EQ(a.result.total_cost, b.result.total_cost);
  EXPECT_EQ(a.result.theta, b.result.theta);
  EXPECT_EQ(a.result.constraint_met, b.result.constraint_met);
  EXPECT_EQ(a.result.peak_vms, b.result.peak_vms);
  EXPECT_EQ(a.result.peak_cores, b.result.peak_cores);
  EXPECT_EQ(a.result.run.intervals().size(), b.result.run.intervals().size());
  for (std::size_t i = 0; i < a.result.run.intervals().size(); ++i) {
    EXPECT_EQ(a.result.run.intervals()[i].omega,
              b.result.run.intervals()[i].omega);
    EXPECT_EQ(a.result.run.intervals()[i].cost_cumulative,
              b.result.run.intervals()[i].cost_cumulative);
  }
}

TEST(Campaign, AddValidatesJobs) {
  Campaign campaign;
  EXPECT_THROW(campaign.add({.dataflow = nullptr,
                             .config = shortConfig(),
                             .kind = parseScheduler("global")}),
               PreconditionError);
  ExperimentConfig bad = shortConfig();
  bad.horizon_s = -1.0;
  const Dataflow df = makePaperDataflow();
  EXPECT_THROW(
      campaign.add({.dataflow = &df,
                    .config = bad,
                    .kind = parseScheduler("global")}),
      PreconditionError);
  EXPECT_TRUE(campaign.empty());
}

TEST(Campaign, SeedSweepDerivesSequentialSeeds) {
  const Dataflow df = makePaperDataflow();
  Campaign campaign;
  campaign.addSeedSweep(df, shortConfig(), parseScheduler("local"), 4);
  ASSERT_EQ(campaign.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(campaign.jobs()[i].config.seed, 77u + i);
  }
}

TEST(Campaign, ParallelIsBitIdenticalToSerial) {
  const Dataflow df = makePaperDataflow();
  // >= 2 policies x >= 4 seeds, as one grid.
  Campaign campaign;
  for (const auto kind :
       {parseScheduler("global"), parseScheduler("local")}) {
    campaign.addSeedSweep(df, shortConfig(), kind, 4);
  }
  ASSERT_EQ(campaign.size(), 8u);

  const CampaignResult serial = runCampaign(campaign, {.jobs = 1});
  const CampaignResult parallel = runCampaign(campaign, {.jobs = 4});
  EXPECT_EQ(serial.jobs_used, 1u);
  EXPECT_EQ(parallel.jobs_used, 4u);
  ASSERT_EQ(serial.outcomes.size(), parallel.outcomes.size());
  for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
    expectIdentical(serial.outcomes[i], parallel.outcomes[i]);
  }
}

TEST(Campaign, OutcomesStayInSubmissionOrder) {
  const Dataflow df = makePaperDataflow();
  Campaign campaign;
  campaign.addPolicySweep(df, shortConfig(),
                          {parseScheduler("global"),
                           parseScheduler("local"),
                           parseScheduler("global-static")});
  const CampaignResult res = runCampaign(campaign, {.jobs = 3});
  ASSERT_EQ(res.outcomes.size(), 3u);
  EXPECT_EQ(res.outcomes[0].kind, parseScheduler("global"));
  EXPECT_EQ(res.outcomes[1].kind, parseScheduler("local"));
  EXPECT_EQ(res.outcomes[2].kind, parseScheduler("global-static"));
  for (std::size_t i = 0; i < res.outcomes.size(); ++i) {
    EXPECT_EQ(res.outcomes[i].index, i);
    EXPECT_TRUE(res.outcomes[i].ok) << res.outcomes[i].error;
  }
}

TEST(Campaign, JobFailureIsCapturedNotFatal) {
  const Dataflow df = makePaperDataflow();
  ExperimentConfig cfg = shortConfig();
  cfg.workload.mean_rate = 50.0;  // makes brute force intractable
  Campaign campaign;
  campaign.addPolicySweep(
      df, cfg,
      {parseScheduler("brute-force-static"), parseScheduler("local")});
  const CampaignResult res = runCampaign(campaign, {.jobs = 2});
  ASSERT_EQ(res.outcomes.size(), 2u);
  EXPECT_FALSE(res.outcomes[0].ok);
  EXPECT_FALSE(res.outcomes[0].error.empty());
  EXPECT_TRUE(res.outcomes[1].ok) << res.outcomes[1].error;
  EXPECT_EQ(res.failureCount(), 1u);
  EXPECT_THROW(res.throwIfAnyFailed(), PreconditionError);
}

TEST(Campaign, ConfigInterningCollapsesSeedSweeps) {
  const Dataflow df = makePaperDataflow();
  Campaign campaign;
  campaign.addSeedSweep(df, shortConfig(), parseScheduler("global"), 50);
  campaign.addSeedSweep(df, shortConfig(), parseScheduler("local"), 50);
  // 100 jobs, one distinct config: seeds are deltas, policies are
  // per-entry fields, the base is interned once.
  EXPECT_EQ(campaign.size(), 100u);
  EXPECT_EQ(campaign.distinctConfigCount(), 1u);

  // A genuinely different config gets its own base...
  ExperimentConfig other = shortConfig();
  other.workload.mean_rate = 20.0;
  campaign.addSeedSweep(df, other, parseScheduler("global"), 10);
  EXPECT_EQ(campaign.distinctConfigCount(), 2u);
  // ...and materialized jobs still carry their own seeds.
  EXPECT_EQ(campaign.job(0).config.seed, 77u);
  EXPECT_EQ(campaign.job(49).config.seed, 77u + 49);
  EXPECT_EQ(campaign.job(100).config.workload.mean_rate, 20.0);
}

TEST(Campaign, InterningDoesNotChangeCampaignJson) {
  // The dedup redesign must be invisible in the output: a grid built
  // from wholesale config copies and the same grid built via spec
  // deltas produce byte-identical campaign JSON (timing stripped, which
  // is the only nondeterministic part).
  const Dataflow df = makePaperDataflow();
  Campaign copies;
  for (std::size_t i = 0; i < 4; ++i) {
    ExperimentConfig cfg = shortConfig();
    cfg.seed = 101 + i;
    copies.add(
        {.dataflow = &df, .config = cfg, .kind = parseScheduler("global")});
  }
  Campaign deltas;
  ExperimentConfig base = shortConfig();
  base.seed = 101;
  deltas.addSeedSweep(df, base, parseScheduler("global"), 4);
  EXPECT_EQ(deltas.distinctConfigCount(), 1u);

  // Same worker count on both sides: jobs_used is a header field, and
  // parallel-vs-serial invariance is covered elsewhere.
  const CampaignResult a = runCampaign(copies, {.jobs = 2});
  const CampaignResult b = runCampaign(deltas, {.jobs = 2});
  const CampaignJsonOptions no_timing{.include_timing = false};
  EXPECT_EQ(campaignJson(a, "grid", no_timing),
            campaignJson(b, "grid", no_timing));
  EXPECT_EQ(campaignJsonl(a), campaignJsonl(b));
}

TEST(Campaign, TimingFreeJsonStripsThroughputGauges) {
  // fluid.intervals_per_s (and every *_per_s gauge) is a wall-clock
  // measurement; the timing-free document must neither carry it nor
  // depend on it, while the deterministic rebuild counter stays.
  const Dataflow df = makePaperDataflow();
  Campaign campaign;
  ExperimentConfig cfg = shortConfig();
  campaign.add(
      {.dataflow = &df, .config = cfg, .kind = parseScheduler("global")});
  const CampaignResult result = runCampaign(campaign, {.jobs = 1});
  result.throwIfAnyFailed();

  const std::string timed = campaignJson(result, "grid");
  const std::string timing_free =
      campaignJson(result, "grid", {.include_timing = false});
  EXPECT_NE(timed.find("fluid.intervals_per_s"), std::string::npos);
  EXPECT_EQ(timing_free.find("fluid.intervals_per_s"), std::string::npos);
  EXPECT_EQ(timing_free.find("_per_s"), std::string::npos);
  EXPECT_NE(timing_free.find("fluid.kernel_rebuilds"), std::string::npos);
}

TEST(Campaign, AddSpecResolvesAgainstSubstrate) {
  Campaign campaign;
  const JobSpec spec = parseJobSpec(
      R"({"v": 1, "tenant": "team-a", "graph": "diamond",)"
      R"( "scheduler": "local", "config": {"seed": 9, "horizon_h": 0.5}})");
  const std::size_t index = campaign.addSpec(spec);
  EXPECT_EQ(index, 0u);
  const ExperimentJob job = campaign.job(0);
  EXPECT_EQ(job.kind, parseScheduler("local"));
  EXPECT_EQ(job.tenant, "team-a");
  EXPECT_EQ(job.config.seed, 9u);
  EXPECT_EQ(job.config.horizon_s, 0.5 * kSecondsPerHour);
  ASSERT_NE(job.dataflow, nullptr);
  EXPECT_EQ(job.dataflow->name(), "diamond");

  const CampaignResult res = runCampaign(campaign, {.jobs = 1});
  ASSERT_EQ(res.outcomes.size(), 1u);
  EXPECT_TRUE(res.outcomes[0].ok) << res.outcomes[0].error;
  EXPECT_EQ(res.outcomes[0].tenant, "team-a");
}

TEST(Campaign, JsonExportIsWellFormedAndDeterministic) {
  const Dataflow df = makePaperDataflow();
  Campaign campaign;
  campaign.addPolicySweep(df, shortConfig(),
                          {parseScheduler("global")});
  const CampaignResult res = runCampaign(campaign, {.jobs = 1});
  const std::string a = campaignJson(res, "unit");
  EXPECT_NE(a.find("\"name\": \"unit\""), std::string::npos);
  EXPECT_NE(a.find("\"runs\": ["), std::string::npos);
  EXPECT_NE(a.find("\"scheduler\": \"global\""), std::string::npos);
  // Same outcomes -> same document, byte for byte (wall_s differs between
  // runs, so re-serialize the same result instead of re-running).
  EXPECT_EQ(a, campaignJson(res, "unit"));
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(Campaign, TracePathsDeriveFromLabels) {
  const Dataflow df = makePaperDataflow();
  Campaign campaign;
  campaign.addPolicySweep(df, shortConfig(),
                          {parseScheduler("global"),
                           parseScheduler("local")});
  campaign.addSeedSweep(df, shortConfig(), parseScheduler("global"), 2);
  campaign.setTracePaths("base.jsonl");
  // Unique labels get `base.<label>`; the duplicated `global` label is
  // disambiguated with the submission index.
  EXPECT_EQ(campaign.jobs()[0].trace_path, "base.jsonl.global.0");
  EXPECT_EQ(campaign.jobs()[1].trace_path, "base.jsonl.local");
  EXPECT_EQ(campaign.jobs()[2].trace_path, "base.jsonl.global.2");
  EXPECT_EQ(campaign.jobs()[3].trace_path, "base.jsonl.global.3");

  Campaign single;
  single.addPolicySweep(df, shortConfig(), {parseScheduler("global")});
  single.setTracePaths("only.jsonl");
  EXPECT_EQ(single.jobs()[0].trace_path, "only.jsonl");
}

TEST(Campaign, TraceFilesAreByteIdenticalAtAnyJobCount) {
  const Dataflow df = makePaperDataflow();
  const std::string dir = ::testing::TempDir();
  const std::vector<SchedulerSpec> kinds = {parseScheduler("global"),
                                            parseScheduler("local"),
                                            parseScheduler("global-static")};

  const auto runWith = [&](const std::string& base, std::size_t jobs) {
    Campaign campaign;
    campaign.addPolicySweep(df, shortConfig(), kinds);
    campaign.setTracePaths(dir + base);
    runCampaign(campaign, {.jobs = jobs}).throwIfAnyFailed();
    std::vector<std::string> contents;
    for (const auto& job : campaign.jobs()) {
      contents.push_back(slurp(job.trace_path));
      EXPECT_FALSE(contents.back().empty()) << job.trace_path;
    }
    return contents;
  };

  const auto serial = runWith("serial.jsonl", 1);
  const auto parallel = runWith("parallel.jsonl", 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "trace " << i;
  }
}

TEST(Replication, ParallelMatchesSerial) {
  const Dataflow df = makePaperDataflow();
  const ExperimentConfig cfg = shortConfig();
  const auto serial =
      runReplicated(df, cfg, parseScheduler("global"), 5, /*jobs=*/1);
  const auto parallel =
      runReplicated(df, cfg, parseScheduler("global"), 5, /*jobs=*/4);
  EXPECT_EQ(serial.scheduler_name, parallel.scheduler_name);
  EXPECT_EQ(serial.omega.mean(), parallel.omega.mean());
  EXPECT_EQ(serial.omega.stddev(), parallel.omega.stddev());
  EXPECT_EQ(serial.cost.mean(), parallel.cost.mean());
  EXPECT_EQ(serial.theta.mean(), parallel.theta.mean());
  EXPECT_EQ(serial.successRate(), parallel.successRate());
}

}  // namespace
}  // namespace dds
