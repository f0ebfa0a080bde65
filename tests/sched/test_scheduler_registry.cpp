#include <gtest/gtest.h>

#include "dds/cloud/resource_class.hpp"
#include "dds/common/error.hpp"
#include "dds/dataflow/standard_graphs.hpp"
#include "dds/monitor/monitoring.hpp"
#include "dds/sched/heuristic_scheduler.hpp"
#include "dds/sched/scheduler.hpp"

namespace dds {
namespace {

TEST(SchedulerRegistry, NameParseRoundTripsForEveryKind) {
  for (const SchedulerSpec& kind : allSchedulers()) {
    const std::string name = schedulerName(kind);
    EXPECT_FALSE(name.empty());
    EXPECT_EQ(parseScheduler(name), kind) << name;
  }
}

TEST(SchedulerRegistry, NamesAreUnique) {
  const auto& kinds = allSchedulers();
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    for (std::size_t j = i + 1; j < kinds.size(); ++j) {
      EXPECT_NE(schedulerName(kinds[i]), schedulerName(kinds[j]));
      EXPECT_FALSE(kinds[i] == kinds[j]);
    }
  }
}

TEST(SchedulerRegistry, ParseRejectsUnknownNameWithOffender) {
  try {
    (void)parseScheduler("quantum");
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("quantum"), std::string::npos);
  }
}

TEST(SchedulerRegistry, FactoryBuildsEveryKind) {
  Dataflow df = makePaperDataflow();
  CloudProvider cloud{awsCatalog2013()};
  TraceReplayer replayer = TraceReplayer::ideal();
  MonitoringService mon{cloud, replayer};
  SchedulerEnv env;
  env.dataflow = &df;
  env.cloud = &cloud;
  env.monitor = &mon;

  for (const SchedulerSpec& kind : allSchedulers()) {
    EXPECT_NE(makeScheduler(kind, env, HeuristicConfig{}, ResilienceConfig{},
                            0.0, 0.0),
              nullptr)
        << schedulerName(kind);
  }
}

TEST(SchedulerSpec, AllSchedulersKeepsTheCanonicalOrder) {
  // --help, bench_elasticity and every policy sweep list this order.
  const std::vector<std::string> expected = {
      "local",         "global",          "local-static",
      "global-static", "local-nodyn",     "global-nodyn",
      "brute-force-static", "reactive-autoscaler", "annealing-static",
      "local-predictive",   "global-predictive"};
  std::vector<std::string> names;
  for (const SchedulerSpec& spec : allSchedulers()) {
    names.push_back(schedulerName(spec));
  }
  EXPECT_EQ(names, expected);
}

TEST(SchedulerSpec, NamesComposeStrategyAndMode) {
  using Mode = SchedulerSpec::Mode;
  using Family = SchedulerSpec::Family;
  const SchedulerSpec local_nodyn{Family::Heuristic, Strategy::Local,
                                  Mode::NoDyn};
  EXPECT_EQ(parseScheduler("local-nodyn"), local_nodyn);
  const SchedulerSpec global_predictive{Family::Heuristic, Strategy::Global,
                                        Mode::Predictive};
  EXPECT_EQ(parseScheduler("global-predictive"), global_predictive);
  EXPECT_EQ(parseScheduler("annealing-static").family, Family::Annealing);
  EXPECT_EQ(parseScheduler("reactive-autoscaler").family, Family::Reactive);
  EXPECT_EQ(schedulerName(SchedulerSpec{}), "global");
}

class SchedulerSpecRejects : public ::testing::TestWithParam<const char*> {};

TEST_P(SchedulerSpecRejects, InvalidComposition) {
  const std::string name = GetParam();
  try {
    (void)parseScheduler(name);
    FAIL() << "expected PreconditionError for '" << name << "'";
  } catch (const PreconditionError& e) {
    EXPECT_EQ(std::string(e.what()),
              "unknown scheduler name: '" + name + "'");
  }
}

INSTANTIATE_TEST_SUITE_P(Names, SchedulerSpecRejects,
                         ::testing::Values("global-static-nodyn",
                                           "global-nodyn-predictive",
                                           "brute-force-predictive",
                                           "reactive-autoscaler-static",
                                           "global-", "Global", ""));

}  // namespace
}  // namespace dds
