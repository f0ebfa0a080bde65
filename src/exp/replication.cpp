#include "dds/exp/replication.hpp"

#include "dds/exp/campaign.hpp"

namespace dds {

ReplicatedResult runReplicated(const Dataflow& dataflow,
                               ExperimentConfig base,
                               const SchedulerSpec& kind, std::size_t runs,
                               std::size_t jobs) {
  DDS_REQUIRE(runs >= 1, "need at least one run");
  Campaign campaign;
  campaign.addSeedSweep(dataflow, base, kind, runs);
  RunnerOptions options;
  options.jobs = jobs;
  const CampaignResult outcome = runCampaign(campaign, options);
  outcome.throwIfAnyFailed();

  ReplicatedResult out;
  out.runs = runs;
  // Outcomes arrive in submission (= seed) order; folding them in that
  // order keeps the floating-point aggregates bit-identical to a serial
  // loop.
  for (const JobOutcome& o : outcome.outcomes) {
    const ExperimentResult& r = o.result;
    out.scheduler_name = r.scheduler_name;
    out.omega.add(r.average_omega);
    out.gamma.add(r.average_gamma);
    out.cost.add(r.total_cost);
    out.theta.add(r.theta);
    if (!r.constraint_met) ++out.constraint_violations;
  }
  return out;
}

}  // namespace dds
