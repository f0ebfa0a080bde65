// Parallel experiment campaigns (the §8 evaluation grid as a first-class
// object) and the job API of the multi-tenant campaign service.
//
// The paper's evaluation is a grid of (policy x rate x variability x seed)
// runs, each an independent SimulationEngine::run — embarrassingly
// parallel. A Campaign collects the grid cells; runCampaign() fans them
// across a work-stealing ThreadPool and returns outcomes in SUBMISSION
// ORDER, so parallel output is bit-identical to a serial run (every run
// owns its mutable simulator state; immutable substrate arenas are shared
// read-only, and result aggregation order never depends on completion
// order).
//
// Storage is copy-on-write: a campaign interns each distinct
// ExperimentConfig once (seed factored out as a per-job delta), so a
// 10k-job seed sweep stores ONE config plus 10k {seed, policy, label}
// deltas instead of 10k config copies. jobs()/job() materialize full
// ExperimentJob values on demand; distinctConfigCount() exposes how many
// interned bases back the grid.
//
//   Campaign c;
//   for (double rate : rates)
//     for (const SchedulerSpec& kind : kinds)
//       c.add({&df, configAt(rate), kind});
//   CampaignResult r = runCampaign(c, {.jobs = 8});
//   saveCampaignJson("BENCH_campaign.json", r);
//
// Jobs can also arrive as versioned JSON specs (see job_spec.hpp):
// addSpec() resolves a spec against the campaign's Substrate — the
// shared immutable arenas (catalogs, planner closures, fluid layouts,
// standard graphs) every job in the campaign reuses.
//
// A job that throws (e.g. BruteForceStatic on an intractable graph) is
// captured per-outcome (ok = false, error = message) instead of tearing
// down the whole campaign.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dds/core/engine.hpp"
#include "dds/exp/job_spec.hpp"

namespace dds {

class Substrate;

/// One (dataflow, config, policy) cell of a campaign grid. Build it with
/// designated initializers; every member has a default initializer, so
/// `{.dataflow = &df, .config = cfg, .kind = kind}` leaves the optional
/// strings empty without -Wmissing-field-initializers.
struct ExperimentJob {
  const Dataflow* dataflow = nullptr;
  ExperimentConfig config = {};
  SchedulerSpec kind = {};  ///< the policy; defaults to "global".
  /// Display label; empty means schedulerName(kind).
  std::string label = {};
  /// When non-empty, the job streams its trace as JSONL to this path
  /// (one sink per job, so traces stay deterministic at any --jobs).
  std::string trace_path = {};
  /// Submitting tenant (multi-tenant service tag); purely descriptive.
  std::string tenant = {};
};

/// What one job produced. `result` is meaningful only when `ok`.
struct JobOutcome {
  std::size_t index = 0;  ///< submission index within the campaign.
  std::string label;
  std::string tenant;
  SchedulerSpec kind;
  std::uint64_t seed = 0;
  bool ok = false;
  std::string error;  ///< exception message when !ok.
  double wall_s = 0.0;  ///< this job's wall-clock seconds.
  ExperimentResult result;
};

/// An ordered list of experiment jobs; jobs are validated on add().
class Campaign {
 public:
  Campaign();

  /// Append one job; returns its submission index. The config is
  /// interned: jobs differing only by seed share one stored base.
  std::size_t add(ExperimentJob job);

  /// Append one job described by a v1 JSON job spec, resolved through
  /// the campaign's substrate (graph shared, config parsed strictly).
  /// Returns the submission index; throws ConfigError on a bad spec.
  std::size_t addSpec(const JobSpec& spec);

  /// One job per scheduler policy under a fixed (dataflow, config).
  void addPolicySweep(const Dataflow& dataflow, const ExperimentConfig& base,
                      const std::vector<SchedulerSpec>& kinds);

  /// `runs` replicates of one (config, policy) pair with per-job derived
  /// seeds base.seed, base.seed + 1, ... (the runReplicated convention).
  void addSeedSweep(const Dataflow& dataflow, const ExperimentConfig& base,
                    const SchedulerSpec& kind, std::size_t runs);

  /// Give every job a distinct trace path derived from `base`: the only
  /// job gets `base` itself; with several jobs each gets `base.<label>`,
  /// and duplicate labels are further suffixed `.<submission index>`.
  void setTracePaths(const std::string& base);

  /// The shared immutable arenas this campaign's jobs run against.
  /// Every campaign owns one by default; point several campaigns at one
  /// substrate to share arenas across batches (the service case).
  [[nodiscard]] const std::shared_ptr<Substrate>& substrate() const {
    return substrate_;
  }
  void setSubstrate(std::shared_ptr<Substrate> substrate);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// Materialize job `index` (base config + per-job deltas applied).
  [[nodiscard]] ExperimentJob job(std::size_t index) const;

  /// Materialized view of every job, in submission order. Built on
  /// demand — storage stays deduplicated.
  [[nodiscard]] std::vector<ExperimentJob> jobs() const;

  /// How many distinct configs back the grid (<= size()).
  [[nodiscard]] std::size_t distinctConfigCount() const {
    return bases_.size();
  }

 private:
  /// Per-job state: everything that may differ between jobs, plus a
  /// shared pointer to the interned seed-agnostic config base.
  struct Entry {
    const Dataflow* dataflow = nullptr;
    std::shared_ptr<const ExperimentConfig> base;
    std::uint64_t seed = 0;
    SchedulerSpec kind;
    std::string label;
    std::string trace_path;
    std::string tenant;
  };

  std::vector<Entry> entries_;
  std::vector<std::shared_ptr<const ExperimentConfig>> bases_;
  std::shared_ptr<Substrate> substrate_;
};

/// Knobs for runCampaign.
struct RunnerOptions {
  /// Worker threads; 0 = hardware concurrency, 1 = serial in the calling
  /// thread (no pool).
  std::size_t jobs = 0;
};

/// Every outcome of one campaign run, in submission order.
struct CampaignResult {
  std::vector<JobOutcome> outcomes;
  double wall_s = 0.0;        ///< whole-campaign wall clock.
  std::size_t jobs_used = 1;  ///< worker threads actually used.

  /// Number of failed jobs.
  [[nodiscard]] std::size_t failureCount() const;

  /// Rethrow the first failure as PreconditionError; no-op when clean.
  void throwIfAnyFailed() const;
};

/// Execute one job — the routine every runCampaign worker (and the
/// serve loop) runs. When `substrate` is non-null the engine consumes
/// its shared arenas; results are bit-identical either way.
[[nodiscard]] JobOutcome runExperimentJob(const ExperimentJob& job,
                                          std::size_t index,
                                          Substrate* substrate);

/// Resolve a v1 job spec into a runnable job against `substrate` (which
/// owns the returned job's dataflow). Throws ConfigError on a bad spec.
[[nodiscard]] ExperimentJob jobFromSpec(const JobSpec& spec,
                                        Substrate& substrate);

/// Run every job; outcomes land in submission order regardless of the
/// number of workers, so results are reproducible under any parallelism.
[[nodiscard]] CampaignResult runCampaign(const Campaign& campaign,
                                         const RunnerOptions& options = {});

/// campaignJson knobs.
struct CampaignJsonOptions {
  /// Emit wall-clock fields (campaign and per-run). Off, the document
  /// depends only on the simulation outcomes — byte-identical across
  /// runs, worker counts, and machines; throughput gauges whose name
  /// ends in "_per_s" (eventsim.events_per_s, fluid.intervals_per_s, …)
  /// are wall-clock-derived and are stripped along with the wall fields.
  bool include_timing = true;
};

/// BENCH_*.json-style export: campaign metadata plus one record per job
/// with the headline metrics. Deterministic field order, diff-friendly.
[[nodiscard]] std::string campaignJson(const CampaignResult& result,
                                       const std::string& name,
                                       const CampaignJsonOptions& options = {});

/// Write campaignJson() to `path` (IoError on failure).
void saveCampaignJson(const std::string& path, const CampaignResult& result,
                      const std::string& name);

/// One compact JSONL record for a single outcome. Carries no timing and
/// no volatile fields, so a record is byte-identical across runs, worker
/// counts, and serve-vs-batch execution. `index` is the caller's record
/// index (the serve loop numbers records by input line).
[[nodiscard]] std::string jobRecordJson(const JobOutcome& outcome,
                                        std::size_t index);

/// One jobRecordJson per outcome (indexed by position), newline after
/// each — the batch twin of the serve loop's streamed output.
[[nodiscard]] std::string campaignJsonl(const CampaignResult& result);

}  // namespace dds
