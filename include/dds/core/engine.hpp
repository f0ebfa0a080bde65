// SimulationEngine: wires a dynamic dataflow, the cloud model, trace
// replay, a workload profile and a scheduler into one experiment run.
//
//   Dataflow df = makePaperDataflow();
//   ExperimentConfig cfg;
//   cfg.workload.mean_rate = 10.0;
//   cfg.workload.profile = ProfileKind::PeriodicWave;
//   cfg.workload.infra_variability = true;
//   SimulationEngine engine(df, cfg);
//   ExperimentResult r = engine.run(parseScheduler("global"));
//
// Every run() constructs a fresh cloud, replayer and simulator, so runs of
// different schedulers under the same config are independent and see
// identical workloads and (for a fixed seed) identical trace assignments.
// One interval loop (monitor, adapt, execute) drives either simulator
// backend: run() is the member template runWith instantiated with the
// product's DataflowSimulator and EventSimulator. The template's body
// lives in the private header src/core/interval_loop.hpp, so only code
// built beside it — the product, and the test-only dds_oracle library
// with its reference simulators — can instantiate it. See DESIGN.md
// "Engine: one interval loop".
#pragma once

#include <memory>

#include "dds/core/experiment.hpp"
#include "dds/dataflow/dataflow.hpp"
#include "dds/obs/trace_sink.hpp"
#include "dds/sched/scheduler.hpp"

namespace dds {

struct FluidGraphLayout;

/// Immutable shared arenas an engine may consume instead of constructing
/// its own copies per run: the resolved resource catalog (spot tier
/// already applied when enabled), the planner closure for this (dataflow,
/// catalog) pair and the cached fluid kernel's graph layout. Every field
/// is optional — a null entry falls back to per-run construction, and a
/// populated one is bit-identical to it by contract (the exp-layer
/// Substrate builds them through the exact same code paths). Trace replay
/// needs no arena: every run reads the one process-wide FutureGrid corpus
/// (TraceReplayer::futureGridCorpus). All pointees are const and safely
/// shared across threads.
struct EngineArenas {
  std::shared_ptr<const ResourceCatalog> catalog;
  std::shared_ptr<const PlanStructure> plan_structure;
  std::shared_ptr<const FluidGraphLayout> fluid_layout;
};

/// Orchestrates one experiment configuration over any scheduler policy.
class SimulationEngine {
 public:
  SimulationEngine(const Dataflow& dataflow, ExperimentConfig config);

  /// Same, reading shared substrate arenas instead of rebuilding the
  /// catalog / planner tables / fluid layout inside every run().
  SimulationEngine(const Dataflow& dataflow, ExperimentConfig config,
                   EngineArenas arenas);

  /// Run the full optimization period under the given policy.
  [[nodiscard]] ExperimentResult run(const SchedulerSpec& spec) const {
    return run(spec, nullptr);
  }

  /// Same, streaming every trace event of the run into `sink` (may be
  /// null for no tracing). Event order is deterministic for a fixed seed
  /// and config: two runs write byte-identical JSONL traces.
  [[nodiscard]] ExperimentResult run(const SchedulerSpec& spec,
                                     obs::TraceSink* sink) const;

  /// The interval loop over a (fluid, event) simulator pair; run() is
  /// runWith<DataflowSimulator, EventSimulator>. Defined in
  /// src/core/interval_loop.hpp.
  template <class FluidSim, class EventSim>
  [[nodiscard]] ExperimentResult runWith(const SchedulerSpec& spec,
                                         obs::TraceSink* sink) const;

  /// The sigma this config resolves to (override or §8.2 derivation).
  [[nodiscard]] double sigma() const { return sigma_; }

  [[nodiscard]] const ExperimentConfig& config() const { return config_; }

 private:
  const Dataflow* dataflow_;
  ExperimentConfig config_;
  EngineArenas arenas_;
  double sigma_;
};

/// Derive the §6/§8.2 equivalence factor for a dataflow at a mean rate:
/// Gamma_max uses every PE's best-value alternate (== 1 by normalization),
/// Gamma_min the worst; acceptable cost at max value follows the linear
/// $4/h @ 2 msg/s .. $100/h @ 50 msg/s expectation, and the acceptable
/// cost at min value scales proportionally (C_min = Gamma_min * C_max),
/// which reduces sigma to 1 / C_max.
[[nodiscard]] double deriveSigma(const Dataflow& df, double mean_rate,
                                 SimTime horizon_s);

}  // namespace dds
