// The campaign substrate: process-wide immutable arenas shared across
// jobs (the "build once, serve many" half of the multi-tenant service).
//
// Every SimulationEngine::run historically rebuilt the same heavyweight
// state per job: the resource catalog (plus its spot-tier twin) and the
// planners' flattened (dataflow, catalog) closure. None of that state
// depends on anything but a handful of config keys, so a 10k-job grid paid
// the substrate cost 10k times. A Substrate memoizes each arena behind a
// mutex and hands out shared_ptr<const T> views; jobs keep only their
// copy-on-write state (config deltas, RNG cursors, results). Trace replay
// is not a substrate arena: every run, standalone or not, reads the one
// process-wide FutureGrid corpus (TraceReplayer::futureGridCorpus).
//
// Bit-identity contract: every arena is built through the exact code
// path the engine would run standalone (catalogByName / withSpotTier,
// PlanStructure::build, buildFluidLayout), so an engine consuming
// substrate arenas produces byte-identical traces and results to one
// constructing its own.
//
// Thread safety: all lookups are serialized on an internal mutex; the
// returned arenas are immutable and freely usable from any thread.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "dds/core/engine.hpp"
#include "dds/dataflow/dataflow.hpp"
#include "dds/trace/trace_replayer.hpp"

namespace dds {

/// Shared-arena cache; one per process (or per Campaign batch).
class Substrate {
 public:
  Substrate() = default;
  Substrate(const Substrate&) = delete;
  Substrate& operator=(const Substrate&) = delete;

  /// The catalog `config.catalog` resolves to, spot tier applied when the
  /// config enables it. Cached by (name, effective discount).
  [[nodiscard]] std::shared_ptr<const ResourceCatalog> catalogFor(
      const ExperimentConfig& config);

  /// The shared FutureGrid corpus; `seed` is ignored. Stays only for
  /// perfbench's frozen trace-pool probe until the benchmark-hygiene
  /// change retires it; product code never calls it.
  [[nodiscard]] std::shared_ptr<const TraceCorpus> tracePoolsFor(
      std::uint64_t seed);

  /// The planner closure for this (dataflow, catalog) pair. Cached by
  /// address pair, so `df` and `catalog` must outlive the substrate —
  /// which holds by construction when both come from substrate arenas or
  /// from the Campaign that owns this substrate.
  [[nodiscard]] std::shared_ptr<const PlanStructure> planStructureFor(
      const Dataflow& df, std::shared_ptr<const ResourceCatalog> catalog);

  /// A named standard dataflow ("paper", "diamond", or "chain" with the
  /// given length), shared across every job spec that names it.
  [[nodiscard]] std::shared_ptr<const Dataflow> graphFor(
      const std::string& graph, std::size_t chain_length);

  /// The cached fluid kernel's immutable SoA graph image for `df`.
  /// Cached by dataflow address (same lifetime contract as
  /// planStructureFor); jobs COW only the kernel's dynamic arrays.
  [[nodiscard]] std::shared_ptr<const FluidGraphLayout> fluidLayoutFor(
      const Dataflow& df);

  /// The full per-job arena view for one (dataflow, config) cell; one
  /// call builds (or reuses) all applicable arenas.
  [[nodiscard]] EngineArenas arenasFor(const Dataflow& df,
                                       const ExperimentConfig& config);

  /// Build-vs-reuse counters (how much work sharing saved).
  struct Stats {
    std::uint64_t catalog_builds = 0;
    std::uint64_t catalog_hits = 0;
    /// Always zero (no per-seed pools any more); kept, like
    /// tracePoolsFor, only for perfbench's frozen probe.
    std::uint64_t pool_builds = 0;
    std::uint64_t pool_hits = 0;
    std::uint64_t plan_builds = 0;
    std::uint64_t plan_hits = 0;
    std::uint64_t graph_builds = 0;
    std::uint64_t graph_hits = 0;
    std::uint64_t fluid_layout_builds = 0;
    std::uint64_t fluid_layout_hits = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  mutable std::mutex mutex_;
  Stats stats_;
  std::map<std::pair<std::string, double>,
           std::shared_ptr<const ResourceCatalog>>
      catalogs_;
  std::map<std::pair<const void*, const void*>,
           std::shared_ptr<const PlanStructure>>
      plans_;
  std::map<std::pair<std::string, std::size_t>,
           std::shared_ptr<const Dataflow>>
      graphs_;
  std::map<const void*, std::shared_ptr<const FluidGraphLayout>>
      fluid_layouts_;
};

}  // namespace dds
