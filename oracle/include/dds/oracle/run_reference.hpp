// Engine-level runs on the reference simulators.
#pragma once

#include "dds/core/engine.hpp"
#include "dds/obs/trace_sink.hpp"
#include "dds/sched/scheduler.hpp"

namespace dds::oracle {

/// `engine.run(spec, sink)` with ReferenceFluidSimulator and
/// ReferenceEventSimulator in place of the product's simulators: the same
/// interval loop (SimulationEngine::runWith), the same cloud, scheduler,
/// faults, forecasts and trace records. A product run and a reference run
/// of one engine must produce the same trace bytes and the same
/// per-interval metrics; only the simulators' work counters and wall
/// times differ.
[[nodiscard]] ExperimentResult runReference(const SimulationEngine& engine,
                                            const SchedulerSpec& spec,
                                            obs::TraceSink* sink = nullptr);

}  // namespace dds::oracle
