#include "dds/oracle/run_reference.hpp"

#include "core/interval_loop.hpp"
#include "dds/oracle/reference_event_simulator.hpp"
#include "dds/oracle/reference_fluid_simulator.hpp"

namespace dds::oracle {

ExperimentResult runReference(const SimulationEngine& engine,
                              const SchedulerSpec& spec,
                              obs::TraceSink* sink) {
  return engine.runWith<ReferenceFluidSimulator, ReferenceEventSimulator>(
      spec, sink);
}

}  // namespace dds::oracle
