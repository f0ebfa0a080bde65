#include "dds/sim/simulator.hpp"

#include <chrono>

#include "dds/sim/fluid_layout.hpp"

namespace dds {

DataflowSimulator::DataflowSimulator(
    const Dataflow& df, const CloudProvider& cloud,
    const MonitoringService& mon, SimConfig cfg,
    std::shared_ptr<const FluidGraphLayout> layout)
    : df_(&df),
      cloud_(&cloud),
      cfg_(cfg),
      layout_(layout != nullptr ? std::move(layout) : buildFluidLayout(df)),
      backlog_(df.peCount(), 0.0),
      in_transit_(df.peCount(), 0.0),
      pause_remaining_(df.peCount(), 0.0),
      output_rate_(df.peCount(), 0.0),
      coeff_(mon),
      pe_cores_(df.peCount()) {
  cfg_.validate();
  DDS_REQUIRE(layout_->pe_count == df.peCount(),
              "fluid layout does not match dataflow");
}

double DataflowSimulator::totalBacklog() const {
  double total = 0.0;
  for (double b : backlog_) total += b;
  return total;
}

void DataflowSimulator::migrateBacklog(PeId pe, double fraction) {
  DDS_REQUIRE(pe.value() < backlog_.size(), "PE id out of range");
  DDS_REQUIRE(fraction >= 0.0 && fraction <= 1.0,
              "migration fraction out of range");
  const double moved = backlog_[pe.value()] * fraction;
  backlog_[pe.value()] -= moved;
  in_transit_[pe.value()] += moved;
}

double DataflowSimulator::dropBacklog(PeId pe, double fraction) {
  DDS_REQUIRE(pe.value() < backlog_.size(), "PE id out of range");
  DDS_REQUIRE(fraction >= 0.0 && fraction <= 1.0,
              "drop fraction out of range");
  const double dropped = backlog_[pe.value()] * fraction;
  backlog_[pe.value()] -= dropped;
  return dropped;
}

void DataflowSimulator::pauseService(PeId pe, SimTime seconds) {
  DDS_REQUIRE(pe.value() < pause_remaining_.size(), "PE id out of range");
  DDS_REQUIRE(seconds >= 0.0, "pause must be non-negative");
  pause_remaining_[pe.value()] += seconds;
}

IntervalMetrics DataflowSimulator::step(IntervalIndex index,
                                        double input_rate,
                                        const Deployment& deployment) {
  DDS_REQUIRE(input_rate >= 0.0, "input rate must be non-negative");
  DDS_REQUIRE(deployment.peCount() == df_->peCount(),
              "deployment does not match dataflow");
  const auto wall_start = std::chrono::steady_clock::now();
  const SimTime t_start = static_cast<SimTime>(index) * cfg_.interval_s;

  IntervalMetrics m;
  m.index = index;
  m.start = t_start;
  m.input_rate = input_rate;
  m.pe_stats.resize(df_->peCount());
  runInterval(t_start, input_rate, deployment, m);
  wall_seconds_ += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
  return m;
}

}  // namespace dds
