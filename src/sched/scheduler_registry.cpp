// The scheduler registry: names, parsing and construction for every
// concrete policy. A name is a heuristic strategy plus a mode suffix, or a
// standalone planner's family name; both directions derive from the two
// suffix/family tables below.
#include <array>
#include <string_view>

#include "dds/sched/annealing_planner.hpp"
#include "dds/sched/brute_force.hpp"
#include "dds/sched/heuristic_scheduler.hpp"
#include "dds/sched/reactive_autoscaler.hpp"
#include "dds/sched/scheduler.hpp"

namespace dds {
namespace {

using Family = SchedulerSpec::Family;
using Mode = SchedulerSpec::Mode;

/// Heuristic name suffix per Mode, in enum order.
constexpr std::array<std::string_view, 4> kModeSuffix = {
    "", "-static", "-nodyn", "-predictive"};

/// Standalone planner name per Family, in enum order (no heuristic entry).
constexpr std::array<std::string_view, 4> kPlannerName = {
    "", "brute-force-static", "annealing-static", "reactive-autoscaler"};

constexpr std::array<Strategy, 2> kStrategies = {Strategy::Local,
                                                 Strategy::Global};

}  // namespace

std::string schedulerName(const SchedulerSpec& spec) {
  if (spec.family != Family::Heuristic) {
    return std::string(kPlannerName[static_cast<std::size_t>(spec.family)]);
  }
  return toString(spec.strategy) +
         std::string(kModeSuffix[static_cast<std::size_t>(spec.mode)]);
}

const std::vector<SchedulerSpec>& allSchedulers() {
  // Mode-major heuristics, the planners, then the predictive pair: the
  // order --help and the sweeps have always listed.
  static const std::vector<SchedulerSpec> kAll = [] {
    std::vector<SchedulerSpec> all;
    const auto heuristics = [&all](Mode mode) {
      for (const Strategy s : kStrategies) {
        all.push_back({Family::Heuristic, s, mode});
      }
    };
    heuristics(Mode::Adaptive);
    heuristics(Mode::Static);
    heuristics(Mode::NoDyn);
    for (const Family f :
         {Family::BruteForce, Family::Reactive, Family::Annealing}) {
      all.push_back({.family = f});
    }
    heuristics(Mode::Predictive);
    return all;
  }();
  return kAll;
}

SchedulerSpec parseScheduler(const std::string& name) {
  for (std::size_t f = 1; f < kPlannerName.size(); ++f) {
    if (name == kPlannerName[f]) return {.family = static_cast<Family>(f)};
  }
  for (const Strategy s : kStrategies) {
    const std::string strategy = toString(s);
    if (!name.starts_with(strategy)) continue;
    const std::string_view suffix = std::string_view(name).substr(
        strategy.size());
    for (std::size_t m = 0; m < kModeSuffix.size(); ++m) {
      if (suffix == kModeSuffix[m]) {
        return {Family::Heuristic, s, static_cast<Mode>(m)};
      }
    }
  }
  throw PreconditionError("unknown scheduler name: '" + name + "'");
}

std::unique_ptr<Scheduler> makeScheduler(const SchedulerSpec& spec,
                                         const SchedulerEnv& env,
                                         const HeuristicConfig& heuristic,
                                         const ResilienceConfig& resilience,
                                         double spot_fraction,
                                         double preacquire_lead_s) {
  switch (spec.family) {
    case Family::Heuristic:
      return std::make_unique<HeuristicScheduler>(
          env, spec.strategy, spec.mode, heuristic, resilience,
          spot_fraction, preacquire_lead_s);
    case Family::BruteForce:
      return std::make_unique<BruteForceScheduler>(env);
    case Family::Annealing:
      return std::make_unique<AnnealingScheduler>(env);
    case Family::Reactive:
      return std::make_unique<ReactiveAutoscaler>(env);
  }
  throw PreconditionError("makeScheduler: unhandled scheduler family");
}

}  // namespace dds
