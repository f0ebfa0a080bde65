#include "dds/sched/brute_force.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <sstream>

#include "dds/sched/plan_evaluator.hpp"
#include "dds/sched/static_planning.hpp"
#include "dds/sim/rate_model.hpp"

namespace dds {

namespace {

/// Compact human label of one candidate plan for decision events.
std::string planLabel(const std::vector<std::size_t>& combo,
                      const std::vector<int>& counts) {
  std::ostringstream os;
  os << "alts=[";
  for (std::size_t i = 0; i < combo.size(); ++i) {
    os << (i ? "," : "") << combo[i];
  }
  os << "] vms=[";
  for (std::size_t i = 0; i < counts.size(); ++i) {
    os << (i ? "," : "") << counts[i];
  }
  os << "]";
  return os.str();
}

}  // namespace

BruteForceScheduler::BruteForceScheduler(SchedulerEnv env,
                                         std::size_t max_combinations)
    : env_(env), max_combinations_(max_combinations) {
  env_.validate();
  DDS_REQUIRE(max_combinations >= 1, "combination cap must be positive");
}

Deployment BruteForceScheduler::deploy(double estimated_input_rate) {
  DDS_REQUIRE(estimated_input_rate >= 0.0,
              "estimated input rate must be non-negative");
  const Dataflow& df = *env_.dataflow;
  const ResourceCatalog& catalog = env_.cloud->catalog();
  const std::size_t n_pes = df.peCount();
  const std::size_t n_classes = catalog.size();
  const double horizon_hours = std::ceil(env_.horizon_s / kSecondsPerHour);
  plans_examined_ = 0;

  // Incremental evaluator: advancing the alternate odometer changes a
  // low-order digit most of the time, so re-propagating only the changed
  // PEs' downstream cones replaces the per-combination full DAG sweep.
  PlanEvaluatorOptions eval_options;
  eval_options.input_rate = estimated_input_rate;
  eval_options.omega_target = env_.omega_target;
  eval_options.sigma = env_.sigma;
  eval_options.horizon_hours = horizon_hours;
  PlanEvaluator eval(env_.plan_structure != nullptr
                         ? env_.plan_structure
                         : PlanStructure::build(df, catalog),
                     df, catalog, eval_options);

  // Per-class tables hoisted out of the multiset loop; the summations
  // below keep the original accumulation order and multiply association,
  // so every total and cost double is unchanged.
  std::vector<double> class_power(n_classes);
  std::vector<double> class_price(n_classes);
  std::vector<int> class_cores(n_classes);
  for (std::size_t c = 0; c < n_classes; ++c) {
    const auto& cls = catalog.at(
        ResourceClassId(static_cast<ResourceClassId::value_type>(c)));
    class_power[c] = cls.totalPower();
    class_price[c] = cls.price_per_hour;
    class_cores[c] = cls.cores;
  }

  struct Best {
    double theta = -std::numeric_limits<double>::infinity();
    Deployment deployment;
    std::vector<int> vm_counts;
    static_planning::Assignment assignment;
  };
  std::optional<Best> best;
  // Superseded feasible optima become the decision event's rejected
  // candidates; collected only when a tracer is attached.
  std::string best_label;
  std::vector<obs::RejectedPlan> superseded;

  // Odometer over alternate combinations.
  Deployment dep(df);
  std::vector<std::size_t> combo(n_pes, 0);
  std::vector<AlternateId> combo_alts(n_pes, AlternateId(0));
  std::vector<int> bounds(n_classes);
  std::vector<int> counts(n_classes);
  bool combos_left = true;
  while (combos_left) {
    for (std::size_t i = 0; i < n_pes; ++i) {
      dep.setActiveAlternate(
          PeId(static_cast<PeId::value_type>(i)),
          AlternateId(static_cast<AlternateId::value_type>(combo[i])));
      combo_alts[i] = AlternateId(static_cast<AlternateId::value_type>(combo[i]));
    }
    // Provision to exactly the throughput constraint: meeting
    // Omega >= Omega-hat at the boundary minimizes cost and thus
    // maximizes Theta under the no-variability assumption.
    eval.setAlternates(combo_alts);
    const std::vector<double>& demand = eval.demand();
    const double total_demand =
        std::accumulate(demand.begin(), demand.end(), 0.0);
    const double gamma = eval.gamma();

    // Per-class count bounds: enough of any single class to host the whole
    // demand (plus one for core-count granularity).
    for (std::size_t c = 0; c < n_classes; ++c) {
      const int by_power =
          static_cast<int>(std::ceil(total_demand / class_power[c]));
      const int by_cores = static_cast<int>(
          (n_pes + static_cast<std::size_t>(class_cores[c]) - 1) /
          static_cast<std::size_t>(class_cores[c]));
      bounds[c] = std::max(by_power, by_cores) + 1;
    }

    // Odometer over VM multisets.
    std::fill(counts.begin(), counts.end(), 0);
    bool multisets_left = true;
    while (multisets_left) {
      if (++plans_examined_ > max_combinations_) {
        throw SearchSpaceTooLarge(
            "brute-force search exceeded its combination cap; this static "
            "optimal is only tractable for small graphs and data rates");
      }
      double total_power = 0.0;
      int total_cores = 0;
      for (std::size_t c = 0; c < n_classes; ++c) {
        total_power += counts[c] * class_power[c];
        total_cores += counts[c] * class_cores[c];
      }
      double cost = 0.0;
      for (std::size_t c = 0; c < n_classes; ++c) {
        cost += counts[c] * class_price[c] * horizon_hours;
      }
      const double theta = gamma - env_.sigma * cost;
      const bool worth_checking =
          total_power + 1e-9 >= total_demand &&
          total_cores >= static_cast<int>(n_pes) &&
          (!best.has_value() || theta > best->theta);
      // The verdict-only feasibility test screens the (mostly infeasible)
      // improving candidates without building an Assignment; the full
      // packing runs only for genuine new optima.
      if (worth_checking && eval.feasibleFor(counts)) {
        auto assignment = static_planning::tryAssign(catalog, counts, demand);
        DDS_ENSURE(assignment.has_value(),
                   "feasibility verdict disagrees with packing");
        if (env_.tracer.enabled()) {
          if (best.has_value()) {
            superseded.push_back({best_label, best->theta});
          }
          best_label = planLabel(combo, counts);
        }
        best = Best{theta, dep, counts, std::move(*assignment)};
      }
      // Advance the multiset odometer.
      std::size_t pos = 0;
      while (pos < n_classes) {
        if (++counts[pos] <= bounds[pos]) break;
        counts[pos] = 0;
        ++pos;
      }
      multisets_left = pos < n_classes;
    }

    // Advance the alternate odometer.
    std::size_t pos = 0;
    while (pos < n_pes) {
      if (++combo[pos] <
          df.pe(PeId(static_cast<PeId::value_type>(pos))).alternateCount()) {
        break;
      }
      combo[pos] = 0;
      ++pos;
    }
    combos_left = pos < n_pes;
  }

  DDS_ENSURE(best.has_value(), "brute force found no feasible plan");
  if (env_.tracer.enabled()) {
    // Keep the last few superseded optima (best theta first).
    std::reverse(superseded.begin(), superseded.end());
    if (superseded.size() > 3) superseded.resize(3);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    env_.tracer.emit(
        obs::SchedulerDecisionEvent{.t = 0.0,
                                    .interval = 0,
                                    .phase = "deploy",
                                    .action = "brute_force",
                                    .omega = nan,
                                    .omega_bar = nan,
                                    .theta = best->theta,
                                    .rejected = std::move(superseded)});
  }
  if (env_.metrics != nullptr) {
    env_.metrics->counter("sched.plans_examined")
        .inc(static_cast<std::uint64_t>(plans_examined_));
    env_.metrics->counter("sched.evaluator_memo_lookups")
        .inc(eval.memoLookups());
    env_.metrics->counter("sched.evaluator_memo_hits").inc(eval.memoHits());
  }
  static_planning::materialize(*env_.cloud, best->vm_counts,
                               best->assignment);
  return best->deployment;
}

}  // namespace dds
