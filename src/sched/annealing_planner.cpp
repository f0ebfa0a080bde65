#include "dds/sched/annealing_planner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>

#include "dds/common/rng.hpp"
#include "dds/sched/plan_evaluator.hpp"
#include "dds/sched/static_planning.hpp"
#include "dds/sim/rate_model.hpp"

namespace dds {
namespace {

/// One candidate plan: alternates plus VM multiset.
struct Plan {
  std::vector<AlternateId> alternates;
  std::vector<int> vm_counts;
};

/// Compact human label of one candidate plan for decision events.
std::string planLabel(const Plan& plan) {
  std::ostringstream os;
  os << "alts=[";
  for (std::size_t i = 0; i < plan.alternates.size(); ++i) {
    os << (i ? "," : "") << plan.alternates[i].value();
  }
  os << "] vms=[";
  for (std::size_t i = 0; i < plan.vm_counts.size(); ++i) {
    os << (i ? "," : "") << plan.vm_counts[i];
  }
  os << "]";
  return os.str();
}

}  // namespace

AnnealingScheduler::AnnealingScheduler(SchedulerEnv env,
                                       AnnealingOptions options)
    : env_(env), options_(options) {
  env_.validate();
  options_.validate();
}

Deployment AnnealingScheduler::deploy(double estimated_input_rate) {
  DDS_REQUIRE(estimated_input_rate >= 0.0,
              "estimated input rate must be non-negative");
  const Dataflow& df = *env_.dataflow;
  const ResourceCatalog& catalog = env_.cloud->catalog();
  const std::size_t n_pes = df.peCount();
  const std::size_t n_classes = catalog.size();
  const double horizon_hours = std::ceil(env_.horizon_s / kSecondsPerHour);
  Rng rng(env_.seed);

  PlanEvaluatorOptions eval_options;
  eval_options.input_rate = estimated_input_rate;
  eval_options.omega_target = env_.omega_target;
  eval_options.sigma = env_.sigma;
  eval_options.horizon_hours = horizon_hours;
  eval_options.memo_capacity = options_.memo_capacity;
  PlanEvaluator eval(env_.plan_structure != nullptr
                         ? env_.plan_structure
                         : PlanStructure::build(df, catalog),
                     df, catalog, eval_options);

  // Seed plan: cheapest-per-value alternates are unknown yet, so start
  // from alternate 0 everywhere and enough largest-class VMs to host the
  // whole demand (always feasible).
  Plan current;
  current.alternates.assign(n_pes, AlternateId(0));
  current.vm_counts.assign(n_classes, 0);
  const ResourceClassId largest = catalog.largest();
  {
    Deployment probe(df);
    auto demand = requiredCorePower(df, probe, estimated_input_rate);
    double total = 0.0;
    for (double& d : demand) {
      d *= env_.omega_target;
      total += d;
    }
    const auto need = static_cast<int>(
        std::ceil(total / catalog.at(largest).totalPower()));
    current.vm_counts[largest.value()] =
        std::max(need, static_cast<int>((n_pes + 3) / 4)) + 1;
  }

  const auto search_start = std::chrono::steady_clock::now();
  eval.reset(current.alternates, current.vm_counts);
  double current_theta = eval.theta();
  // The aggregate-power sizing above ignores core granularity: greedy
  // packing strands up to one core-equivalent per PE, which on wide
  // graphs leaves the seed short. Top up until it packs.
  for (std::size_t extra = 0;
       !std::isfinite(current_theta) && extra < n_pes; ++extra) {
    ++current.vm_counts[largest.value()];
    eval.setVmCount(largest.value(), current.vm_counts[largest.value()]);
    current_theta = eval.theta();
  }
  DDS_ENSURE(std::isfinite(current_theta),
             "annealing seed plan must be feasible");

  Plan best = current;
  double best_theta = current_theta;
  double temperature = options_.initial_temperature;
  // Superseded incumbents become the decision event's rejected
  // candidates; collected only when a tracer is attached.
  std::vector<obs::RejectedPlan> superseded;

  enum class MoveKind { None, Alternate, VmCount };

  for (std::size_t iter = 0; iter < options_.iterations; ++iter) {
    // Move: 50% flip an alternate (if any PE has >1), 50% nudge a VM
    // count. The move is described first and applied second so a
    // rejection can be undone in place.
    MoveKind kind = MoveKind::None;
    std::size_t move_pe = 0;
    AlternateId alt_old(0);
    AlternateId alt_new(0);
    std::size_t move_cls = 0;
    int count_old = 0;
    int count_new = 0;

    const bool flip_alternate = rng.chance(0.5);
    if (flip_alternate) {
      const auto pe = static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(n_pes) - 1));
      const auto n_alts = df.pe(PeId(static_cast<PeId::value_type>(pe)))
                              .alternateCount();
      if (n_alts > 1) {
        auto next = current.alternates[pe].value();
        next = (next + 1 +
                static_cast<AlternateId::value_type>(rng.uniformInt(
                    0, static_cast<std::int64_t>(n_alts) - 2))) %
               static_cast<AlternateId::value_type>(n_alts);
        kind = MoveKind::Alternate;
        move_pe = pe;
        alt_old = current.alternates[pe];
        alt_new = AlternateId(next);
      }
    } else {
      const auto cls = static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(n_classes) - 1));
      const int delta = rng.chance(0.5) ? 1 : -1;
      kind = MoveKind::VmCount;
      move_cls = cls;
      count_old = current.vm_counts[cls];
      count_new = std::max(0, count_old + delta);
    }

    if (kind == MoveKind::Alternate) {
      eval.setAlternate(move_pe, alt_new);
    } else if (kind == MoveKind::VmCount) {
      eval.setVmCount(move_cls, count_new);
    }
    const double candidate_theta = eval.theta();

    const double delta_theta = candidate_theta - current_theta;
    const bool accept =
        std::isfinite(candidate_theta) &&
        (delta_theta >= 0.0 ||
         rng.uniform(0.0, 1.0) < std::exp(delta_theta / temperature));
    if (accept) {
      if (kind == MoveKind::Alternate) {
        current.alternates[move_pe] = alt_new;
      } else if (kind == MoveKind::VmCount) {
        current.vm_counts[move_cls] = count_new;
      }
      current_theta = candidate_theta;
      if (current_theta > best_theta) {
        if (env_.tracer.enabled()) {
          superseded.push_back({planLabel(best), best_theta});
        }
        best.alternates = current.alternates;
        best.vm_counts = current.vm_counts;
        best_theta = current_theta;
      }
    } else {
      // Rejected: restore the evaluator. The undo re-propagates the same
      // downstream cone from unchanged inputs, which restores every
      // arrival and demand double exactly.
      if (kind == MoveKind::Alternate) {
        eval.setAlternate(move_pe, alt_old);
      } else if (kind == MoveKind::VmCount) {
        eval.setVmCount(move_cls, count_old);
      }
    }
    temperature *= options_.cooling;
  }
  const std::chrono::duration<double> search_elapsed =
      std::chrono::steady_clock::now() - search_start;

  // Final scoring goes through the from-scratch path: it doubles as an
  // exact cross-check of the incremental evaluator (the ENSURE below) and
  // produces the greedy assignment to materialize.
  Deployment deployment(df);
  static_planning::Assignment assignment;
  best_theta_ = referencePlanTheta(df, catalog, best.alternates,
                                   best.vm_counts, estimated_input_rate,
                                   env_.omega_target, env_.sigma,
                                   horizon_hours, deployment, &assignment);
  DDS_ENSURE(best_theta_ == best_theta,
             "incremental Theta of the best plan must equal its "
             "from-scratch re-score bit for bit");
  if (env_.tracer.enabled()) {
    // Keep the last few superseded incumbents (best theta first).
    std::reverse(superseded.begin(), superseded.end());
    if (superseded.size() > 3) superseded.resize(3);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    env_.tracer.emit(
        obs::SchedulerDecisionEvent{.t = 0.0,
                                    .interval = 0,
                                    .phase = "deploy",
                                    .action = "annealing",
                                    .omega = nan,
                                    .omega_bar = nan,
                                    .theta = best_theta_,
                                    .rejected = std::move(superseded)});
  }
  if (env_.metrics != nullptr) {
    env_.metrics->counter("sched.plans_examined")
        .inc(static_cast<std::uint64_t>(options_.iterations));
    env_.metrics->counter("sched.evaluator_memo_lookups")
        .inc(eval.memoLookups());
    env_.metrics->counter("sched.evaluator_memo_hits").inc(eval.memoHits());
    if (search_elapsed.count() > 0.0) {
      env_.metrics->gauge("sched.deploy_decisions_per_s")
          .set(static_cast<double>(options_.iterations) /
               search_elapsed.count());
    }
  }
  static_planning::materialize(*env_.cloud, best.vm_counts, assignment);
  return deployment;
}

}  // namespace dds
