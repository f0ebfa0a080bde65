#include "dds/sched/static_planning.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace dds::static_planning {
namespace {
constexpr double kEps = 1e-9;
}

std::optional<Assignment> tryAssign(const ResourceCatalog& catalog,
                                    const std::vector<int>& vm_counts,
                                    const std::vector<double>& demand) {
  const std::size_t n_classes = catalog.size();
  DDS_REQUIRE(vm_counts.size() == n_classes,
              "vm_counts does not match catalog");
  std::vector<int> free_cores(n_classes);
  for (std::size_t c = 0; c < n_classes; ++c) {
    free_cores[c] =
        vm_counts[c] *
        catalog.at(ResourceClassId(static_cast<ResourceClassId::value_type>(c)))
            .cores;
  }
  // Class order: fastest cores first.
  std::vector<std::size_t> class_order(n_classes);
  std::iota(class_order.begin(), class_order.end(), 0u);
  std::sort(class_order.begin(), class_order.end(),
            [&catalog](std::size_t a, std::size_t b) {
              return catalog
                         .at(ResourceClassId(
                             static_cast<ResourceClassId::value_type>(a)))
                         .core_speed >
                     catalog
                         .at(ResourceClassId(
                             static_cast<ResourceClassId::value_type>(b)))
                         .core_speed;
            });

  std::vector<std::size_t> pe_order(demand.size());
  std::iota(pe_order.begin(), pe_order.end(), 0u);
  std::sort(pe_order.begin(), pe_order.end(),
            [&demand](std::size_t a, std::size_t b) {
              return demand[a] > demand[b];
            });

  Assignment assignment(demand.size(), std::vector<int>(n_classes, 0));
  for (const std::size_t pe : pe_order) {
    double covered = 0.0;
    int cores_taken = 0;
    for (const std::size_t c : class_order) {
      const double speed =
          catalog
              .at(ResourceClassId(static_cast<ResourceClassId::value_type>(c)))
              .core_speed;
      while (free_cores[c] > 0 &&
             (covered + kEps < demand[pe] || cores_taken == 0)) {
        --free_cores[c];
        ++assignment[pe][c];
        ++cores_taken;
        covered += speed;
      }
      if (covered + kEps >= demand[pe] && cores_taken > 0) break;
    }
    if (covered + kEps < demand[pe] || cores_taken == 0) {
      return std::nullopt;
    }
  }
  return assignment;
}

PackScratch::PackScratch(const ResourceCatalog& catalog) {
  const std::size_t n_classes = catalog.size();
  class_order.resize(n_classes);
  std::iota(class_order.begin(), class_order.end(), 0u);
  // Same comparator as tryAssign(): fastest cores first. std::sort is
  // deterministic for a fixed input and comparator, so hoisting the sort
  // out of the per-candidate path cannot change any packing verdict.
  std::sort(class_order.begin(), class_order.end(),
            [&catalog](std::size_t a, std::size_t b) {
              return catalog
                         .at(ResourceClassId(
                             static_cast<ResourceClassId::value_type>(a)))
                         .core_speed >
                     catalog
                         .at(ResourceClassId(
                             static_cast<ResourceClassId::value_type>(b)))
                         .core_speed;
            });
  class_speed.resize(n_classes);
  class_cores.resize(n_classes);
  for (std::size_t c = 0; c < n_classes; ++c) {
    const auto& cls = catalog.at(
        ResourceClassId(static_cast<ResourceClassId::value_type>(c)));
    class_speed[c] = cls.core_speed;
    class_cores[c] = cls.cores;
  }
  free_cores.resize(n_classes);
  // Power-of-two speeds accumulate exactly under repeated addition (every
  // partial sum is a multiple of the smallest speed), which is what lets
  // packingFeasible() collapse whole per-class takes into closed form.
  bulk_exact = n_classes > 0;
  for (std::size_t c = 0; c < n_classes; ++c) {
    int exp = 0;
    if (!(class_speed[c] > 0.0) ||
        std::frexp(class_speed[c], &exp) != 0.5) {
      bulk_exact = false;
    }
  }
}

bool packingFeasible(const ResourceCatalog& catalog,
                     const std::vector<int>& vm_counts,
                     const std::vector<double>& demand,
                     PackScratch& scratch) {
  const std::size_t n_classes = catalog.size();
  DDS_REQUIRE(vm_counts.size() == n_classes,
              "vm_counts does not match catalog");
  DDS_REQUIRE(scratch.class_order.size() == n_classes,
              "scratch built for a different catalog");
  for (std::size_t c = 0; c < n_classes; ++c) {
    scratch.free_cores[c] = vm_counts[c] * scratch.class_cores[c];
  }
  // The PE ordering must be rebuilt per call (the demand vector changes),
  // with tryAssign()'s exact comparator so verdicts stay identical.
  scratch.pe_order.resize(demand.size());
  std::iota(scratch.pe_order.begin(), scratch.pe_order.end(), 0u);
  std::sort(scratch.pe_order.begin(), scratch.pe_order.end(),
            [&demand](std::size_t a, std::size_t b) {
              return demand[a] > demand[b];
            });

  // Bulk-take guard: beyond power-of-two speeds (checked once in the
  // scratch ctor), every partial `covered` sum must stay an exact multiple
  // of the smallest speed below 2^53 such multiples, or repeated addition
  // and the closed form could round differently.
  bool bulk = scratch.bulk_exact;
  if (bulk) {
    long long total_cores = 0;
    double min_speed = std::numeric_limits<double>::infinity();
    double max_speed = 0.0;
    for (std::size_t c = 0; c < n_classes; ++c) {
      total_cores += scratch.free_cores[c];
      min_speed = std::min(min_speed, scratch.class_speed[c]);
      max_speed = std::max(max_speed, scratch.class_speed[c]);
    }
    bulk = static_cast<double>(total_cores) * max_speed < 9.0e15 * min_speed;
  }

  // Mirror of tryAssign()'s greedy loop minus the Assignment writes; the
  // writes never feed back into control flow, so the verdict matches.
  for (const std::size_t pe : scratch.pe_order) {
    double covered = 0.0;
    int cores_taken = 0;
    for (const std::size_t c : scratch.class_order) {
      const double speed = scratch.class_speed[c];
      int& avail = scratch.free_cores[c];
      if (bulk) {
        if (avail > 0 && (covered + kEps < demand[pe] || cores_taken == 0)) {
          // Closed form of the scalar take-one-core loop: find the first
          // core count k at which its stop test passes, or drain the
          // class. The estimate is one division; the fixups run O(1)
          // steps and evaluate the exact stop predicate on the exact
          // partial sums, so k and `covered` match the loop bitwise.
          const double need = demand[pe] - covered;
          long long k = 1;
          if (need > 0.0) {
            const double est = std::ceil(need / speed);
            if (est >= static_cast<double>(avail)) {
              k = avail;
            } else if (est > 1.0) {
              k = static_cast<long long>(est);
            }
          }
          while (k > 1 && covered + static_cast<double>(k - 1) * speed +
                                  kEps >=
                              demand[pe]) {
            --k;
          }
          while (k < avail &&
                 covered + static_cast<double>(k) * speed + kEps <
                     demand[pe]) {
            ++k;
          }
          avail -= static_cast<int>(k);
          cores_taken += static_cast<int>(k);
          covered += static_cast<double>(k) * speed;
        }
      } else {
        while (avail > 0 &&
               (covered + kEps < demand[pe] || cores_taken == 0)) {
          --avail;
          ++cores_taken;
          covered += speed;
        }
      }
      if (covered + kEps >= demand[pe] && cores_taken > 0) break;
    }
    if (covered + kEps < demand[pe] || cores_taken == 0) {
      return false;
    }
  }
  return true;
}

double multisetCost(const ResourceCatalog& catalog,
                    const std::vector<int>& vm_counts,
                    double horizon_hours) {
  double cost = 0.0;
  for (std::size_t c = 0; c < vm_counts.size(); ++c) {
    cost +=
        vm_counts[c] *
        catalog.at(ResourceClassId(static_cast<ResourceClassId::value_type>(c)))
            .price_per_hour *
        horizon_hours;
  }
  return cost;
}

double deploymentGamma(const Dataflow& df, const Deployment& deployment) {
  double gamma = 0.0;
  for (const auto& pe : df.pes()) {
    gamma += pe.relativeValue(deployment.activeAlternate(pe.id()));
  }
  return gamma / static_cast<double>(df.peCount());
}

void materialize(CloudProvider& cloud, const std::vector<int>& vm_counts,
                 const Assignment& assignment) {
  const std::size_t n_classes = vm_counts.size();
  std::vector<std::vector<VmId>> vms_by_class(n_classes);
  for (std::size_t c = 0; c < n_classes; ++c) {
    for (int k = 0; k < vm_counts[c]; ++k) {
      vms_by_class[c].push_back(cloud.acquire(
          ResourceClassId(static_cast<ResourceClassId::value_type>(c)), 0.0));
    }
  }
  for (std::size_t pe = 0; pe < assignment.size(); ++pe) {
    for (std::size_t c = 0; c < n_classes; ++c) {
      int remaining = assignment[pe][c];
      for (const VmId vm_id : vms_by_class[c]) {
        const VmInstance& vm = cloud.instance(vm_id);
        while (remaining > 0 && vm.freeCoreCount() > 0) {
          cloud.allocateCore(vm_id, PeId(static_cast<PeId::value_type>(pe)));
          --remaining;
        }
        if (remaining == 0) break;
      }
      DDS_ENSURE(remaining == 0, "materialization ran out of cores");
    }
  }
}

}  // namespace dds::static_planning
