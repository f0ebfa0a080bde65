// VM resource classes (paper §4).
//
// A resource class C_i is characterized by its core count N, the rated
// normalized speed pi of each core (relative to a "standard" core, pi = 1,
// akin to one Amazon ECU), a rated network bandwidth beta, and a fixed
// hourly price xi. The default catalog mirrors the 2013-era AWS first
// generation (m1.*) on-demand classes the paper evaluates with.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "dds/common/error.hpp"
#include "dds/common/ids.hpp"

namespace dds {

/// One IaaS VM class.
struct ResourceClass {
  std::string name;
  int cores = 1;                  ///< N: dedicated CPU cores.
  double core_speed = 1.0;        ///< pi: rated speed per core, standard = 1.
  double bandwidth_mbps = 100.0;  ///< beta: rated NIC bandwidth, Mbps.
  double price_per_hour = 0.0;    ///< xi: on-demand $ per (started) hour.
  /// Spot/preemptible market tier: discounted xi, but the provider may
  /// terminate the instance at any time (after a warning notice).
  bool preemptible = false;

  void validate() const {
    DDS_REQUIRE(!name.empty(), "resource class needs a name");
    DDS_REQUIRE(cores >= 1, "resource class needs at least one core");
    DDS_REQUIRE(core_speed > 0.0, "core speed must be positive");
    DDS_REQUIRE(bandwidth_mbps > 0.0, "bandwidth must be positive");
    DDS_REQUIRE(price_per_hour >= 0.0, "price must be non-negative");
  }

  /// Rated aggregate processing power of the whole VM (cores * pi).
  [[nodiscard]] double totalPower() const {
    return static_cast<double>(cores) * core_speed;
  }
};

/// An ordered set of resource classes offered by a provider.
class ResourceCatalog {
 public:
  explicit ResourceCatalog(std::vector<ResourceClass> classes);

  [[nodiscard]] std::size_t size() const { return classes_.size(); }

  [[nodiscard]] const ResourceClass& at(ResourceClassId id) const {
    DDS_REQUIRE(id.value() < classes_.size(), "resource class out of range");
    return classes_[id.value()];
  }

  [[nodiscard]] const std::vector<ResourceClass>& classes() const {
    return classes_;
  }

  /// Class with the most aggregate rated power (ties: cheaper wins).
  [[nodiscard]] ResourceClassId largest() const;

  /// Cheapest class whose aggregate rated power covers `core_power`
  /// normalized core-units; falls back to largest() when none fits.
  [[nodiscard]] ResourceClassId smallestFitting(double core_power) const;

  /// Find by name; throws PreconditionError when absent.
  [[nodiscard]] ResourceClassId byName(const std::string& name) const;

  /// Whether any class is a spot/preemptible tier.
  [[nodiscard]] bool hasPreemptible() const;

  /// The on-demand (non-preemptible) class with the same hardware specs
  /// as `id`; `id` itself when it is already on-demand. Throws
  /// PreconditionError when a spot class has no on-demand twin.
  [[nodiscard]] ResourceClassId onDemandTwin(ResourceClassId id) const;

  /// The spot twin (same cores/speed/bandwidth, preemptible) of an
  /// on-demand class, when the catalog offers one.
  [[nodiscard]] std::optional<ResourceClassId> spotTwin(
      ResourceClassId id) const;

 private:
  std::vector<ResourceClass> classes_;
};

/// Extend a catalog with a spot/preemptible tier: every on-demand class
/// gains a "<name>-spot" twin with identical hardware at
/// `price * (1 - discount)`. `discount` must be in (0, 1).
[[nodiscard]] ResourceCatalog withSpotTier(const ResourceCatalog& base,
                                           double discount);

/// The 2013-era AWS first-generation on-demand catalog used in §8.1:
/// m1.small (1 core @ 1 ECU, $0.06/h), m1.medium (1 @ 2, $0.12/h),
/// m1.large (2 @ 2, $0.24/h), m1.xlarge (4 @ 2, $0.48/h); all rated at
/// 100 Mbps inter-VM bandwidth as the paper assumes at deployment time.
[[nodiscard]] ResourceCatalog awsCatalog2013();

/// The 2013 second-generation (m3.*) classes: faster cores (3.25 ECU) at a
/// slightly higher price per unit of power and only large sizes. Used by
/// the catalog-granularity study — a coarse catalog wastes money on small
/// deployments.
[[nodiscard]] ResourceCatalog awsCatalogSecondGen2013();

/// First and second generation combined: fine granularity at the low end,
/// fast dense cores at the high end.
[[nodiscard]] ResourceCatalog awsCatalogMixed2013();

/// The names catalogByName accepts, in listing order: "m1", "m3", "mixed".
[[nodiscard]] const std::vector<std::string>& catalogNames();

/// Empty when `name` is one of catalogNames(); otherwise the error
/// catalogByName throws for it, naming `name` and the valid names. Checks
/// a name without building a catalog.
[[nodiscard]] std::string unknownCatalogError(const std::string& name);

/// Look up one of the named catalogs. Throws PreconditionError (with
/// unknownCatalogError's message) for unknown names.
[[nodiscard]] ResourceCatalog catalogByName(const std::string& name);

}  // namespace dds
