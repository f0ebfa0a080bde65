#include "dds/cloud/resource_class.hpp"

namespace dds {

ResourceCatalog::ResourceCatalog(std::vector<ResourceClass> classes)
    : classes_(std::move(classes)) {
  DDS_REQUIRE(!classes_.empty(), "catalog needs at least one class");
  for (const auto& c : classes_) c.validate();
}

ResourceClassId ResourceCatalog::largest() const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < classes_.size(); ++i) {
    const double pi = classes_[i].totalPower();
    const double pb = classes_[best].totalPower();
    if (pi > pb ||
        (pi == pb && classes_[i].price_per_hour <
                         classes_[best].price_per_hour)) {
      best = i;
    }
  }
  return ResourceClassId(static_cast<ResourceClassId::value_type>(best));
}

ResourceClassId ResourceCatalog::smallestFitting(double core_power) const {
  DDS_REQUIRE(core_power >= 0.0, "core power must be non-negative");
  bool found = false;
  std::size_t best = 0;
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    if (classes_[i].totalPower() + 1e-12 < core_power) continue;
    if (!found ||
        classes_[i].price_per_hour < classes_[best].price_per_hour ||
        (classes_[i].price_per_hour == classes_[best].price_per_hour &&
         classes_[i].totalPower() < classes_[best].totalPower())) {
      best = i;
      found = true;
    }
  }
  return found ? ResourceClassId(
                     static_cast<ResourceClassId::value_type>(best))
               : largest();
}

ResourceClassId ResourceCatalog::byName(const std::string& name) const {
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    if (classes_[i].name == name) {
      return ResourceClassId(static_cast<ResourceClassId::value_type>(i));
    }
  }
  throw PreconditionError("no such resource class: " + name);
}

namespace {

bool sameHardware(const ResourceClass& a, const ResourceClass& b) {
  return a.cores == b.cores && a.core_speed == b.core_speed &&
         a.bandwidth_mbps == b.bandwidth_mbps;
}

}  // namespace

bool ResourceCatalog::hasPreemptible() const {
  for (const auto& c : classes_) {
    if (c.preemptible) return true;
  }
  return false;
}

ResourceClassId ResourceCatalog::onDemandTwin(ResourceClassId id) const {
  const ResourceClass& spot = at(id);
  if (!spot.preemptible) return id;
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    if (!classes_[i].preemptible && sameHardware(classes_[i], spot)) {
      return ResourceClassId(static_cast<ResourceClassId::value_type>(i));
    }
  }
  throw PreconditionError("spot class has no on-demand twin: " + spot.name);
}

std::optional<ResourceClassId> ResourceCatalog::spotTwin(
    ResourceClassId id) const {
  const ResourceClass& od = at(id);
  if (od.preemptible) return id;
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    if (classes_[i].preemptible && sameHardware(classes_[i], od)) {
      return ResourceClassId(static_cast<ResourceClassId::value_type>(i));
    }
  }
  return std::nullopt;
}

ResourceCatalog withSpotTier(const ResourceCatalog& base, double discount) {
  DDS_REQUIRE(discount > 0.0 && discount < 1.0,
              "spot discount must be in (0, 1)");
  std::vector<ResourceClass> classes = base.classes();
  const std::size_t n = classes.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (classes[i].preemptible) continue;
    ResourceClass spot = classes[i];
    spot.name += "-spot";
    spot.price_per_hour *= 1.0 - discount;
    spot.preemptible = true;
    classes.push_back(std::move(spot));
  }
  return ResourceCatalog(std::move(classes));
}

ResourceCatalog awsCatalog2013() {
  return ResourceCatalog({
      {"m1.small", 1, 1.0, 100.0, 0.06},
      {"m1.medium", 1, 2.0, 100.0, 0.12},
      {"m1.large", 2, 2.0, 100.0, 0.24},
      {"m1.xlarge", 4, 2.0, 100.0, 0.48},
  });
}

ResourceCatalog awsCatalogSecondGen2013() {
  // 13 / 26 ECU over 4 / 8 cores; ~$0.077 per unit of power vs m1's $0.06.
  return ResourceCatalog({
      {"m3.xlarge", 4, 3.25, 100.0, 1.00},
      {"m3.2xlarge", 8, 3.25, 100.0, 2.00},
  });
}

ResourceCatalog awsCatalogMixed2013() {
  return ResourceCatalog({
      {"m1.small", 1, 1.0, 100.0, 0.06},
      {"m1.medium", 1, 2.0, 100.0, 0.12},
      {"m1.large", 2, 2.0, 100.0, 0.24},
      {"m1.xlarge", 4, 2.0, 100.0, 0.48},
      {"m3.xlarge", 4, 3.25, 100.0, 1.00},
      {"m3.2xlarge", 8, 3.25, 100.0, 2.00},
  });
}

namespace {

struct NamedCatalog {
  const char* name;
  ResourceCatalog (*build)();
};

/// The one list of named catalogs: catalogNames, unknownCatalogError and
/// catalogByName all read it.
constexpr NamedCatalog kNamedCatalogs[] = {
    {"m1", &awsCatalog2013},
    {"m3", &awsCatalogSecondGen2013},
    {"mixed", &awsCatalogMixed2013},
};

const NamedCatalog* findCatalog(const std::string& name) {
  for (const NamedCatalog& c : kNamedCatalogs) {
    if (name == c.name) return &c;
  }
  return nullptr;
}

}  // namespace

const std::vector<std::string>& catalogNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const NamedCatalog& c : kNamedCatalogs) out.emplace_back(c.name);
    return out;
  }();
  return names;
}

std::string unknownCatalogError(const std::string& name) {
  if (findCatalog(name) != nullptr) return {};
  std::string message = "unknown catalog: '" + name + "' (expected ";
  for (std::size_t i = 0; i < catalogNames().size(); ++i) {
    message += (i ? ", " : "") + catalogNames()[i];
  }
  return message + ")";
}

ResourceCatalog catalogByName(const std::string& name) {
  const NamedCatalog* c = findCatalog(name);
  if (c == nullptr) throw PreconditionError(unknownCatalogError(name));
  return c->build();
}

}  // namespace dds
