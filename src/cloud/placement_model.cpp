#include "dds/cloud/placement_model.hpp"

#include "dds/common/error.hpp"
#include "dds/common/rng.hpp"

namespace dds {

PlacementModel::PlacementModel(int racks, std::uint64_t seed)
    : racks_(racks), seed_(seed) {
  DDS_REQUIRE(racks_ >= 1, "need at least one rack");
}

int PlacementModel::rackOf(VmId vm) const {
  const std::uint64_t h = splitmix64(seed_ ^ (0x9d2c5680ull + vm.value()));
  return static_cast<int>(h % static_cast<std::uint64_t>(racks_));
}

}  // namespace dds
