#include "dds/cloud/placement_model.hpp"

#include "dds/common/rng.hpp"

namespace dds {

PlacementModel::PlacementModel(PlacementConfig config, std::uint64_t seed)
    : config_(config), seed_(seed) {
  config_.validate();
}

int PlacementModel::rackOf(VmId vm) const {
  const std::uint64_t h = splitmix64(seed_ ^ (0x9d2c5680ull + vm.value()));
  return static_cast<int>(h % static_cast<std::uint64_t>(config_.racks));
}

}  // namespace dds
