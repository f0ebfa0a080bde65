#include "dds/monitor/coeff_cache.hpp"

namespace dds {
namespace {

constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();

}  // namespace

void CoeffCache::sync(const CloudProvider& cloud) {
  core_.resize(cloud.instanceCount(), kStale);
  pair_slot_of_.resize(cloud.instanceCount());
  // A stopped VM produces again only for a completion still in flight on
  // it; its row is dead otherwise, so free it.
  std::erase_if(pair_rows_, [&](std::uint32_t a) {
    if (cloud.instance(VmId(a)).isActive()) return false;
    std::vector<std::uint32_t>().swap(pair_slot_of_[a]);
    return true;
  });
}

std::uint32_t CoeffCache::pairSlot(std::uint32_t a, std::uint32_t b) {
  std::vector<std::uint32_t>& row = pair_slot_of_[a];
  if (row.empty()) pair_rows_.push_back(a);
  if (b >= row.size()) row.resize(b + 1, kNoSlot);
  std::uint32_t& slot = row[b];
  if (slot == kNoSlot) {
    slot = static_cast<std::uint32_t>(pair_.size());
    pair_.push_back(kStale);
    pair_a_.push_back(a);
    pair_b_.push_back(b);
  }
  return slot;
}

std::size_t CoeffCache::pairSlotTableEntries() const {
  std::size_t entries = 0;
  for (const auto& row : pair_slot_of_) entries += row.capacity();
  return entries;
}

void CoeffCache::refreshCore(std::uint32_t vm, SimTime t) {
  core_[vm] = monitor_->observedCorePowerSample(VmId(vm), t);
}

void CoeffCache::refreshPair(std::uint32_t slot, SimTime t) {
  pair_[slot] = monitor_->observedBandwidthSample(VmId(pair_a_[slot]),
                                                 VmId(pair_b_[slot]), t);
}

}  // namespace dds
