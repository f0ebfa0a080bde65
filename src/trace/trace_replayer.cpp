#include "dds/trace/trace_replayer.hpp"

#include <algorithm>

#include "dds/common/rng.hpp"

namespace dds {
namespace {

// Per-family hash tags: a VM's CPU window and a pair's latency and
// bandwidth windows are independent draws even when the keys coincide.
constexpr std::uint64_t kCpuTag = 0x63707574726163ull;
constexpr std::uint64_t kLatencyTag = 0x6c6174656e6379ull;
constexpr std::uint64_t kBandwidthTag = 0x62616e64776964ull;

}  // namespace

TraceReplayer::TraceReplayer(std::vector<PerfTrace> cpu_pool,
                             std::vector<PerfTrace> latency_pool,
                             std::vector<PerfTrace> bandwidth_pool,
                             std::uint64_t seed)
    : TraceReplayer(
          std::make_shared<const TracePools>(TracePools{
              std::move(cpu_pool), std::move(latency_pool),
              std::move(bandwidth_pool)}),
          seed) {}

TraceReplayer::TraceReplayer(std::shared_ptr<const TracePools> pools,
                             std::uint64_t assignment_seed)
    : pools_(std::move(pools)), seed_(assignment_seed) {
  DDS_REQUIRE(pools_ != nullptr, "trace pool arena is null");
  DDS_REQUIRE(!pools_->cpu.empty(), "CPU trace pool is empty");
  DDS_REQUIRE(!pools_->latency.empty(), "latency trace pool is empty");
  DDS_REQUIRE(!pools_->bandwidth.empty(), "bandwidth trace pool is empty");
}

TraceReplayer TraceReplayer::ideal() {
  return TraceReplayer({PerfTrace::constant(1.0)},
                       {PerfTrace::constant(1.0)},
                       {PerfTrace::constant(1.0)}, 0);
}

TraceReplayer TraceReplayer::futureGridLike(std::uint64_t seed,
                                            SimTime duration_s,
                                            SimTime sample_period_s,
                                            std::size_t pool_size) {
  return overPools(
      makeFutureGridPools(seed, duration_s, sample_period_s, pool_size),
      seed);
}

std::shared_ptr<const TracePools> TraceReplayer::makeFutureGridPools(
    std::uint64_t seed, SimTime duration_s, SimTime sample_period_s,
    std::size_t pool_size) {
  Rng rng(seed);
  auto pools = std::make_shared<TracePools>();
  pools->cpu = generateTracePool(cpuTraceParams(), pool_size, duration_s,
                                 sample_period_s, rng);
  pools->latency = generateTracePool(latencyTraceParams(), pool_size,
                                     duration_s, sample_period_s, rng);
  pools->bandwidth = generateTracePool(bandwidthTraceParams(), pool_size,
                                       duration_s, sample_period_s, rng);
  return pools;
}

TraceReplayer TraceReplayer::overPools(
    std::shared_ptr<const TracePools> pools, std::uint64_t run_seed) {
  // Decorrelate the assignment hashes from the pool-generation stream,
  // which is seeded with the same run seed.
  return TraceReplayer(std::move(pools), run_seed ^ 0xabcdef1234567890ull);
}

std::uint64_t TraceReplayer::pairKey(VmId a, VmId b) {
  const auto lo = static_cast<std::uint64_t>(std::min(a, b).value());
  const auto hi = static_cast<std::uint64_t>(std::max(a, b).value());
  return (hi << 32) | lo;
}

CoeffSample TraceReplayer::sample(const std::vector<PerfTrace>& pool,
                                  std::uint64_t family, std::uint64_t key,
                                  SimTime t) const {
  const std::uint64_t h = splitmix64(seed_ ^ family ^ splitmix64(key));
  const PerfTrace& trace = pool[h % pool.size()];
  // hashToUnitInterval is in (0, 1]; an offset of one full duration
  // wraps to the trace start, like an offset of zero.
  const SimTime offset =
      hashToUnitInterval(splitmix64(h)) * trace.duration();
  return {trace.atOffset(offset, t), trace.validUntilAtOffset(offset, t)};
}

CoeffSample TraceReplayer::cpuCoeffSample(VmId vm, SimTime t) const {
  return sample(pools_->cpu, kCpuTag, vm.value(), t);
}

CoeffSample TraceReplayer::latencyCoeffSample(VmId a, VmId b,
                                              SimTime t) const {
  DDS_REQUIRE(a != b, "latency between a VM and itself is zero by model");
  return sample(pools_->latency, kLatencyTag, pairKey(a, b), t);
}

CoeffSample TraceReplayer::bandwidthCoeffSample(VmId a, VmId b,
                                                SimTime t) const {
  DDS_REQUIRE(a != b, "bandwidth between a VM and itself is infinite");
  return sample(pools_->bandwidth, kBandwidthTag, pairKey(a, b), t);
}

}  // namespace dds
