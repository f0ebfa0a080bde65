#include "dds/trace/trace_replayer.hpp"

#include <algorithm>

#include "dds/common/rng.hpp"
#include "dds/trace/trace_gen.hpp"

namespace dds {
namespace {

// Per-family hash tags: a VM's CPU window and a pair's latency and
// bandwidth windows are independent draws even when the keys coincide.
constexpr std::uint64_t kCpuTag = 0x63707574726163ull;
constexpr std::uint64_t kLatencyTag = 0x6c6174656e6379ull;
constexpr std::uint64_t kBandwidthTag = 0x62616e64776964ull;

// The fixed FutureGrid-like corpus: 4 days sampled every 300 s (1,152
// samples per trace), 32 traces per family, one generation seed.
constexpr std::uint64_t kCorpusSeed = 0x4675747572654772ull;
constexpr std::size_t kCorpusTraces = 32;
constexpr SimTime kCorpusDuration = 4.0 * 24.0 * kSecondsPerHour;
constexpr SimTime kCorpusPeriod = 300.0;

}  // namespace

TraceReplayer::TraceReplayer(std::vector<PerfTrace> cpu_pool,
                             std::vector<PerfTrace> latency_pool,
                             std::vector<PerfTrace> bandwidth_pool,
                             std::uint64_t seed)
    : TraceReplayer(
          std::make_shared<const TraceCorpus>(TraceCorpus{
              std::move(cpu_pool), std::move(latency_pool),
              std::move(bandwidth_pool)}),
          seed) {}

TraceReplayer::TraceReplayer(std::shared_ptr<const TraceCorpus> corpus,
                             std::uint64_t seed)
    : corpus_(std::move(corpus)), seed_(seed) {
  DDS_REQUIRE(!corpus_->cpu.empty(), "CPU trace pool is empty");
  DDS_REQUIRE(!corpus_->latency.empty(), "latency trace pool is empty");
  DDS_REQUIRE(!corpus_->bandwidth.empty(), "bandwidth trace pool is empty");
}

TraceReplayer TraceReplayer::ideal() {
  return TraceReplayer({PerfTrace::constant(1.0)},
                       {PerfTrace::constant(1.0)},
                       {PerfTrace::constant(1.0)}, 0);
}

TraceReplayer TraceReplayer::futureGridLike(std::uint64_t seed) {
  return TraceReplayer(futureGridCorpus(), seed);
}

std::shared_ptr<const TraceCorpus> TraceReplayer::futureGridCorpus() {
  static const std::shared_ptr<const TraceCorpus> corpus = [] {
    Rng rng(kCorpusSeed);
    auto built = std::make_shared<TraceCorpus>();
    built->cpu = generateTracePool(cpuTraceParams(), kCorpusTraces,
                                   kCorpusDuration, kCorpusPeriod, rng);
    built->latency = generateTracePool(latencyTraceParams(), kCorpusTraces,
                                       kCorpusDuration, kCorpusPeriod, rng);
    built->bandwidth = generateTracePool(bandwidthTraceParams(),
                                         kCorpusTraces, kCorpusDuration,
                                         kCorpusPeriod, rng);
    return std::shared_ptr<const TraceCorpus>(std::move(built));
  }();
  return corpus;
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
  return trace.sampleAtOffset(offset, t);
}

CoeffSample TraceReplayer::cpuCoeffSample(VmId vm, SimTime t) const {
  return sample(corpus_->cpu, kCpuTag, vm.value(), t);
}

CoeffSample TraceReplayer::latencyCoeffSample(VmId a, VmId b,
                                              SimTime t) const {
  DDS_REQUIRE(a != b, "latency between a VM and itself is zero by model");
  return sample(corpus_->latency, kLatencyTag, pairKey(a, b), t);
}

CoeffSample TraceReplayer::bandwidthCoeffSample(VmId a, VmId b,
                                                SimTime t) const {
  DDS_REQUIRE(a != b, "bandwidth between a VM and itself is infinite");
  return sample(corpus_->bandwidth, kBandwidthTag, pairKey(a, b), t);
}

}  // namespace dds
