#include "workloads.hpp"

#include <array>
#include <initializer_list>
#include <utility>

namespace perfbench {
namespace {

constexpr std::array<std::string_view, 4> kProfiles = {"wave", "spike",
                                                       "random-walk",
                                                       "constant"};

/// `values` repeated cyclically to length n, then shuffled: a fixed
/// multiset in a seed-dependent order.
template <class T>
std::vector<T> deal(const std::vector<T>& values, std::size_t n,
                    SplitMix64& rng) {
  std::vector<T> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(values[i % values.size()]);
  for (std::size_t i = n; i > 1; --i) std::swap(out[i - 1], out[rng.below(i)]);
  return out;
}

/// Job seeds stay below 2^31 so they survive the JSON number round trip.
std::uint64_t jobSeed(SplitMix64& rng) { return rng.next() & 0x7fffffffu; }

/// Concatenation by appends (GCC 12 warns falsely on literal + string).
std::string cat(std::initializer_list<std::string_view> parts) {
  std::string out;
  for (const std::string_view part : parts) out += part;
  return out;
}

std::string quoted(std::string_view s) { return cat({"\"", s, "\""}); }

struct SpecText {
  std::string label;
  std::string graph = "paper";
  std::size_t chain_length = 0;  ///< written only for chains.
  std::string scheduler;
  /// Config deltas as (canonical key, JSON value text), in spec order.
  std::vector<std::pair<std::string, std::string>> config;

  [[nodiscard]] std::string line(std::string_view tenant) const {
    std::string out = cat({"{\"v\":1,\"tenant\":", quoted(tenant),
                           ",\"label\":", quoted(label), ",\"graph\":",
                           quoted(graph)});
    if (graph == "chain") {
      out += cat({",\"chain_length\":", std::to_string(chain_length)});
    }
    out += cat({",\"scheduler\":", quoted(scheduler), ",\"config\":{"});
    for (std::size_t i = 0; i < config.size(); ++i) {
      if (i > 0) out += ',';
      out += cat({quoted(config[i].first), ":", config[i].second});
    }
    out += "}}";
    return out;
  }
};

std::string graphTag(const SpecText& s) {
  return s.graph == "chain" ? cat({"chain", std::to_string(s.chain_length)})
                            : s.graph;
}

/// A seed-dependent permutation of 0..n-1.
std::vector<std::size_t> permutation(std::size_t n, SplitMix64& rng) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  return deal(p, n, rng);
}

/// The §8 grid, seed-major: each job seed is one (graph, profile, rate)
/// cell with FutureGrid variability, run under seven policies. The cells
/// are the full graph x profile cross; rates form a fixed Latin square
/// over it, so every graph class meets every rate exactly once.
std::vector<std::string> sweep(std::uint64_t seed) {
  static const std::vector<std::string_view> kPolicies = {
      "global",       "local",        "global-nodyn",       "local-nodyn",
      "global-static", "local-static", "reactive-autoscaler"};
  static const std::vector<std::string_view> kGraphs = {"paper", "diamond",
                                                        "chain", "chain"};
  static const std::vector<int> kRates = {5, 10, 15, 20};
  SplitMix64 rng(seed ^ 0x5eedull);
  // Lengths for the two chain rows (graph indices 2 and 3).
  const auto chains = deal<std::size_t>({4, 5, 6, 7, 8, 9, 10, 11, 12},
                                        2 * kProfiles.size(), rng);
  const auto order = permutation(kGraphs.size() * kProfiles.size(), rng);
  std::vector<std::string> out;
  for (std::size_t s = 0; s < order.size(); ++s) {
    const std::size_t g = order[s] / kProfiles.size();
    const std::size_t p = order[s] % kProfiles.size();
    const int rate = kRates[(g + p) % kRates.size()];
    const std::uint64_t job_seed = jobSeed(rng);
    for (const std::string_view policy : kPolicies) {
      SpecText spec;
      spec.graph = std::string(kGraphs[g]);
      if (g >= 2) spec.chain_length = chains[(g - 2) * kProfiles.size() + p];
      spec.scheduler = std::string(policy);
      spec.label = cat({"s", std::to_string(s), "-", graphTag(spec), "-",
                        kProfiles[p], "-", spec.scheduler});
      spec.config = {{"seed", std::to_string(job_seed)},
                     {"horizon_h", "2"},
                     {"workload.profile", quoted(kProfiles[p])},
                     {"workload.mean_rate", std::to_string(rate)},
                     {"workload.infra_variability", "true"}};
      out.push_back(spec.line("sweep"));
    }
  }
  return out;
}

/// Reactive vs predictive scheduling on an unreliable elastic cloud: the
/// paper graph, provisioning delays, a spot tier with preemptions,
/// migration state and VM crashes, on an ideal (variability-free) host.
/// The job seeds are the full profile x rate x delay cross in a seeded
/// order; each runs reactive global scheduling and predictive global
/// scheduling under both forecast models.
std::vector<std::string> elastic(std::uint64_t seed) {
  static const std::vector<std::pair<std::string_view, std::string_view>>
      kPolicies = {{"global", "holt-winters"},
                   {"global-predictive", "holt-winters"},
                   {"global-predictive", "ewma"}};
  static const std::vector<std::string_view> kElasticProfiles = {
      "wave", "spike", "random-walk"};
  static const std::vector<int> kRates = {8, 10, 12, 15};
  static const std::vector<int> kDelays = {30, 60, 90};
  const std::size_t cells =
      kElasticProfiles.size() * kRates.size() * kDelays.size();
  SplitMix64 rng(seed ^ 0xe1a5ull);
  const auto order = permutation(cells, rng);
  std::vector<std::string> out;
  for (std::size_t s = 0; s < cells; ++s) {
    const std::size_t c = order[s];
    const std::string_view profile =
        kElasticProfiles[c % kElasticProfiles.size()];
    const int rate = kRates[c / kElasticProfiles.size() % kRates.size()];
    const int delay = kDelays[c / (kElasticProfiles.size() * kRates.size())];
    const std::uint64_t job_seed = jobSeed(rng);
    for (const auto& [policy, model] : kPolicies) {
      SpecText spec;
      spec.scheduler = std::string(policy);
      spec.label = cat({"s", std::to_string(s), "-", profile, "-", model,
                        "-", spec.scheduler});
      spec.config = {
          {"seed", std::to_string(job_seed)},
          {"horizon_h", "2"},
          {"workload.profile", quoted(profile)},
          {"workload.mean_rate", std::to_string(rate)},
          {"workload.infra_variability", "false"},
          {"forecast.model", quoted(model)},
          {"elasticity.provisioning_delay_s", std::to_string(delay)},
          {"elasticity.provisioning_delay_per_core_s", "15"},
          {"elasticity.spot_discount", "0.7"},
          {"elasticity.spot_fraction", "0.5"},
          {"elasticity.spot_preemption_mtbf_h", "4"},
          {"elasticity.spot_notice_s", "120"},
          {"elasticity.pe_state_mb", "50"},
          {"elasticity.migration_bandwidth_mbps", "100"},
          {"fault.vm_mtbf_h", "12"}};
      out.push_back(spec.line("elastic"));
    }
  }
  return out;
}

/// The discrete-event backend on small and mid-size graphs at 5-20 msg/s:
/// the full graph x profile x rate cross in a seeded order.
std::vector<std::string> event(std::uint64_t seed) {
  static const std::vector<std::string_view> kPolicies = {
      "global", "local", "global-static", "local-static",
      "reactive-autoscaler"};
  static const std::vector<std::string_view> kGraphs = {"paper", "diamond"};
  static const std::vector<int> kRates = {5, 12, 20};
  const std::size_t cells = kGraphs.size() * kProfiles.size() * kRates.size();
  SplitMix64 rng(seed ^ 0xe7e9ull);
  const auto order = permutation(cells, rng);
  std::vector<std::string> out;
  for (std::size_t s = 0; s < cells; ++s) {
    const std::size_t c = order[s];
    const std::string_view graph = kGraphs[c % kGraphs.size()];
    const std::string_view profile =
        kProfiles[c / kGraphs.size() % kProfiles.size()];
    const int rate = kRates[c / (kGraphs.size() * kProfiles.size())];
    const std::uint64_t job_seed = jobSeed(rng);
    for (const std::string_view policy : kPolicies) {
      SpecText spec;
      spec.graph = std::string(graph);
      spec.scheduler = std::string(policy);
      spec.label = cat({"s", std::to_string(s), "-", spec.graph, "-", profile,
                        "-", spec.scheduler});
      spec.config = {{"seed", std::to_string(job_seed)},
                     {"horizon_h", "0.5"},
                     {"backend", quoted("event")},
                     {"workload.profile", quoted(profile)},
                     {"workload.mean_rate", std::to_string(rate)}};
      out.push_back(spec.line("event"));
    }
  }
  return out;
}

}  // namespace

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::optional<Workload> parseWorkload(std::string_view name) {
  if (name == "sweep") return Workload::Sweep;
  if (name == "elastic") return Workload::Elastic;
  if (name == "event") return Workload::Event;
  return std::nullopt;
}

std::string_view workloadName(Workload workload) {
  switch (workload) {
    case Workload::Sweep:
      return "sweep";
    case Workload::Elastic:
      return "elastic";
    case Workload::Event:
      return "event";
  }
  return "";
}

std::vector<std::string> generateSpecs(Workload workload, std::uint64_t seed) {
  switch (workload) {
    case Workload::Sweep:
      return sweep(seed);
    case Workload::Elastic:
      return elastic(seed);
    case Workload::Event:
      return event(seed);
  }
  return {};
}

}  // namespace perfbench
