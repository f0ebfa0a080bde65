// Deterministic random number generation.
//
// Every stochastic component either draws from an Rng seeded from the
// experiment config (trace generator, random-walk rate profile) or hashes
// (seed, entity) keys with splitmix64 (fault plan, rack placement,
// replay-window assignment), so whole simulation runs are reproducible
// bit-for-bit.
#pragma once

#include <cstdint>
#include <random>

#include "dds/common/error.hpp"

namespace dds {

/// A seedable PRNG with convenience distributions.
/// Thin wrapper over std::mt19937_64; copyable so components can fork
/// independent deterministic streams via `fork()`.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) {
    DDS_REQUIRE(lo <= hi, "uniform bounds out of order");
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniformInt(std::int64_t lo, std::int64_t hi) {
    DDS_REQUIRE(lo <= hi, "uniformInt bounds out of order");
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Normal with the given mean and standard deviation (sd >= 0).
  [[nodiscard]] double normal(double mean, double sd) {
    DDS_REQUIRE(sd >= 0.0, "standard deviation must be non-negative");
    if (sd == 0.0) return mean;
    return std::normal_distribution<double>(mean, sd)(engine_);
  }

  /// Bernoulli trial with probability p in [0, 1].
  [[nodiscard]] bool chance(double p) {
    DDS_REQUIRE(p >= 0.0 && p <= 1.0, "probability out of range");
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Exponential with the given rate (> 0); mean is 1/rate.
  [[nodiscard]] double exponential(double rate) {
    DDS_REQUIRE(rate > 0.0, "rate must be positive");
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Derive an independent child stream. Advances this stream.
  [[nodiscard]] Rng fork() { return Rng(engine_() ^ 0xd1b54a32d192ed03ull); }

  /// Raw 64-bit draw (exposed for hashing/shuffling helpers).
  [[nodiscard]] std::uint64_t next() { return engine_(); }

 private:
  std::mt19937_64 engine_;
};

/// SplitMix64 finalizer — a well-mixed stateless hash. Fault models, rack
/// placement and trace replay use it to derive independent uniform draws
/// from (seed, entity, index) keys so results are pure functions of their
/// inputs.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Map a hash to a uniform double in (0, 1] — never exactly zero, so
/// log(u) stays finite for exponential draws.
[[nodiscard]] constexpr double hashToUnitInterval(std::uint64_t h) {
  return (static_cast<double>(h >> 11) + 1.0) / 9007199254740993.0;
}

}  // namespace dds
