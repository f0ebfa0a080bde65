// Input data-rate profiles (paper §8.1).
//
// "To simulate typical streaming data characteristics in continuous
// dataflows, we use three profiles, viz., constant data rate, periodic
// waves, and random walk around a mean", at mean rates from 2 to 50 msg/s
// with ~100 KB messages. A RateProfile gives the external message rate at
// each input PE as a function of simulation time.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dds/common/rng.hpp"
#include "dds/common/time.hpp"

namespace dds {

/// Message rate (msg/s) over time for one experiment's input streams.
class RateProfile {
 public:
  virtual ~RateProfile() = default;

  /// Instantaneous rate at time `t`; always >= 0.
  [[nodiscard]] virtual double rate(SimTime t) const = 0;

  /// Long-run mean rate the profile was configured with.
  [[nodiscard]] virtual double meanRate() const = 0;

  [[nodiscard]] virtual std::string describe() const = 0;
};

/// Fixed rate at all times.
class ConstantRate final : public RateProfile {
 public:
  explicit ConstantRate(double rate_msgs_per_s);
  [[nodiscard]] double rate(SimTime) const override { return rate_; }
  [[nodiscard]] double meanRate() const override { return rate_; }
  [[nodiscard]] std::string describe() const override;

 private:
  double rate_;
};

/// Sinusoidal wave around a mean, clamped at zero.
class PeriodicWaveRate final : public RateProfile {
 public:
  PeriodicWaveRate(double mean_rate, double amplitude, SimTime period_s,
                   double phase_rad = 0.0);
  [[nodiscard]] double rate(SimTime t) const override;
  [[nodiscard]] double meanRate() const override { return mean_; }
  [[nodiscard]] std::string describe() const override;

 private:
  double mean_;
  double amplitude_;
  SimTime period_;
  double phase_;
};

/// A mean-reverting random walk: per-step Gaussian increments pulled back
/// toward the mean, pre-computed over a horizon so queries are pure and
/// deterministic for a given seed.
class RandomWalkRate final : public RateProfile {
 public:
  /// @param step_s     time between walk steps (e.g. the adaptation interval)
  /// @param horizon_s  queries beyond the horizon wrap around
  /// @param reversion  fraction of the gap to the mean recovered per step
  RandomWalkRate(double mean_rate, double step_sd, double min_rate,
                 double max_rate, SimTime step_s, SimTime horizon_s,
                 std::uint64_t seed, double reversion = 0.1);
  [[nodiscard]] double rate(SimTime t) const override;
  [[nodiscard]] double meanRate() const override { return mean_; }
  [[nodiscard]] std::string describe() const override;

 private:
  double mean_;
  SimTime step_;
  std::vector<double> values_;
};

/// A constant base rate with one rectangular burst.
class SpikeRate final : public RateProfile {
 public:
  SpikeRate(double base_rate, double spike_rate, SimTime spike_start,
            SimTime spike_duration);
  [[nodiscard]] double rate(SimTime t) const override;
  [[nodiscard]] double meanRate() const override { return base_; }
  [[nodiscard]] std::string describe() const override;

 private:
  double base_;
  double spike_;
  SimTime start_;
  SimTime duration_;
};

/// The three §8.1 profile shapes plus a flash-crowd burst, parameterized
/// only by mean rate.
enum class ProfileKind { Constant, PeriodicWave, RandomWalk, Spike };

// ---------------------------------------------------------------------------
// Profile registry: the one place that knows every profile shape. Config
// parsing, ddsim --help and the bench sweeps all go through it, so adding
// a shape means extending the enum, profileName() and makeProfile() — all
// in the workload layer.
// ---------------------------------------------------------------------------

/// Canonical CLI/config name of a shape ("constant", "wave", ...).
[[nodiscard]] std::string profileName(ProfileKind kind);

/// Inverse of profileName(); throws PreconditionError on unknown names.
[[nodiscard]] ProfileKind parseProfileKind(const std::string& name);

/// Every ProfileKind, in enum order — for sweeps, help text and
/// round-trip tests.
[[nodiscard]] const std::vector<ProfileKind>& allProfileKinds();

/// Build a profile of the given kind around `mean_rate`, with the
/// evaluation's default shape parameters (wave amplitude 40% of mean with
/// a 30 min period, starting at the trough; random-walk step sd 10% of
/// mean clamped to [0.2x, 2x] mean; spike = a 3x flash crowd for a tenth
/// of the horizon, starting at 40% in).
[[nodiscard]] std::unique_ptr<RateProfile> makeProfile(
    ProfileKind kind, double mean_rate, SimTime horizon_s,
    std::uint64_t seed);

}  // namespace dds
