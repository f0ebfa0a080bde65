#include "dds/workload/rate_profile.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <sstream>

#include "dds/common/error.hpp"

namespace dds {

ConstantRate::ConstantRate(double rate_msgs_per_s) : rate_(rate_msgs_per_s) {
  DDS_REQUIRE(rate_ >= 0.0, "rate must be non-negative");
}

std::string ConstantRate::describe() const {
  std::ostringstream os;
  os << "constant(" << rate_ << " msg/s)";
  return os.str();
}

PeriodicWaveRate::PeriodicWaveRate(double mean_rate, double amplitude,
                                   SimTime period_s, double phase_rad)
    : mean_(mean_rate),
      amplitude_(amplitude),
      period_(period_s),
      phase_(phase_rad) {
  DDS_REQUIRE(mean_ >= 0.0, "mean rate must be non-negative");
  DDS_REQUIRE(amplitude_ >= 0.0, "amplitude must be non-negative");
  DDS_REQUIRE(period_ > 0.0, "period must be positive");
}

double PeriodicWaveRate::rate(SimTime t) const {
  const double wave =
      amplitude_ * std::sin(2.0 * std::numbers::pi * t / period_ + phase_);
  return std::max(0.0, mean_ + wave);
}

std::string PeriodicWaveRate::describe() const {
  std::ostringstream os;
  os << "wave(mean=" << mean_ << ", amp=" << amplitude_
     << ", period=" << period_ << "s)";
  return os.str();
}

RandomWalkRate::RandomWalkRate(double mean_rate, double step_sd,
                               double min_rate, double max_rate,
                               SimTime step_s, SimTime horizon_s,
                               std::uint64_t seed, double reversion)
    : mean_(mean_rate), step_(step_s) {
  DDS_REQUIRE(mean_ >= 0.0, "mean rate must be non-negative");
  DDS_REQUIRE(step_sd >= 0.0, "step sd must be non-negative");
  DDS_REQUIRE(min_rate >= 0.0 && min_rate <= max_rate,
              "rate clamp range invalid");
  DDS_REQUIRE(step_s > 0.0, "step must be positive");
  DDS_REQUIRE(horizon_s > 0.0, "horizon must be positive");
  DDS_REQUIRE(reversion >= 0.0 && reversion <= 1.0,
              "reversion fraction out of range");

  Rng rng(seed);
  const auto n = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(horizon_s / step_s)));
  values_.reserve(n);
  double v = mean_rate;
  for (std::size_t i = 0; i < n; ++i) {
    values_.push_back(std::clamp(v, min_rate, max_rate));
    v += reversion * (mean_rate - v) + rng.normal(0.0, step_sd);
  }
}

double RandomWalkRate::rate(SimTime t) const {
  DDS_REQUIRE(t >= 0.0, "time must be non-negative");
  const auto idx = static_cast<std::size_t>(t / step_) % values_.size();
  return values_[idx];
}

std::string RandomWalkRate::describe() const {
  std::ostringstream os;
  os << "random-walk(mean=" << mean_ << ", steps=" << values_.size() << ")";
  return os.str();
}

SpikeRate::SpikeRate(double base_rate, double spike_rate, SimTime spike_start,
                     SimTime spike_duration)
    : base_(base_rate),
      spike_(spike_rate),
      start_(spike_start),
      duration_(spike_duration) {
  DDS_REQUIRE(base_ >= 0.0, "base rate must be non-negative");
  DDS_REQUIRE(spike_ >= 0.0, "spike rate must be non-negative");
  DDS_REQUIRE(start_ >= 0.0, "spike start must be non-negative");
  DDS_REQUIRE(duration_ >= 0.0, "spike duration must be non-negative");
}

double SpikeRate::rate(SimTime t) const {
  return (t >= start_ && t < start_ + duration_) ? spike_ : base_;
}

std::string SpikeRate::describe() const {
  std::ostringstream os;
  os << "spike(base=" << base_ << ", spike=" << spike_ << " @" << start_
     << "s for " << duration_ << "s)";
  return os.str();
}

std::string profileName(ProfileKind kind) {
  switch (kind) {
    case ProfileKind::Constant:
      return "constant";
    case ProfileKind::PeriodicWave:
      return "wave";
    case ProfileKind::RandomWalk:
      return "random-walk";
    case ProfileKind::Spike:
      return "spike";
  }
  return "unknown";
}

const std::vector<ProfileKind>& allProfileKinds() {
  static const std::vector<ProfileKind> kKinds = {
      ProfileKind::Constant, ProfileKind::PeriodicWave,
      ProfileKind::RandomWalk, ProfileKind::Spike};
  return kKinds;
}

ProfileKind parseProfileKind(const std::string& name) {
  for (const ProfileKind kind : allProfileKinds()) {
    if (profileName(kind) == name) return kind;
  }
  throw PreconditionError("unknown profile name: '" + name + "'");
}

std::unique_ptr<RateProfile> makeProfile(ProfileKind kind, double mean_rate,
                                         SimTime horizon_s,
                                         std::uint64_t seed) {
  switch (kind) {
    case ProfileKind::Constant:
      return std::make_unique<ConstantRate>(mean_rate);
    case ProfileKind::PeriodicWave:
      // Phase -pi/2 starts the wave at its trough: the deployment-time
      // estimate (the rate observed at t0) underestimates the mean, which
      // is exactly how static deployments get caught out in §8.2.
      return std::make_unique<PeriodicWaveRate>(
          mean_rate, 0.4 * mean_rate, 30.0 * kSecondsPerMinute,
          -std::numbers::pi / 2.0);
    case ProfileKind::RandomWalk:
      return std::make_unique<RandomWalkRate>(
          mean_rate, 0.1 * mean_rate, 0.2 * mean_rate, 2.0 * mean_rate,
          kSecondsPerMinute, horizon_s, seed);
    case ProfileKind::Spike:
      // Flash crowd: 3x the base rate for a tenth of the horizon.
      return std::make_unique<SpikeRate>(mean_rate, 3.0 * mean_rate,
                                         0.4 * horizon_s, 0.1 * horizon_s);
  }
  throw PreconditionError("unknown profile kind");
}

}  // namespace dds
