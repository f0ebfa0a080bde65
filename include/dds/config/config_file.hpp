// Key-value experiment configuration files for the ddsim CLI.
//
// Format: one `key = value` pair per line, `#` comments, blank lines
// ignored. Keys are free-form strings; typed getters convert on access.
//
//   # experiment.conf
//   graph              = paper         # paper | chain | diamond
//   scheduler          = global,local  # any comma list of policy names
//   workload.mean_rate = 10
//   workload.profile   = wave          # constant | wave | random-walk
//   horizon_h          = 2
//   workload.infra_variability = true
#pragma once

#include <limits>
#include <map>
#include <string>
#include <vector>

#include "dds/core/experiment.hpp"

namespace dds {

/// A user-facing configuration mistake: unknown key, malformed value,
/// unknown enum name. Derives from PreconditionError (it is one), but
/// carries a clean one-line message suitable for CLI stderr — no
/// source-location noise.
class ConfigError : public PreconditionError {
 public:
  using PreconditionError::PreconditionError;
};

/// A parsed key-value configuration.
class KeyValueConfig {
 public:
  /// Parse from text; throws IoError on malformed lines.
  static KeyValueConfig parse(const std::string& text);

  /// Load from a file; throws IoError when unreadable.
  static KeyValueConfig load(const std::string& path);

  [[nodiscard]] bool has(const std::string& key) const;

  /// Set or overwrite one key programmatically. This is how structured
  /// front-ends (the JSON job-spec API) funnel values into the same
  /// validation pipeline the file parser feeds.
  void set(const std::string& key, const std::string& value);

  /// Typed getters with defaults; throw PreconditionError when the value
  /// exists but cannot be converted.
  [[nodiscard]] std::string getString(const std::string& key,
                                      const std::string& fallback) const;
  [[nodiscard]] double getDouble(const std::string& key,
                                 double fallback) const;
  [[nodiscard]] std::int64_t getInt(const std::string& key,
                                    std::int64_t fallback) const;
  /// getInt() narrowed to `int` within [lo, hi]; a value outside throws
  /// ConfigError naming the key instead of wrapping.
  [[nodiscard]] int getIntInRange(
      const std::string& key, int fallback,
      int lo = std::numeric_limits<int>::min(),
      int hi = std::numeric_limits<int>::max()) const;
  [[nodiscard]] bool getBool(const std::string& key, bool fallback) const;

  /// Comma-separated list (whitespace trimmed); empty when absent.
  [[nodiscard]] std::vector<std::string> getList(
      const std::string& key) const;

  /// Keys present in the file (sorted) — used to reject typos.
  [[nodiscard]] std::vector<std::string> keys() const;

 private:
  std::map<std::string, std::string> values_;
};

/// Longest `chain` graph a config or job spec may ask for. Chains are
/// built eagerly, one PE per link, so the bound keeps a stray value from
/// exhausting memory; the longest chain any bench or test runs is 8.
inline constexpr int kMaxChainLength = 1024;

/// The experiment an ddsim config describes.
struct CliExperiment {
  ExperimentConfig config;
  std::string graph = "paper";  ///< paper | chain | diamond
  std::size_t chain_length = 4;  ///< chain only; [1, kMaxChainLength].
  std::vector<SchedulerSpec> schedulers;
  std::string output_csv;  ///< empty = no CSV dump
};

/// Translate a parsed config into an experiment. Unknown keys, graphs,
/// profiles or scheduler names throw ConfigError with the offender named.
///
/// Sub-struct knobs use nested keys ("workload.mean_rate",
/// "fault.vm_mtbf_h", "resilience.quarantine_threshold") mirroring the
/// ExperimentConfig sub-structs; any other key is an unknown-key error.
[[nodiscard]] CliExperiment experimentFromConfig(const KeyValueConfig& kv);

}  // namespace dds
