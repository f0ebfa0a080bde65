// Key-value experiment configuration files for the ddsim CLI.
//
// Format: one `key = value` pair per line, `#` comments, blank lines
// ignored. Every key is one row of a table in config_file.cpp; the row
// says how the value text converts and which field it sets.
// tools/example.conf lists every key with a one-line doc.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
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

/// One `key = value` setting, the value in config-file text form.
using ConfigEntry = std::pair<std::string, std::string>;

/// A parsed key-value configuration file.
class KeyValueConfig {
 public:
  /// Parse from text; throws IoError on malformed lines.
  static KeyValueConfig parse(const std::string& text);

  /// Load from a file; throws IoError when unreadable.
  static KeyValueConfig load(const std::string& path);

  /// The settings in file order, a repeated key once per line.
  [[nodiscard]] const std::vector<ConfigEntry>& entries() const {
    return entries_;
  }

 private:
  std::vector<ConfigEntry> entries_;
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

/// Where a config key may be set.
enum class ConfigScope {
  Everywhere,    ///< config files and a job spec's "config" object.
  SpecTopLevel,  ///< config files; a job spec sets it as its own field.
  FileOnly,      ///< config files only (no meaning in a job spec).
};

/// Every config key, in the order the table applies them.
[[nodiscard]] std::vector<std::string_view> configKeyNames();

/// The scope of `key`; nullopt when no front-end accepts it.
[[nodiscard]] std::optional<ConfigScope> configKeyScope(std::string_view key);

/// Translate settings into a validated experiment. Unknown keys, bad
/// values, graphs, profiles or scheduler names throw ConfigError with the
/// offender named. A repeated key takes its last value; the rows apply in
/// table order, so the first bad value reported does not depend on the
/// order the settings came in. Sub-struct knobs have nested keys
/// ("<sub-struct>.<knob>") mirroring the ExperimentConfig sub-structs.
[[nodiscard]] CliExperiment experimentFromEntries(
    std::span<const ConfigEntry> entries);

/// experimentFromEntries() over a config file's settings.
[[nodiscard]] CliExperiment experimentFromConfig(const KeyValueConfig& kv);

}  // namespace dds
