// Versioned JSON job specs — the wire format of the campaign service.
//
// One spec describes one experiment job a tenant submits: which standard
// graph to run, which scheduler policy, and a set of config deltas in
// the canonical (nested) key vocabulary. Specs arrive as single JSON
// lines (`ddsim --serve` reads one per stdin line) and parse strictly:
// unknown top-level fields, unknown config keys, and any version other
// than v1 are hard ConfigErrors — a service cannot silently ignore a typo.
//
// Schema v1 (all fields optional except "v"):
//
//   {"v": 1,                       // required; only 1 is spoken
//    "tenant": "team-a",           // display/billing tag, default ""
//    "label": "baseline",          // display label, default scheduler name
//    "graph": "paper",             // paper | diamond | chain
//    "chain_length": 4,            // chain only; integral in [1, 1024]
//    "scheduler": "global",        // one policy name (see schedulers.hpp)
//    "config": {"seed": 7, ...}}   // canonical config keys only
//
// Config values may be JSON numbers, bools, or strings. Each is rendered
// in config-file text form and applied through the same key table a
// config file goes through (experimentFromEntries), so a spec and a file
// accept exactly the same keys and coercions. An integer literal is
// passed on as written, so a spec and a file give the same result and
// message for the same digits (a seed past 2^53 stays exact); other
// numbers are rendered with jsonNumber() (shortest round-trip form), so
// doubles survive exactly.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "dds/config/config_file.hpp"

namespace dds {

/// One parsed job spec (schema v1).
struct JobSpec {
  /// The only schema version this build speaks.
  static constexpr std::int64_t kVersion = 1;

  std::string tenant;
  std::string label;
  std::string graph = "paper";
  std::size_t chain_length = 4;
  std::string scheduler = "global";

  /// One config delta, preserving the JSON value type so serialization
  /// round-trips (numbers stay numbers, bools stay bools).
  struct ConfigValue {
    enum class Kind { Bool, Number, String };
    Kind kind = Kind::String;
    bool boolean = false;
    double number = 0.0;
    /// A String's value; for a Number, its JSON literal when that is an
    /// integer ("9223372036854775807"), else empty.
    std::string text;

    /// The config-file text form the key table converts.
    [[nodiscard]] std::string asConfigString() const;
  };

  /// Config deltas in spec order (serialization preserves it).
  std::vector<std::pair<std::string, ConfigValue>> config;

  /// Compact single-line JSON (schema v1). parseJobSpec(toJson()) is the
  /// identity on every field.
  [[nodiscard]] std::string toJson() const;
};

/// Parse one JSON line into a spec. Throws ConfigError on malformed
/// JSON, an unknown top-level field, a missing or unsupported "v", a
/// wrongly-typed field, or a reserved key inside "config" (a key whose
/// ConfigScope is not Everywhere).
[[nodiscard]] JobSpec parseJobSpec(const std::string& json_line);

/// Resolve the spec's scheduler + config deltas into a validated
/// experiment through the same key table a config file takes. Unknown
/// config keys and invalid values throw ConfigError. The returned
/// CliExperiment carries exactly one scheduler (the spec's).
[[nodiscard]] CliExperiment experimentFromSpec(const JobSpec& spec);

}  // namespace dds
