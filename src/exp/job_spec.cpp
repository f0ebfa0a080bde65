#include "dds/exp/job_spec.hpp"

#include <cmath>
#include <optional>

#include "dds/common/json.hpp"
#include "dds/common/json_value.hpp"

namespace dds {
namespace {

std::string expectString(const JsonValue& v, const std::string& field) {
  const std::string* s = v.asString();
  if (s == nullptr) {
    throw ConfigError("job-spec field '" + field + "' must be a string");
  }
  return *s;
}

JobSpec::ConfigValue configValueFrom(const JsonValue& v,
                                     const std::string& key) {
  JobSpec::ConfigValue out;
  if (const bool* b = v.asBool()) {
    out.kind = JobSpec::ConfigValue::Kind::Bool;
    out.boolean = *b;
  } else if (const double* n = v.asNumber()) {
    out.kind = JobSpec::ConfigValue::Kind::Number;
    out.number = *n;
    if (const std::string& literal = *v.numberLiteral();
        literal.find_first_of(".eE") == std::string::npos) {
      out.text = literal;
    }
  } else if (const std::string* s = v.asString()) {
    out.kind = JobSpec::ConfigValue::Kind::String;
    out.text = *s;
  } else {
    throw ConfigError("job-spec config key '" + key +
                      "' must be a number, bool or string");
  }
  return out;
}

}  // namespace

std::string JobSpec::ConfigValue::asConfigString() const {
  switch (kind) {
    case Kind::Bool:
      return boolean ? "true" : "false";
    case Kind::Number:
      if (!text.empty()) return text;
      // A literal past double's range (1e999) parses as infinity; its
      // text form lets the number row reject it by key.
      if (!std::isfinite(number)) return number > 0 ? "inf" : "-inf";
      return jsonNumber(number);
    case Kind::String:
      return text;
  }
  throw PreconditionError("unreachable: bad ConfigValue kind");
}

std::string JobSpec::toJson() const {
  JsonWriter w(JsonWriter::Options{JsonWriter::Style::Compact,
                                   JsonWriter::NonFinitePolicy::Throw});
  w.beginObject();
  w.key("v").value(kVersion);
  if (!tenant.empty()) w.key("tenant").value(tenant);
  if (!label.empty()) w.key("label").value(label);
  w.key("graph").value(graph);
  if (graph == "chain") {
    w.key("chain_length").value(static_cast<std::uint64_t>(chain_length));
  }
  w.key("scheduler").value(scheduler);
  w.key("config").beginObject();
  for (const auto& [key, value] : config) {
    w.key(key);
    switch (value.kind) {
      case ConfigValue::Kind::Bool:
        w.value(value.boolean);
        break;
      case ConfigValue::Kind::Number:
        if (value.text.empty()) {
          w.value(value.number);
        } else {
          w.numberLiteral(value.text);
        }
        break;
      case ConfigValue::Kind::String:
        w.value(value.text);
        break;
    }
  }
  w.endObject();
  w.endObject();
  return w.str();
}

JobSpec parseJobSpec(const std::string& json_line) {
  JsonValue root;
  try {
    root = parseJson(json_line);
  } catch (const IoError& e) {
    throw ConfigError(std::string("job spec is not valid JSON: ") + e.what());
  }
  const JsonObject* obj = root.asObject();
  if (obj == nullptr) {
    throw ConfigError("job spec must be a JSON object");
  }

  JobSpec spec;
  bool saw_version = false;
  for (const auto& [field, value] : *obj) {
    if (field == "v") {
      const std::string* literal = value.numberLiteral();
      if (literal == nullptr) {
        throw ConfigError("job-spec field 'v' must be a number");
      }
      if (jsonInteger<std::int64_t>(value) != JobSpec::kVersion) {
        throw ConfigError("unsupported job-spec version " + *literal +
                          " (this build speaks v" +
                          std::to_string(JobSpec::kVersion) + ")");
      }
      saw_version = true;
    } else if (field == "tenant") {
      spec.tenant = expectString(value, field);
    } else if (field == "label") {
      spec.label = expectString(value, field);
    } else if (field == "graph") {
      spec.graph = expectString(value, field);
    } else if (field == "chain_length") {
      const std::optional<std::int64_t> n = jsonInteger<std::int64_t>(value);
      if (!n.has_value() || *n < 1 || *n > kMaxChainLength) {
        throw ConfigError(
            "job-spec field 'chain_length' must be an integer in [1, " +
            std::to_string(kMaxChainLength) + "]");
      }
      spec.chain_length = static_cast<std::size_t>(*n);
    } else if (field == "scheduler") {
      spec.scheduler = expectString(value, field);
    } else if (field == "config") {
      const JsonObject* cfg = value.asObject();
      if (cfg == nullptr) {
        throw ConfigError("job-spec field 'config' must be an object");
      }
      for (const auto& [key, cv] : *cfg) {
        const std::optional<ConfigScope> scope = configKeyScope(key);
        if (scope.has_value() && *scope != ConfigScope::Everywhere) {
          throw ConfigError(
              "job-spec config key '" + key + "' is reserved" +
              (*scope == ConfigScope::FileOnly
                   ? " (it has no meaning in a job spec)"
                   : " (set it as a top-level spec field)"));
        }
        spec.config.emplace_back(key, configValueFrom(cv, key));
      }
    } else {
      throw ConfigError("unknown job-spec field '" + field +
                        "' (schema v" + std::to_string(JobSpec::kVersion) +
                        ")");
    }
  }
  if (!saw_version) {
    throw ConfigError("job spec is missing required field 'v'");
  }
  return spec;
}

CliExperiment experimentFromSpec(const JobSpec& spec) {
  // The top-level fields share their names with their config keys.
  std::vector<ConfigEntry> entries;
  entries.reserve(spec.config.size() + 3);
  entries.emplace_back("graph", spec.graph);
  if (spec.graph == "chain") {
    entries.emplace_back("chain_length", std::to_string(spec.chain_length));
  }
  entries.emplace_back("scheduler", spec.scheduler);
  for (const auto& [key, value] : spec.config) {
    entries.emplace_back(key, value.asConfigString());
  }
  return experimentFromEntries(entries);
}

}  // namespace dds
