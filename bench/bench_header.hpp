// Provenance fields shared by the benches that write committed BENCH_*.json
// files: commit, build type, host core count and UTC date, so numbers from
// different commits and hosts can be told apart. DDS_BENCH_BUILD_TYPE is
// set per bench target in bench/CMakeLists.txt.
#pragma once

#include <ctime>
#include <string>
#include <thread>

#include "dds/common/json.hpp"

namespace dds::bench {

inline std::string utcNow() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// Writes `commit`, `build_type`, `hardware_concurrency` and `date` into
/// an open JsonWriter object.
inline void writeProvenance(JsonWriter& w, const std::string& commit) {
  w.key("commit").value(commit);
  w.key("build_type").value(DDS_BENCH_BUILD_TYPE);
  w.key("hardware_concurrency")
      .value(static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  w.key("date").value(utcNow());
}

/// The same members as JSON text without the braces, for benches that
/// print their JSON by hand.
inline std::string provenanceFields(const std::string& commit) {
  JsonWriter w({.style = JsonWriter::Style::Compact});
  w.beginObject();
  writeProvenance(w, commit);
  w.endObject();
  const std::string object = w.str();
  return object.substr(1, object.size() - 2);
}

}  // namespace dds::bench
