// Provenance fields shared by the benches that write committed BENCH_*.json
// files: commit, build type, host core count and UTC date, so numbers from
// different commits and hosts can be told apart. DDS_BENCH_BUILD_TYPE is
// set per bench target in bench/CMakeLists.txt.
#pragma once

#include <ctime>
#include <string>
#include <thread>

namespace dds::bench {

inline std::string utcNow() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// `"commit": ..., "build_type": ..., "hardware_concurrency": ...,
/// "date": ...` — the members of a JSON header object, without braces.
inline std::string provenanceFields(const std::string& commit) {
  return "\"commit\": \"" + commit + "\", \"build_type\": \"" +
         DDS_BENCH_BUILD_TYPE + "\", \"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"date\": \"" + utcNow() + "\"";
}

}  // namespace dds::bench
