// Golden-fixture comparison shared by the trace tests.
//
// A golden fixture pins an engine's exact output bytes (a JSONL trace).
// Fixture paths are relative to the tests/ source directory, e.g.
// "sim/testdata/golden_fluid_forecast_trace.jsonl".
//
// To regenerate after a deliberate behaviour change, run the test binary
// directly with DDS_REGEN_GOLDEN=1: every expectMatchesGolden call then
// rewrites its fixture and fails, so a regen run is never mistaken for
// green. Rerun without the variable to check the other engines, which
// read the fixtures through readGolden only.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace dds {

inline std::string goldenPath(const std::string& fixture) {
  return std::string(DDS_TEST_SOURCE_DIR) + "/" + fixture;
}

/// The committed bytes of `fixture`.
inline std::string readGolden(const std::string& fixture) {
  std::ifstream in(goldenPath(fixture), std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << goldenPath(fixture);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Compare `actual` against `fixture`, or rewrite the fixture when
/// DDS_REGEN_GOLDEN=1 (then fail).
inline void expectMatchesGolden(const std::string& actual,
                                const std::string& fixture) {
  const char* regen = std::getenv("DDS_REGEN_GOLDEN");
  if (regen != nullptr && std::string(regen) == "1") {
    std::ofstream(goldenPath(fixture), std::ios::binary) << actual;
    FAIL() << "regenerated " << fixture << " — rerun without "
           << "DDS_REGEN_GOLDEN";
  }
  EXPECT_EQ(actual, readGolden(fixture));
}

}  // namespace dds
