#include "dds/exp/serve.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace dds {
namespace {

std::string specLine(std::uint64_t seed, const std::string& scheduler) {
  return R"({"v": 1, "tenant": "t", "scheduler": ")" + scheduler +
         R"(", "config": {"seed": )" + std::to_string(seed) +
         R"(, "horizon_h": 0.25, "workload.mean_rate": 8}})";
}

std::string serveAll(const std::string& input, const ServeOptions& options,
                     ServeStats* stats = nullptr) {
  std::istringstream in(input);
  std::ostringstream out;
  const ServeStats s = serveCampaign(in, out, options);
  if (stats != nullptr) *stats = s;
  return out.str();
}

TEST(Serve, StreamsOneRecordPerSpecInOrder) {
  std::string input;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    input += specLine(seed, "global") + "\n";
  }
  ServeStats stats;
  const std::string out = serveAll(input, {.jobs = 1}, &stats);
  EXPECT_EQ(stats.specs, 3u);
  EXPECT_EQ(stats.ok, 3u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.rejected, 0u);

  std::istringstream lines(out);
  std::string line;
  std::size_t i = 0;
  while (std::getline(lines, line)) {
    EXPECT_NE(line.find("\"index\":" + std::to_string(i)), std::string::npos)
        << line;
    EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
    ++i;
  }
  EXPECT_EQ(i, 3u);
}

TEST(Serve, RecordsCarryNoTimingFields) {
  const std::string out = serveAll(specLine(1, "global") + "\n", {.jobs = 1});
  EXPECT_EQ(out.find("wall_s"), std::string::npos);
}

TEST(Serve, ParallelStreamIsByteIdenticalToSerial) {
  // The serve-mode oracle: same records, same bytes, any worker count,
  // any backpressure window — including rejected lines interleaved.
  std::string input;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    input += specLine(seed, seed % 2 == 0 ? "global" : "local") + "\n";
  }
  input += "{\"v\": 2}\n";   // rejected: bad version
  input += "\n";              // blank: skipped entirely
  input += specLine(9, "global") + "\n";
  input += "garbage\n";      // rejected: not JSON

  const std::string serial = serveAll(input, {.jobs = 1});
  const std::string parallel = serveAll(input, {.jobs = 4});
  const std::string tight = serveAll(input, {.jobs = 3, .queue = 1});
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial, tight);
}

TEST(Serve, RejectedLinesGetErrorRecordsAtTheirIndex) {
  const std::string input = specLine(0, "global") + "\n" +
                            "{\"v\": 1, \"nope\": true}\n" +
                            specLine(2, "global") + "\n";
  ServeStats stats;
  const std::string out = serveAll(input, {.jobs = 2}, &stats);
  EXPECT_EQ(stats.specs, 3u);
  EXPECT_EQ(stats.ok, 2u);
  EXPECT_EQ(stats.rejected, 1u);

  std::vector<std::string> lines;
  std::istringstream in(out);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[1].find("\"index\":1"), std::string::npos);
  EXPECT_NE(lines[1].find("\"rejected\":true"), std::string::npos);
  EXPECT_NE(lines[1].find("nope"), std::string::npos);
  EXPECT_NE(lines[2].find("\"index\":2"), std::string::npos);
  EXPECT_NE(lines[2].find("\"ok\":true"), std::string::npos);
}

TEST(Serve, OversizedChainLengthIsRejectedAndTheStreamContinues) {
  // A chain is built eagerly, one PE per link: an unchecked length would
  // take the whole server down instead of rejecting one spec.
  const std::string input =
      R"({"v":1,"graph":"chain","chain_length":1000000000000})"
      "\n" +
      specLine(1, "global") + "\n";
  for (const std::size_t jobs : {1u, 2u}) {
    ServeStats stats;
    const std::string out = serveAll(input, {.jobs = jobs}, &stats);
    EXPECT_EQ(stats.rejected, 1u);
    EXPECT_EQ(stats.ok, 1u);
    std::vector<std::string> lines;
    std::istringstream in(out);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_NE(lines[0].find("\"rejected\":true"), std::string::npos);
    EXPECT_NE(lines[0].find("chain_length"), std::string::npos) << lines[0];
    EXPECT_NE(lines[1].find("\"ok\":true"), std::string::npos);
  }
}

TEST(Serve, HugeHorizonIsRejectedAndTheStreamContinues) {
  // 1e300 h used to pass validation and reach the interval clock's
  // double-to-integer cast (undefined behaviour) instead of a rejection.
  const std::string input =
      R"({"v":1,"config":{"horizon_h":1e300}})"
      "\n" +
      specLine(1, "global") + "\n";
  ServeStats stats;
  const std::string out = serveAll(input, {.jobs = 1}, &stats);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.ok, 1u);
  std::vector<std::string> lines;
  std::istringstream in(out);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"rejected\":true"), std::string::npos);
  EXPECT_NE(lines[0].find("horizon"), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("\"ok\":true"), std::string::npos);
}

TEST(Serve, HugeMeanRateIsRejectedAndTheStreamContinues) {
  // 1e300 msgs/s used to pass validation and fail inside the allocator
  // as an in-band ok:false record instead of a rejection naming the key.
  const std::string input =
      R"({"v":1,"config":{"workload.mean_rate":1e300}})"
      "\n" +
      specLine(1, "global") + "\n";
  ServeStats stats;
  const std::string out = serveAll(input, {.jobs = 1}, &stats);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.ok, 1u);
  std::istringstream in(out);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"rejected\":true"), std::string::npos) << line;
  EXPECT_NE(line.find("workload.mean_rate must be at most 1000"),
            std::string::npos)
      << line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
}

TEST(Serve, NonJsonSpecsAreRejectedAndTheStreamContinues) {
  // The spec parser used to accept these: "\uzzzz" read as a NUL byte and
  // +0.5 ran as 0.5.
  const std::vector<std::string> cases = {
      R"({"v":1,"tenant":"\uzzzz","scheduler":"global"})",
      R"({"v":1,"config":{"sigma":+0.5}})",
      R"({"v":1,"config":{"seed":01}})",
      R"({"v":1,"config":{"sigma":.5}})",
      R"({"v":1,"tenant":"\ud83d","scheduler":"global"})",
  };
  std::string input;
  for (const std::string& line : cases) input += line + "\n";
  input += specLine(1, "global") + "\n";
  ServeStats stats;
  const std::string out = serveAll(input, {.jobs = 2}, &stats);
  EXPECT_EQ(stats.rejected, cases.size());
  EXPECT_EQ(stats.ok, 1u);
  std::vector<std::string> lines;
  std::istringstream in(out);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), cases.size() + 1);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_NE(lines[i].find("\"rejected\":true"), std::string::npos)
        << lines[i];
    EXPECT_NE(lines[i].find("JSON parse error"), std::string::npos)
        << lines[i];
  }
  EXPECT_NE(lines.back().find("\"ok\":true"), std::string::npos);
}

TEST(Serve, OverflowingMessageSizeIsRejectedAndTheStreamContinues) {
  const std::string input =
      R"({"v":1,"config":{"workload.msg_size_kb":1e306}})"
      "\n" +
      specLine(1, "global") + "\n";
  ServeStats stats;
  const std::string out = serveAll(input, {.jobs = 1}, &stats);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.ok, 1u);
  std::istringstream in(out);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"rejected\":true"), std::string::npos) << line;
  EXPECT_NE(line.find("message size must be finite"), std::string::npos)
      << line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
}

TEST(Serve, NonFiniteNumbersAndNegativeSeedsAreRejectedAndTheStreamContinues) {
  // Each of these used to run (or, for 1e999, stop the whole service):
  // now each is a rejection naming its key.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {R"({"v":1,"config":{"sigma":"inf"}})", "'sigma'"},
      {R"({"v":1,"config":{"sigma":"nan"}})", "'sigma'"},
      {R"({"v":1,"config":{"sigma":1e999}})", "'sigma'"},
      {R"({"v":1,"config":{"workload.mean_rate":"inf"}})",
       "'workload.mean_rate'"},
      {R"({"v":1,"config":{"elasticity.pe_state_mb":"inf"}})",
       "'elasticity.pe_state_mb'"},
      {R"({"v":1,"config":{"workload.msg_size_kb":"inf"}})",
       "'workload.msg_size_kb'"},
      {R"({"v":1,"config":{"seed":-1}})", "'seed'"},
  };
  std::string input;
  for (const auto& [line, key] : cases) input += line + "\n";
  input += specLine(1, "global") + "\n";
  ServeStats stats;
  const std::string out = serveAll(input, {.jobs = 2}, &stats);
  EXPECT_EQ(stats.rejected, cases.size());
  EXPECT_EQ(stats.ok, 1u);
  std::vector<std::string> lines;
  std::istringstream in(out);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), cases.size() + 1);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_NE(lines[i].find("\"rejected\":true"), std::string::npos)
        << lines[i];
    EXPECT_NE(lines[i].find("config key " + cases[i].second),
              std::string::npos)
        << lines[i];
  }
  EXPECT_NE(lines.back().find("\"ok\":true"), std::string::npos);
}

TEST(Serve, JobFailuresAreInBandRecords) {
  // An intractable job fails while running (not a rejection): the
  // stream carries ok:false with the error, and later records follow.
  const std::string brute =
      R"({"v": 1, "scheduler": "brute-force-static", "config":)"
      R"( {"horizon_h": 0.25, "workload.mean_rate": 50}})";
  const std::string input = brute + "\n" + specLine(1, "global") + "\n";
  ServeStats stats;
  const std::string out = serveAll(input, {.jobs = 2}, &stats);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.ok, 1u);
  EXPECT_NE(out.find("\"ok\":false"), std::string::npos);
  EXPECT_EQ(out.find("\"rejected\""), std::string::npos);
}

TEST(Serve, SharedSubstrateAmortizesAcrossStreams) {
  const auto substrate = std::make_shared<Substrate>();
  ServeOptions options;
  options.jobs = 1;
  options.substrate = substrate;
  const std::string first = serveAll(specLine(5, "global") + "\n", options);
  const std::string second = serveAll(specLine(5, "global") + "\n", options);
  EXPECT_EQ(first, second);
  const Substrate::Stats stats = substrate->stats();
  EXPECT_EQ(stats.catalog_builds, 1u);
  EXPECT_GE(stats.catalog_hits, 1u);
  EXPECT_EQ(stats.graph_builds, 1u);
  EXPECT_GE(stats.graph_hits, 1u);
}

}  // namespace
}  // namespace dds
