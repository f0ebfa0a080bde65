#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dds/common/error.hpp"
#include "dds/obs/jsonl_sink.hpp"
#include "dds/obs/trace_reader.hpp"
#include "dds/obs/trace_sink.hpp"

namespace dds::obs {
namespace {

/// Every variant once, with distinctive payloads (including non-finite
/// doubles, which must survive the round trip exactly).
std::vector<TraceEvent> sampleEvents() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto events = std::to_array<TraceEvent>({
      RunHeaderEvent{"global", 42, 0.017, 0.7, 0.05, 3600.0, 60.0, "fluid"},
      IntervalBeginEvent{60.0, 1, 10.25},
      IntervalEndEvent{120.0, 1, 0.93, 0.951, 0.825, 3.52, 0.87, 14.5, 7,
                       23},
      VmAcquireEvent{61.5, 3, "m1.xlarge", 4, 0.48, 151.5},
      VmReleaseEvent{3540.0, 3, "m1.xlarge", 0.96},
      AcquisitionFailureEvent{62.0, "m1.large"},
      CoreAllocEvent{63.0, 3, 2, -1},
      AlternateSwitchEvent{120.0, 2, 1, 0, 0.6, 1.0},
      StragglerQuarantineEvent{180.0, 5, 0.42, 3},
      StragglerRecoveryEvent{240.0, 6},
      FaultInjectionEvent{300.0, 7, "crash", 123.5},
      ProvisioningCompleteEvent{301.5, 8},
      PreemptionNoticeEvent{302.0, 9, 392.0},
      PreemptionEvent{392.0, 9, 17.25},
      MigrationBeginEvent{392.0, 4, 0.5, 1.6},
      MigrationEndEvent{393.6, 4},
      OmegaViolationEvent{360.0, 5, 0.61, 0.7},
      ForecastEvent{360.0, 6, "holt-winters", {12.5, 0.0, inf}},
      PreAcquireEvent{360.0, 6, 9, 18.75, 180.0, 2, 420.0},
      SchedulerDecisionEvent{420.0, 7, "resource", "scale_out", 0.65, 0.72,
                             nan,
                             {{"alts=[0,0] vms=[2]", 0.81},
                              {"alts=[1,0] vms=[3]", -inf}}},
  });
  static_assert(events.size() == std::variant_size_v<TraceEvent>);
  return {events.begin(), events.end()};
}

TEST(TraceJsonl, EveryVariantRoundTripsByteIdentically) {
  std::set<std::size_t> kinds;
  for (const TraceEvent& event : sampleEvents()) {
    kinds.insert(event.index());
    const std::string line = traceEventJson(event);
    const TraceEvent back = parseTraceEventJson(line);
    EXPECT_EQ(back.index(), event.index());
    // Byte identity of re-serialization is the contract ddtrace --check
    // enforces; it subsumes field-by-field equality.
    EXPECT_EQ(traceEventJson(back), line) << line;
  }
  EXPECT_EQ(kinds.size(), std::variant_size_v<TraceEvent>);
}

TEST(TraceJsonl, IntegersPast2To53RoundTripExactly) {
  for (const std::uint64_t seed :
       {std::uint64_t{9007199254740993u}, std::uint64_t{9223372036854775807u},
        std::numeric_limits<std::uint64_t>::max()}) {
    RunHeaderEvent header;
    header.seed = seed;
    const std::string line = traceEventJson(TraceEvent{header});
    EXPECT_NE(line.find("\"seed\":" + std::to_string(seed)),
              std::string::npos)
        << line;
    const TraceEvent back = parseTraceEventJson(line);
    EXPECT_EQ(std::get<RunHeaderEvent>(back).seed, seed);
    EXPECT_EQ(traceEventJson(back), line);
  }
  const TraceEvent end = IntervalEndEvent{
      1.0, std::numeric_limits<std::int64_t>::min(), 0, 0, 0, 0, 0, 0,
      std::numeric_limits<std::int64_t>::max(), 9007199254740993};
  const std::string line = traceEventJson(end);
  EXPECT_EQ(traceEventJson(parseTraceEventJson(line)), line);
}

TEST(TraceJsonl, CommittedGoldensRoundTrip) {
  // Every golden trace under tests/*/testdata re-serializes byte for byte.
  namespace fs = std::filesystem;
  std::size_t files = 0;
  for (const fs::directory_entry& dir :
       fs::directory_iterator(DDS_TEST_SOURCE_DIR)) {
    const fs::path testdata = dir.path() / "testdata";
    if (!fs::is_directory(testdata)) continue;
    for (const fs::directory_entry& file : fs::directory_iterator(testdata)) {
      if (file.path().extension() != ".jsonl") continue;
      ++files;
      std::ifstream in(file.path(), std::ios::binary);
      std::string line;
      std::size_t line_no = 0;
      while (std::getline(in, line)) {
        ++line_no;
        if (line.empty()) continue;
        ASSERT_EQ(traceEventJson(parseTraceEventJson(line)), line)
            << file.path() << ':' << line_no;
      }
      EXPECT_GT(line_no, 0u) << file.path();
    }
  }
  EXPECT_GE(files, 8u);
}

TEST(TraceJsonl, LinesAreCompactSingleLineObjects) {
  for (const TraceEvent& event : sampleEvents()) {
    const std::string line = traceEventJson(event);
    EXPECT_EQ(line.find('\n'), std::string::npos);
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_EQ(line.find("\"ev\":"), 1u) << line;
  }
}

TEST(TraceJsonl, NonFiniteDoublesUseStringSentinels) {
  SchedulerDecisionEvent e;
  e.theta = std::numeric_limits<double>::quiet_NaN();
  const std::string line = traceEventJson(TraceEvent{e});
  EXPECT_NE(line.find("\"theta\":\"NaN\""), std::string::npos) << line;
  const TraceEvent back = parseTraceEventJson(line);
  EXPECT_TRUE(std::isnan(std::get<SchedulerDecisionEvent>(back).theta));
}

TEST(TraceJsonl, NamesAndTimesAreExposed) {
  const auto events = sampleEvents();
  EXPECT_EQ(traceEventName(events[0]), "run_header");
  EXPECT_EQ(traceEventName(events[3]), "vm_acquire");
  EXPECT_EQ(traceEventName(events.back()), "scheduler_decision");
}

TEST(TraceReader, MalformedLinesThrowIoError) {
  EXPECT_THROW((void)parseTraceEventJson("not json"), IoError);
  EXPECT_THROW((void)parseTraceEventJson("{\"ev\":\"no_such_event\"}"),
               IoError);
  // A known event with a missing required field.
  EXPECT_THROW((void)parseTraceEventJson("{\"ev\":\"interval_begin\"}"),
               IoError);
  std::istringstream bad("{\"ev\":\"straggler_recovery\",\"t\":1,\"vm\":2}\n"
                         "garbage\n");
  EXPECT_THROW((void)readTraceJsonl(bad), IoError);
  // Integer fields are read exactly: a fraction, a negative id or a value
  // past the member's range fails, naming the key. So does any field of
  // the wrong type, nested ones included.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {R"({"ev":"straggler_recovery","t":1,"vm":2.7})", "vm"},
      {R"({"ev":"straggler_recovery","t":1,"vm":-1})", "vm"},
      {R"({"ev":"interval_begin","t":1,"interval":1e300,)"
       R"("input_rate":2})",
       "interval"},
      {R"({"ev":"straggler_recovery","t":1,"vm":4294967296})", "vm"},
      {R"({"ev":"vm_release","t":"soon","vm":1,"class":"m1",)"
       R"("billed_cost":0})",
       "t"},
      {R"({"ev":"forecast","t":1,"interval":1,"model":"ewma",)"
       R"("rates":[1,"x"]})",
       "rates"},
      {R"({"ev":"scheduler_decision","t":1,"interval":1,"phase":"p",)"
       R"("action":"a","omega":1,"omega_bar":1,"theta":1,"rejected":[3]})",
       "rejected"},
  };
  for (const auto& [line, key] : cases) {
    try {
      (void)parseTraceEventJson(line);
      ADD_FAILURE() << "expected IoError for " << line;
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find(": " + key), std::string::npos)
          << e.what();
    }
  }
}

TEST(TraceReader, StreamRoundTripPreservesOrderAndSkipsBlanks) {
  std::ostringstream out;
  JsonlTraceSink sink(out);
  const auto events = sampleEvents();
  for (const TraceEvent& event : events) sink.emit(event);
  EXPECT_EQ(sink.eventCount(), events.size());

  std::istringstream in("\n" + out.str() + "\n");
  const std::vector<TraceEvent> back = readTraceJsonl(in);
  ASSERT_EQ(back.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(back[i].index(), events[i].index());
    EXPECT_EQ(traceEventJson(back[i]), traceEventJson(events[i]));
  }
}

TEST(RingBufferSink, KeepsEverythingUnderCapacity) {
  RingBufferSink ring(8);
  for (std::int64_t i = 0; i < 5; ++i) {
    ring.emit(IntervalBeginEvent{static_cast<double>(i), i, 1.0});
  }
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.droppedCount(), 0u);
  const auto events = ring.events();
  ASSERT_EQ(events.size(), 5u);
  for (std::int64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(std::get<IntervalBeginEvent>(
                  events[static_cast<std::size_t>(i)]).interval,
              i);
  }
}

TEST(RingBufferSink, WraparoundKeepsTheMostRecentWindow) {
  RingBufferSink ring(4);
  for (std::int64_t i = 0; i < 11; ++i) {
    ring.emit(IntervalBeginEvent{static_cast<double>(i), i, 1.0});
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.droppedCount(), 7u);
  const auto events = ring.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first window over the last 4 emissions: 7, 8, 9, 10.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(std::get<IntervalBeginEvent>(events[i]).interval,
              static_cast<std::int64_t>(7 + i));
  }
}

TEST(RingBufferSink, ZeroCapacityDropsEverything) {
  RingBufferSink ring(0);
  ring.emit(StragglerRecoveryEvent{1.0, 2});
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.droppedCount(), 1u);
  EXPECT_TRUE(ring.events().empty());
}

TEST(Tracer, NullTracerIsDisabledAndEmitIsSafe) {
  const Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  tracer.emit(StragglerRecoveryEvent{1.0, 2});  // must not crash
  RingBufferSink ring(4);
  const Tracer live(&ring);
  EXPECT_TRUE(live.enabled());
  live.emit(StragglerRecoveryEvent{1.0, 2});
  EXPECT_EQ(ring.size(), 1u);
}

}  // namespace
}  // namespace dds::obs
