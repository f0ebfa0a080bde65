// Streaming JSONL trace sink.
//
// One compact JSON object per line, written as events arrive so a
// multi-hour run never buffers its trace. Each line follows the event's
// row in the wire table (src/obs/trace_wire.cpp): "ev" first, then the
// row's fields in order. Doubles use the shortest round-tripping
// representation (common/json), integers print exactly, and non-finite
// values serialize as "NaN"/"Infinity"/"-Infinity" string sentinels
// that TraceReader maps back exactly — parse -> re-serialize is
// therefore byte-identical, which `ddtrace --check` verifies.
#pragma once

#include <fstream>
#include <memory>
#include <ostream>
#include <string>

#include "dds/obs/trace_sink.hpp"

namespace dds::obs {

/// One JSONL line (no trailing newline) for a single event.
[[nodiscard]] std::string traceEventJson(const TraceEvent& event);

/// Writes each event as one JSONL line to a stream or file.
class JsonlTraceSink final : public TraceSink {
 public:
  /// Stream ctor: the sink does not own `out` (tests pass an
  /// ostringstream; campaign jobs use the path ctor).
  explicit JsonlTraceSink(std::ostream& out) : out_(&out) {}

  /// File ctor: opens (truncates) `path`; throws IoError on failure.
  explicit JsonlTraceSink(const std::string& path);

  void emit(const TraceEvent& event) override;

  /// Events written so far.
  [[nodiscard]] std::uint64_t eventCount() const { return count_; }

 private:
  std::unique_ptr<std::ofstream> owned_;
  std::ostream* out_;
  std::uint64_t count_ = 0;
};

}  // namespace dds::obs
