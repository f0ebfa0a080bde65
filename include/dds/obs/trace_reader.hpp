// JSONL trace ingestion for ddtrace and the round-trip tests.
//
// The reader walks the same per-event wire table as the writer
// (src/obs/trace_wire.cpp). Strict by design: an unknown "ev"
// discriminator, a missing or wrongly-typed field, an integer field
// that is fractional or outside its member's range, or malformed JSON
// throws IoError naming the key (readTraceJsonl adds the line number) —
// a trace that cannot be fully interpreted should fail loudly, not
// produce a silently incomplete timeline. Integers are read exactly
// from their JSON literal, so a seed past 2^53 round-trips.
#pragma once

#include <istream>
#include <vector>

#include "dds/obs/trace_event.hpp"

namespace dds::obs {

/// Parse one JSONL line (as produced by traceEventJson) back into a
/// typed event. "NaN"/"Infinity"/"-Infinity" string sentinels in
/// double fields (array elements included) map back to the exact
/// non-finite value.
[[nodiscard]] TraceEvent parseTraceEventJson(const std::string& line);

/// Read a whole JSONL stream; blank lines are ignored.
[[nodiscard]] std::vector<TraceEvent> readTraceJsonl(std::istream& in);

}  // namespace dds::obs
