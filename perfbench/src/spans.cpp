#include "spans.hpp"

#include <stdexcept>
#include <string>

namespace perfbench {
namespace {

template <class Event>
std::uint8_t kindOf() {
  return static_cast<std::uint8_t>(dds::obs::TraceEvent(Event{}).index());
}

[[noreturn]] void malformed(const RunSpans& run, const std::string& what) {
  throw std::runtime_error("span sequence of job " + std::to_string(run.job) +
                           ": " + what);
}

}  // namespace

std::uint8_t runHeaderKind() { return kindOf<dds::obs::RunHeaderEvent>(); }
std::uint8_t intervalBeginKind() {
  return kindOf<dds::obs::IntervalBeginEvent>();
}
std::uint8_t intervalEndKind() { return kindOf<dds::obs::IntervalEndEvent>(); }

std::vector<RunSpans> splitRuns(const std::vector<Stamp>& stamps) {
  const std::uint8_t header = runHeaderKind();
  const std::uint8_t begin = intervalBeginKind();
  const std::uint8_t end = intervalEndKind();

  std::vector<RunSpans> runs;
  RunSpans run;
  bool open = false;  // between call and return
  std::int64_t call = 0;
  std::int64_t header_at = -1;
  std::int64_t interval_at = -1;  // start of the open interval, -1 if none
  std::int64_t last_end = -1;     // end of the last closed interval
  std::int64_t prev = 0;

  for (const Stamp& s : stamps) {
    if (open && s.ns < prev) malformed(run, "time runs backwards");
    prev = s.ns;
    if (s.kind == kRunCall) {
      if (open) malformed(run, "call inside an open run");
      run = RunSpans{};
      run.job = s.job;
      open = true;
      call = s.ns;
      header_at = interval_at = last_end = -1;
      continue;
    }
    if (!open) {
      run.job = s.job;
      malformed(run, "event outside a run");
    }
    if (s.job != run.job) malformed(run, "stamp of another job inside a run");
    if (s.kind == kRunReturn) {
      if (header_at < 0) malformed(run, "no run header");
      if (interval_at >= 0) malformed(run, "return inside an interval");
      if (run.interval_count == 0) malformed(run, "no intervals");
      run.remainder += s.ns - last_end;
      run.wall = s.ns - call;
      const std::int64_t sum =
          run.setup + run.deploy + run.intervals + run.remainder;
      if (sum - run.wall > kPhaseSumToleranceNs ||
          run.wall - sum > kPhaseSumToleranceNs) {
        malformed(run, "phases sum to " + std::to_string(sum) +
                           " ns, wall is " + std::to_string(run.wall) + " ns");
      }
      runs.push_back(run);
      open = false;
      continue;
    }
    ++run.events;
    if (s.kind == header) {
      if (header_at >= 0) malformed(run, "second run header");
      header_at = s.ns;
      run.setup = s.ns - call;
    } else if (s.kind == begin) {
      if (header_at < 0) malformed(run, "interval before the run header");
      if (interval_at >= 0) malformed(run, "interval begins twice");
      if (last_end < 0) {
        run.deploy = s.ns - header_at;
      } else {
        run.remainder += s.ns - last_end;
      }
      interval_at = s.ns;
    } else if (s.kind == end) {
      if (interval_at < 0) malformed(run, "interval ends without a begin");
      run.intervals += s.ns - interval_at;
      ++run.interval_count;
      last_end = s.ns;
      interval_at = -1;
    }
  }
  if (open) malformed(run, "run never returns");
  return runs;
}

}  // namespace perfbench
