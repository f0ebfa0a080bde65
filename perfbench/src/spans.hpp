// The benchmark's own trace sink and the span arithmetic built on it.
//
// StampSink records only (event kind, steady-clock time, job id) per
// event into memory reserved up front, so the traced pass perturbs the
// run as little as possible; the caller brackets each engine run with
// beginRun/endRun. splitRuns turns the stamp sequence into per-run phase
// spans:
//
//   call --setup--> RunHeader --deploy--> IntervalBegin_0 --interval-->
//   IntervalEnd_0 --gap--> IntervalBegin_1 ... IntervalEnd_n --tail--> return
//
// setup + deploy + intervals + remainder (gaps and tail) tile the run
// wall time exactly; splitRuns rejects any sequence that does not.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "dds/obs/trace_sink.hpp"

namespace perfbench {

/// One recorded stamp. `kind` is the TraceEvent variant index, or one of
/// the bracket kinds below.
struct Stamp {
  std::int64_t ns = 0;  ///< steady_clock time since its epoch.
  std::uint32_t job = 0;
  std::uint8_t kind = 0;
};

inline constexpr std::uint8_t kRunCall = 254;
inline constexpr std::uint8_t kRunReturn = 255;

/// Variant indices of the events the span arithmetic reads.
[[nodiscard]] std::uint8_t runHeaderKind();
[[nodiscard]] std::uint8_t intervalBeginKind();
[[nodiscard]] std::uint8_t intervalEndKind();

/// Records stamps.
class StampSink final : public dds::obs::TraceSink {
 public:
  explicit StampSink(std::size_t reserve) { stamps_.reserve(reserve); }

  void beginRun(std::uint32_t job) {
    job_ = job;
    stamp(kRunCall);
  }
  void endRun() { stamp(kRunReturn); }

  void emit(const dds::obs::TraceEvent& event) override {
    stamp(static_cast<std::uint8_t>(event.index()));
  }

  [[nodiscard]] const std::vector<Stamp>& stamps() const { return stamps_; }
  /// True when the reserve was too small and the buffer reallocated
  /// mid-pass (a stall inside some span).
  [[nodiscard]] bool grew() const { return grew_; }

 private:
  void stamp(std::uint8_t kind) {
    if (stamps_.size() == stamps_.capacity()) grew_ = true;
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    stamps_.push_back(
        {std::chrono::duration_cast<std::chrono::nanoseconds>(now).count(),
         job_, kind});
  }

  std::vector<Stamp> stamps_;
  std::uint32_t job_ = 0;
  bool grew_ = false;
};

/// The phase split of one engine run, in nanoseconds.
struct RunSpans {
  std::uint32_t job = 0;
  std::int64_t wall = 0;       ///< call -> return.
  std::int64_t setup = 0;      ///< call -> RunHeader.
  std::int64_t deploy = 0;     ///< RunHeader -> first IntervalBegin.
  std::int64_t intervals = 0;  ///< sum of IntervalBegin -> IntervalEnd.
  std::int64_t remainder = 0;  ///< gaps between intervals plus the tail.
  std::size_t interval_count = 0;
  std::size_t events = 0;  ///< trace events (bracket stamps excluded).
};

/// Largest |setup + deploy + intervals + remainder - wall| a run may show.
inline constexpr std::int64_t kPhaseSumToleranceNs = 1000;

/// Split a stamp sequence into runs. Throws std::runtime_error on a
/// malformed sequence: a run that does not open with a call and close
/// with a return, a missing or repeated header, an unbalanced interval,
/// time running backwards, or phases that miss the wall time by more
/// than kPhaseSumToleranceNs.
[[nodiscard]] std::vector<RunSpans> splitRuns(const std::vector<Stamp>& stamps);

}  // namespace perfbench
