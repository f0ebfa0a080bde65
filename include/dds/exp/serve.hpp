// Streaming service mode: read v1 job specs as JSON lines, run them on a
// shared substrate, emit one JSONL result record per spec — in input
// order, with bounded in-flight work (`ddsim --serve`).
//
// Protocol: one spec per input line (see job_spec.hpp); blank lines are
// ignored. Every non-blank line produces exactly one output record, in
// line order:
//
//   - a jobRecordJson() when the spec parsed and ran (ok true/false
//     distinguishes a clean run from a failed one), or
//   - a specErrorJson() when the line never became a job (malformed
//     JSON, unknown field, bad config value).
//
// Records carry no timing fields, so serve output is byte-identical to
// the batch path (parse all lines -> Campaign -> runCampaign ->
// campaignJsonl) at any worker count — the same oracle contract the
// campaign runner upholds.
//
// Backpressure: at most `queue` jobs are in flight; when the window is
// full the reader blocks on the OLDEST job and emits its record before
// admitting the next spec. Output therefore streams while input is
// still arriving, and memory stays O(queue), not O(stream length).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>

#include "dds/exp/campaign.hpp"
#include "dds/exp/substrate.hpp"

namespace dds {

/// Knobs for serveCampaign.
struct ServeOptions {
  /// Worker threads; 0 = hardware concurrency, 1 = serial in the calling
  /// thread (no pool).
  std::size_t jobs = 0;
  /// In-flight window (backpressure bound); 0 = 2x workers.
  std::size_t queue = 0;
  /// Arenas to run against; null = one fresh substrate for this stream.
  /// Pass a shared one to amortize across streams (the service case).
  std::shared_ptr<Substrate> substrate = nullptr;
};

/// What one serve stream processed.
struct ServeStats {
  std::size_t specs = 0;     ///< non-blank input lines seen.
  std::size_t ok = 0;        ///< jobs that ran cleanly.
  std::size_t failed = 0;    ///< jobs that ran but threw.
  std::size_t rejected = 0;  ///< lines that never became jobs.
};

/// The record emitted for a line that never became a job.
[[nodiscard]] std::string specErrorJson(std::size_t index,
                                        const std::string& error);

/// Run the serve loop over `in`, writing records to `out` (flushed per
/// record, so downstream pipes see results as they land).
ServeStats serveCampaign(std::istream& in, std::ostream& out,
                         const ServeOptions& options = {});

}  // namespace dds
