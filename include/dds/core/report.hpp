// Result reporting: turn run results into CSV tables and console
// summaries. Shared by the ddsim CLI, the benches and user code so every
// surface prints the same columns.
#pragma once

#include <span>

#include "dds/common/csv.hpp"
#include "dds/common/table.hpp"
#include "dds/core/experiment.hpp"

namespace dds {

/// Per-interval series of one run:
/// interval, start_s, input_rate, omega, gamma, cost_usd, vms, cores.
[[nodiscard]] CsvTable intervalSeriesCsv(const RunResult& run);

/// Human-readable summary of several runs, §8.2-style: constraint mark
/// first, then the Theta comparison.
[[nodiscard]] TextTable summaryTable(
    std::span<const ExperimentResult> results);

}  // namespace dds
