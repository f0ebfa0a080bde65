// Minimal CSV writing.
//
// Experiment result series are persisted as plain CSV so they can be
// inspected and re-plotted outside the library. The dialect is
// deliberately simple: comma separator, no quoting, one header row.
#pragma once

#include <string>
#include <vector>

namespace dds {

/// An in-memory CSV table: one header row plus numeric data rows.
struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<double>> rows;
};

/// Serialize a table as CSV text.
[[nodiscard]] std::string formatCsv(const CsvTable& table);

/// Write a CSV file to disk. Throws IoError on failure.
void saveCsv(const std::string& path, const CsvTable& table);

}  // namespace dds
