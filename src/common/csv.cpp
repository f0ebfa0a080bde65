#include "dds/common/csv.hpp"

#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "dds/common/error.hpp"

namespace dds {

std::string formatCsv(const CsvTable& table) {
  std::ostringstream os;
  // Enough digits that every double reads back exactly.
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (std::size_t i = 0; i < table.header.size(); ++i) {
    if (i > 0) os << ',';
    os << table.header[i];
  }
  os << '\n';
  for (const auto& row : table.rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) os << ',';
      os << row[i];
    }
    os << '\n';
  }
  return os.str();
}

void saveCsv(const std::string& path, const CsvTable& table) {
  std::ofstream out(path);
  if (!out) throw IoError("cannot write CSV file: " + path);
  out << formatCsv(table);
  if (!out) throw IoError("error while writing CSV file: " + path);
}

}  // namespace dds
