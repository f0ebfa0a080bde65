#include "dds/common/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "dds/common/error.hpp"

namespace dds {
namespace {

// ddsim's output_csv writes through formatCsv: the header line, then one
// line per row, each double at max_digits10 so it reads back exactly.
TEST(Csv, FormatWritesHeaderThenExactRows) {
  CsvTable t;
  t.header = {"time", "value"};
  t.rows = {{0.0, 0.1}, {60.0, 2.25}};
  EXPECT_EQ(formatCsv(t), "time,value\n0,0.10000000000000001\n60,2.25\n");
}

TEST(Csv, FileRoundTrip) {
  const auto path =
      (std::filesystem::temp_directory_path() / "dds_csv_test.csv").string();
  CsvTable t;
  t.header = {"k"};
  t.rows = {{42.0}};
  saveCsv(path, t);
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), formatCsv(t));
  std::remove(path.c_str());
}

TEST(Csv, SaveToUnwritablePathThrows) {
  CsvTable t;
  t.header = {"k"};
  EXPECT_THROW(saveCsv("/nonexistent/dir/file.csv", t), IoError);
}

}  // namespace
}  // namespace dds
