// Unit tests for units, CSV writer, table printer and error macros.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace coopcr {
namespace {

// --- units -------------------------------------------------------------------

TEST(Units, TimeConversions) {
  EXPECT_DOUBLE_EQ(units::hours(1), 3600.0);
  EXPECT_DOUBLE_EQ(units::days(1), 86400.0);
  EXPECT_DOUBLE_EQ(units::years(1), 365.0 * 86400.0);
  EXPECT_DOUBLE_EQ(units::hours(2.5), 9000.0);
}

TEST(Units, VolumeConversions) {
  EXPECT_DOUBLE_EQ(units::gigabytes(1), 1e9);
  EXPECT_DOUBLE_EQ(units::terabytes(286), 2.86e14);
  EXPECT_DOUBLE_EQ(units::petabytes(7), 7e15);
}

TEST(Units, BandwidthConversions) {
  EXPECT_DOUBLE_EQ(units::gb_per_s(160), 1.6e11);
  EXPECT_DOUBLE_EQ(units::tb_per_s(10), 1e13);
}

// --- error macros --------------------------------------------------------------

TEST(Error, CheckThrowsWithContext) {
  try {
    COOPCR_CHECK(false, "custom message");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("custom message"), std::string::npos);
    EXPECT_NE(what.find("test_misc_util.cpp"), std::string::npos);
  }
}

TEST(Error, MessageLeavesOutTheSourceLocation) {
  // message() is what users see (advisor answers): the same failure must
  // read the same from any checkout, so it carries no source path, and no
  // C++ condition text either.
  try {
    COOPCR_CHECK(1 + 1 == 3, "custom message");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string message = e.message();
    EXPECT_EQ(message, "custom message");
    const std::string what = e.what();
    EXPECT_EQ(what.size() - message.size(), what.find(message));
    EXPECT_NE(what.find("test_misc_util.cpp:"), std::string::npos) << what;
    EXPECT_NE(what.find("check failed: 1 + 1 == 3 — custom message"),
              std::string::npos)
        << what;
  }
  try {
    COOPCR_ASSERT(2 < 1, "invariant message");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_STREQ(e.message(), "invariant message");
    EXPECT_NE(std::string(e.what()).find("invariant violated: 2 < 1 — "),
              std::string::npos)
        << e.what();
  }
  EXPECT_STREQ(Error("plain").message(), "plain");
}

TEST(Error, CheckPassesSilently) {
  EXPECT_NO_THROW(COOPCR_CHECK(true, "unused"));
  EXPECT_NO_THROW(COOPCR_ASSERT(1 + 1 == 2, "unused"));
}

// --- CSV ------------------------------------------------------------------------

TEST(Csv, EscapePlainFieldUnchanged) {
  EXPECT_EQ(CsvWriter::escape("hello"), "hello");
}

TEST(Csv, EscapeQuotesCommasAndQuotes) {
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesRowsToFile) {
  const std::string path = testing::TempDir() + "/coopcr_csv_test.csv";
  {
    CsvWriter csv(path);
    csv.write_row({"a", "b"});
    csv.write_row("row", {1.5, 2.25});
    EXPECT_EQ(csv.rows_written(), 2u);
  }
  std::ifstream in(path);
  std::string line1;
  std::string line2;
  ASSERT_TRUE(std::getline(in, line1));
  ASSERT_TRUE(std::getline(in, line2));
  EXPECT_EQ(line1, "a,b");
  EXPECT_EQ(line2, "row,1.5,2.25");
  std::remove(path.c_str());
}

TEST(Csv, ThrowsOnUnwritablePath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/file.csv"), Error);
}

// --- table printer ---------------------------------------------------------------

TEST(Table, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "22"});
  std::ostringstream oss;
  t.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.columns(), 2u);
}

TEST(Table, RejectsArityMismatch) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, FmtFixedPoint) {
  EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::fmt(2.0, 0), "2");
}

}  // namespace
}  // namespace coopcr
