// coopcr/util/csv.hpp
//
// The project's one number renderer and a minimal CSV writer.
//
// append_number / format_number print every number the artifacts and the
// advisor emit (report CSV and JSON, answers, cache keys, stats) as
// C-locale printf("%.*g"), through an exact 128-bit integer path with
// std::to_chars as the fallback (docs/ARCHITECTURE.md "Number
// rendering"). CsvWriter lets every bench dump its series as a CSV file
// (ready for gnuplot / pandas) when COOPCR_CSV_DIR is set, in addition to
// the human-readable console table.

#pragma once

#include <fstream>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

namespace coopcr {

/// Append `value` to `out` with `significant_digits` digits: the bytes of
/// printf("%.*g") in the C locale (what `ostream << double` prints at that
/// precision), independent of the global C/C++ locale. The default of 17
/// significant digits round-trips any double exactly through strtod — the
/// exp::ExperimentReport CSV/JSON emission and the serve/ answers rely on
/// this. Precisions 1 to 17 on zero and on normal values of magnitude
/// between about 10^(precision - 23) and 2^128 take an exact integer path
/// (detail::write_general_exact); every other value goes through
/// std::to_chars, which the standard specifies as that same printf.
void append_number(std::string& out, double value, int significant_digits = 17);

namespace detail {

/// The fast path of append_number: writes printf("%.{precision}g") of
/// `value` at `first` (which needs room for 48 chars) and returns the end,
/// or returns nullptr and writes nothing useful when `value` is out of its
/// range. It serves 1 <= precision <= 17 on ±0 and on normal values with
/// 2^ceil((precision - 23) * log2(10)) <= |value| < 2^128, and nothing
/// else. It scales the binary significand by a power of ten in 128-bit
/// integer arithmetic and rounds half to even on the exact remainder.
/// Public for tests/util/test_number_render.cpp, which checks it against
/// std::to_chars.
char* write_general_exact(char* first, double value, int precision);

}  // namespace detail

/// append_number into a fresh string.
std::string format_number(double value, int significant_digits = 17);

/// RFC-4180-ish CSV writer (quotes fields containing separators/quotes).
class CsvWriter {
 public:
  /// Open `path` for writing; throws coopcr::Error on failure.
  explicit CsvWriter(const std::string& path);

  /// Write to a caller-owned stream (report emission, tests). The stream
  /// must outlive the writer; close() is a no-op in this mode.
  explicit CsvWriter(std::ostream& out);

  /// Not movable: out_ may point at the writer's own file stream, which a
  /// defaulted move would leave dangling.
  CsvWriter(CsvWriter&&) = delete;
  CsvWriter& operator=(CsvWriter&&) = delete;

  /// Write a header / data row from strings.
  void write_row(const std::vector<std::string>& fields);
  void write_row(std::initializer_list<std::string> fields);

  /// Convenience: first field is a label, remaining are numeric.
  void write_row(const std::string& label, const std::vector<double>& values,
                 int precision = 8);

  /// Flush and close; destructor also closes.
  void close();

  /// Number of rows written so far.
  std::size_t rows_written() const { return rows_; }

  /// Quote a field per CSV rules (exposed for tests).
  static std::string escape(const std::string& field);

  /// Resolve the CSV output directory from COOPCR_CSV_DIR; nullopt when the
  /// variable is unset or empty (benches then skip CSV output).
  static std::optional<std::string> env_output_dir();

 private:
  std::ofstream file_;
  std::ostream* out_ = nullptr;  ///< &file_ or the caller's stream
  std::size_t rows_ = 0;
};

}  // namespace coopcr
