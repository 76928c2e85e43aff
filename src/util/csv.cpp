#include "util/csv.hpp"

#include <charconv>
#include <ostream>

#include "util/env.hpp"
#include "util/error.hpp"

namespace coopcr {

void append_number(std::string& out, double value, int significant_digits) {
  // std::to_chars with a precision is specified as printf("%.*g") in the C
  // locale, which prints at most `significant_digits` digits plus a sign, a
  // point and four leading zeros or an exponent.
  const auto render = [&](char* first, char* last) {
    return std::to_chars(first, last, value, std::chars_format::general,
                         significant_digits);
  };
  char buf[48];
  const auto [end, ec] = render(buf, buf + sizeof buf);
  if (ec == std::errc()) {
    out.append(buf, end);
    return;
  }
  std::string wide(static_cast<std::size_t>(significant_digits) + 16, '\0');
  out.append(wide.data(), render(wide.data(), wide.data() + wide.size()).ptr);
}

std::string format_number(double value, int significant_digits) {
  std::string out;
  append_number(out, value, significant_digits);
  return out;
}

CsvWriter::CsvWriter(const std::string& path) : file_(path), out_(&file_) {
  COOPCR_CHECK(file_.good(), "cannot open CSV output file: " + path);
}

CsvWriter::CsvWriter(std::ostream& out) : out_(&out) {}

std::string CsvWriter::escape(const std::string& field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return field;
  std::string quoted = "\"";
  for (const char c : field) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  bool first = true;
  for (const auto& f : fields) {
    if (!first) *out_ << ',';
    *out_ << escape(f);
    first = false;
  }
  *out_ << '\n';
  ++rows_;
}

void CsvWriter::write_row(std::initializer_list<std::string> fields) {
  write_row(std::vector<std::string>(fields));
}

void CsvWriter::write_row(const std::string& label,
                          const std::vector<double>& values, int precision) {
  std::vector<std::string> fields;
  fields.reserve(values.size() + 1);
  fields.push_back(label);
  for (const double v : values) {
    fields.push_back(format_number(v, precision));
  }
  write_row(fields);
}

void CsvWriter::close() {
  if (file_.is_open()) file_.close();
}

std::optional<std::string> CsvWriter::env_output_dir() {
  return env::string_knob("COOPCR_CSV_DIR");
}

}  // namespace coopcr
