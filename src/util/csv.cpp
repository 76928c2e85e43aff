#include "util/csv.hpp"

#include <array>
#include <bit>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <ostream>

#include "util/env.hpp"
#include "util/error.hpp"

namespace coopcr {

namespace detail {

namespace {

__extension__ typedef unsigned __int128 u128;

static_assert(std::endian::native == std::endian::little,
              "eight_digits packs digits in little-endian byte order");

/// 10^k for k in [0, 38]: every power the fast path scales or divides by
/// (10^38 < 2^127).
constexpr auto kPow10 = [] {
  std::array<u128, 39> table{};
  u128 power = 1;
  for (u128& entry : table) {
    entry = power;
    power *= 10;
  }
  return table;
}();

/// The eight ASCII digits of `n` < 10^8 in one word, most significant
/// digit in the lowest byte: two 4-digit lanes, then four 2-digit lanes,
/// then eight 1-digit lanes, each split by a multiply-shift per lane.
std::uint64_t eight_digits(std::uint32_t n) {
  std::uint64_t x = (n / 10000) | (std::uint64_t{n % 10000} << 32);
  const std::uint64_t hundreds = ((x * 10486) >> 20) & 0x0000007F0000007FULL;
  x = hundreds | ((x - hundreds * 100) << 16);
  const std::uint64_t tens = ((x * 103) >> 10) & 0x000F000F000F000FULL;
  x = tens | ((x - tens * 10) << 8);
  return x + 0x3030303030303030ULL;
}

}  // namespace

char* write_general_exact(char* first, double value, int precision) {
  if (precision < 1 || precision > 17) return nullptr;
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
  const int biased_exponent = static_cast<int>((bits >> 52) & 0x7FF);
  std::uint64_t mantissa = bits & ((std::uint64_t{1} << 52) - 1);
  char* p = first;
  *p = '-';
  p += bits >> 63;
  if (biased_exponent == 0) {
    if (mantissa != 0) return nullptr;  // subnormal
    *p = '0';
    return p + 1;
  }
  const int log2 = biased_exponent - 1023;  // floor(log2 |value|)
  if (log2 > 127) return nullptr;           // inf, NaN, or past 2^128
  mantissa |= std::uint64_t{1} << 52;
  const int binary_exponent = log2 - 52;  // |value| = mantissa * 2^that

  // floor(log2 * log10(2)) (exact for |log2| < 1100) is floor(log10
  // |value|) or one less; one less leaves P + 1 digits in the quotient.
  int exp10 = (log2 * 78913) >> 18;
  const int scale = precision - 1 - exp10;
  if (scale > 22) return nullptr;  // mantissa * 10^scale would pass 2^128

  // quotient = floor(|value| * 10^scale); the discarded tail is compared
  // with one half exactly, so rounding is printf's round-half-to-even.
  std::uint64_t quotient;
  bool tail_nonzero = false;
  bool above_half = false;
  bool half = false;
  if (scale >= 0) {
    const u128 scaled = static_cast<u128>(mantissa) * kPow10[scale];
    if (binary_exponent >= 0) {
      quotient = static_cast<std::uint64_t>(scaled << binary_exponent);
    } else {
      const int shift = -binary_exponent;  // <= 126: the quotient is >= 1
      quotient = static_cast<std::uint64_t>(scaled >> shift);
      // The tail's bits moved to the top: one half is the top bit alone.
      const u128 tail = scaled << (128 - shift);
      constexpr u128 kHalf = u128{1} << 127;
      tail_nonzero = tail != 0;
      above_half = tail > kHalf;
      half = tail == kHalf;
    }
  } else {
    u128 numerator = mantissa;
    u128 denominator = kPow10[-scale];
    if (binary_exponent >= 0) {
      numerator <<= binary_exponent;  // < 2^128 since log2 <= 127
    } else {
      denominator <<= -binary_exponent;  // |value| < 2^53: 10^15 * 2^52
    }
    quotient = static_cast<std::uint64_t>(numerator / denominator);
    const u128 tail = numerator - quotient * denominator;
    tail_nonzero = tail != 0;
    above_half = 2 * tail > denominator;  // tail < denominator < 2^127
    half = 2 * tail == denominator;
  }
  // An estimate one low left P + 1 digits: the last one joins the tail.
  const std::uint64_t limit = static_cast<std::uint64_t>(kPow10[precision]);
  const bool extra_digit = quotient >= limit;
  const auto last = static_cast<unsigned>(quotient % 10);
  const std::uint64_t digits = extra_digit ? quotient / 10 : quotient;
  exp10 += extra_digit;
  if (extra_digit) {
    above_half = last > 5 || (last == 5 && tail_nonzero);
    half = last == 5 && !tail_nonzero;
  }
  const bool round_up = above_half || (half && (digits & 1) != 0);
  std::uint64_t rounded = digits + round_up;
  if (rounded == limit) {  // 99..9 rounded up to 10^P
    rounded /= 10;
    ++exp10;
  }

  // The digits, scaled up to 17 of them: a leading one and two words of
  // eight, stored whole. %g drops trailing zeros (zero bytes after the XOR
  // below), then prints fixed notation for -4 <= exp10 < P and scientific
  // notation otherwise.
  const std::uint64_t all = rounded * static_cast<std::uint64_t>(
                                          kPow10[17 - precision]);
  const auto nine = static_cast<std::uint32_t>(all / 100000000);
  const auto lead = static_cast<char>('0' + nine / 100000000);
  const std::uint64_t high = eight_digits(nine % 100000000);
  const std::uint64_t low =
      eight_digits(static_cast<std::uint32_t>(all % 100000000));
  constexpr std::uint64_t kZeros = 0x3030303030303030ULL;
  const int count = (low ^ kZeros) != 0
                        ? 17 - std::countl_zero(low ^ kZeros) / 8
                    : (high ^ kZeros) != 0
                        ? 9 - std::countl_zero(high ^ kZeros) / 8
                        : 1;
  const auto put = [](char* at, char digit, std::uint64_t eight,
                      std::uint64_t eight_more) {
    at[0] = digit;
    std::memcpy(at + 1, &eight, 8);
    std::memcpy(at + 9, &eight_more, 8);
  };
  if (exp10 < -4 || exp10 >= precision) {
    // d[.ddd]e±XX; |exp10| <= 38 in this range, so always two digits.
    put(p + 1, lead, high, low);
    p[0] = lead;
    p[1] = '.';
    p += count > 1 ? count + 1 : 1;
    const int magnitude = exp10 < 0 ? -exp10 : exp10;
    p[0] = 'e';
    p[1] = exp10 < 0 ? '-' : '+';
    p[2] = static_cast<char>('0' + magnitude / 10);
    p[3] = static_cast<char>('0' + magnitude % 10);
    return p + 4;
  }
  if (exp10 < 0) {  // 0.ddd with up to three zeros after the point
    std::memcpy(p, "0.000", 5);
    p += 1 - exp10;
    put(p, lead, high, low);
    return p + count;
  }
  // ddd[.ddd]: integer digits past the significant ones are the scaled
  // zeros; the fraction is the digit words shifted to after the point.
  const int integer_digits = exp10 + 1;  // 1..P
  put(p, lead, high, low);
  if (count <= integer_digits) return p + integer_digits;
  const u128 fraction = (high | (static_cast<u128>(low) << 64)) >>
                        (8 * (integer_digits - 1));
  p[integer_digits] = '.';
  std::memcpy(p + integer_digits + 1, &fraction, 16);
  return p + count + 1;
}

}  // namespace detail

void append_number(std::string& out, double value, int significant_digits) {
  char buf[48];
  if (const char* end =
          detail::write_general_exact(buf, value, significant_digits)) {
    out.append(buf, static_cast<std::size_t>(end - buf));
    return;
  }
  // std::to_chars with a precision is specified as printf("%.*g") in the C
  // locale, which prints at most `significant_digits` digits plus a sign, a
  // point and four leading zeros or an exponent.
  const auto render = [&](char* first, char* last) {
    return std::to_chars(first, last, value, std::chars_format::general,
                         significant_digits);
  };
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
