// The exact %.{P}g renderer behind append_number, differentially against
// std::to_chars(general, P), which the standard specifies as printf("%.*g")
// in the C locale: every precision 1..17 on seeded random bit patterns and
// on the edge families (zeros and subnormals, powers of two and of ten one
// ulp either side, integers up to 2^64, exact ties and their neighbours,
// the fast range's own boundaries). Each family also checks which path
// served each value: the fast path must serve exactly its documented range,
// so a silent fallback cannot be what makes the comparison pass.

#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "util/csv.hpp"

namespace coopcr {
namespace {

__extension__ typedef unsigned __int128 u128;

constexpr int kMaxPrecision = 17;

/// log2 of the smallest magnitude the fast path serves at `precision`.
int lowest_fast_power(int precision) {
  return static_cast<int>(std::ceil((precision - 23) / std::log10(2.0)));
}

/// The documented range of detail::write_general_exact (util/csv.hpp).
bool in_fast_range(double value, int precision) {
  static const std::vector<double> lowest = [] {
    std::vector<double> table(kMaxPrecision + 1);
    for (int p = 1; p <= kMaxPrecision; ++p) {
      table[p] = std::ldexp(1.0, lowest_fast_power(p));
    }
    return table;
  }();
  if (value == 0) return true;
  if (!std::isnormal(value)) return false;
  const double magnitude = std::fabs(value);
  return magnitude >= lowest[precision] && magnitude < std::ldexp(1.0, 128);
}

std::string reference(double value, int precision) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof buf, value,
                                    std::chars_format::general, precision);
  return std::string(buf, result.ptr);
}

/// Compares every value at every precision; counts fast-path services.
class Differential {
 public:
  void check(const std::vector<double>& values, int precision) {
    for (const double v : values) check(v, precision);
  }

  void check(double value, int precision) {
    ++checked_;
    char expected[64];
    const std::string_view want(
        expected, static_cast<std::size_t>(
                      std::to_chars(expected, expected + sizeof expected,
                                    value, std::chars_format::general,
                                    precision)
                          .ptr -
                      expected));
    char buf[48];
    const char* end = detail::write_general_exact(buf, value, precision);
    const bool in_range = in_fast_range(value, precision);
    if (end != nullptr) ++fast_;
    if ((end != nullptr) != in_range) {
      fail(value, precision,
           in_range ? "fast path refused an in-range value"
                    : "fast path served an out-of-range value");
    } else if (end != nullptr &&
               std::string_view(buf, static_cast<std::size_t>(end - buf)) !=
                   want) {
      fail(value, precision,
           "fast path rendered \"" +
               std::string(buf, static_cast<std::size_t>(end - buf)) +
               "\", want \"" + std::string(want) + "\"");
    }
    appended_.assign(1, 'x');
    append_number(appended_, value, precision);
    if (std::string_view(appended_).substr(1) != want || appended_[0] != 'x') {
      fail(value, precision, "append_number rendered \"" +
                                 appended_.substr(1) + "\", want \"" +
                                 std::string(want) + "\"");
    }
  }

  std::uint64_t mismatches() const { return mismatches_; }
  std::uint64_t checked() const { return checked_; }
  std::uint64_t fast() const { return fast_; }

 private:
  void fail(double value, int precision, const std::string& what) {
    if (++mismatches_ <= 10) {
      ADD_FAILURE() << "precision " << precision << ", bits 0x" << std::hex
                    << std::bit_cast<std::uint64_t>(value) << std::dec
                    << " (" << reference(value, 17) << "): " << what;
    }
  }

  std::string appended_;
  std::uint64_t mismatches_ = 0;
  std::uint64_t checked_ = 0;
  std::uint64_t fast_ = 0;
};

/// `value` and its neighbours up to `ulps` away on both sides, both signs.
void add_with_neighbours(std::vector<double>& out, double value, int ulps) {
  double up = value;
  double down = value;
  out.push_back(value);
  out.push_back(-value);
  for (int i = 0; i < ulps; ++i) {
    up = std::nextafter(up, std::numeric_limits<double>::infinity());
    down = std::nextafter(down, 0.0);
    for (const double v : {up, down}) {
      out.push_back(v);
      out.push_back(-v);
    }
  }
}

TEST(NumberRender, RandomBitPatternsAtEveryPrecision) {
  // Two million per precision: uniform bit patterns reach every exponent
  // (and NaN payloads, infinities, subnormals); half of them are then
  // pulled into the fast range's exponents so both paths see millions.
  constexpr std::size_t kPerPrecision = 2'000'000;
  Differential diff;
  std::mt19937_64 rng(20180521);
  for (int precision = 1; precision <= kMaxPrecision; ++precision) {
    for (std::size_t i = 0; i < kPerPrecision; ++i) {
      std::uint64_t bits = rng();
      if (i % 2 == 1) {
        // |v| in [2^-19, 2^128): the fast range of every precision.
        const std::uint64_t biased = 1004 + (bits >> 52) % 147;
        bits = (bits & 0x800FFFFFFFFFFFFFULL) | (biased << 52);
      }
      diff.check(std::bit_cast<double>(bits), precision);
    }
  }
  EXPECT_EQ(diff.mismatches(), 0u);
  EXPECT_GE(diff.checked(), kPerPrecision * kMaxPrecision);
  EXPECT_GE(diff.fast(), diff.checked() / 2);
}

TEST(NumberRender, ZerosAndSubnormals) {
  std::vector<double> values = {0.0, -0.0};
  add_with_neighbours(values, std::numeric_limits<double>::denorm_min(), 3);
  add_with_neighbours(values, std::numeric_limits<double>::min(), 3);
  std::mt19937_64 rng(7);
  for (int i = 0; i < 20000; ++i) {
    values.push_back(std::bit_cast<double>(rng() & 0x800FFFFFFFFFFFFFULL));
  }
  Differential diff;
  for (int precision = 1; precision <= kMaxPrecision; ++precision) {
    diff.check(values, precision);
  }
  EXPECT_EQ(diff.mismatches(), 0u);
  std::uint64_t zeros = 0;
  for (const double v : values) zeros += v == 0;
  EXPECT_EQ(diff.fast(), zeros * kMaxPrecision);  // the zeros only
}

TEST(NumberRender, PowersOfTwoAndTenOneUlpEitherSide) {
  std::vector<double> values;
  for (int k = -1074; k <= 1023; ++k) {
    add_with_neighbours(values, std::ldexp(1.0, k), 1);
  }
  for (int k = -323; k <= 308; ++k) {
    const std::string text = "1e" + std::to_string(k);
    add_with_neighbours(values, std::strtod(text.c_str(), nullptr), 1);
  }
  Differential diff;
  for (int precision = 1; precision <= kMaxPrecision; ++precision) {
    diff.check(values, precision);
  }
  EXPECT_EQ(diff.mismatches(), 0u);
  EXPECT_GT(diff.fast(), 0u);
}

TEST(NumberRender, IntegersUpTo2To64) {
  std::vector<double> values;
  for (int i = 0; i <= 100000; ++i) values.push_back(i);
  std::mt19937_64 rng(64);
  for (int bits = 1; bits <= 64; ++bits) {
    const std::uint64_t top = std::uint64_t{1} << (bits - 1);
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t mask = top | (top - 1);
      values.push_back(static_cast<double>((rng() & mask) | top));
    }
    add_with_neighbours(values, static_cast<double>(top), 2);
  }
  values.push_back(18446744073709551615.0);  // 2^64 after rounding
  Differential diff;
  for (int precision = 1; precision <= kMaxPrecision; ++precision) {
    diff.check(values, precision);
  }
  EXPECT_EQ(diff.mismatches(), 0u);
  // Every nonzero integer below 2^64 lies in the fast range.
  EXPECT_EQ(diff.fast(), diff.checked());
}

/// Decimal digit count of `n` > 0.
int digit_count(u128 n) {
  int count = 0;
  for (; n > 0; n /= 10) ++count;
  return count;
}

TEST(NumberRender, ExactTiesRoundHalfToEven) {
  // c / 2^(j+1) with c odd is c * 5^(j+1) / 10^(j+1): its last significant
  // digit is a 5, so at one digit fewer than it has, it is an exact tie.
  // c * 2^j with c ending in 5 is the integer form of the same tie.
  struct Tie {
    double value;
    int precision;
  };
  std::vector<Tie> ties;
  std::mt19937_64 rng(55);
  for (int i = 0; i < 400000; ++i) {
    const int bits = 1 + static_cast<int>(rng() % 53);
    const std::uint64_t c =
        ((rng() & ((std::uint64_t{1} << bits) - 1)) | 1) |
        (std::uint64_t{1} << (bits - 1));
    const int j = static_cast<int>(rng() % 60);
    u128 decimal = c;
    for (int k = 0; k <= j; ++k) decimal *= 5;
    const int precision = digit_count(decimal) - 1;
    if (decimal > (~u128{0}) / 10 || precision < 1 ||
        precision > kMaxPrecision) {
      continue;
    }
    ties.push_back({std::ldexp(static_cast<double>(c), -(j + 1)), precision});
  }
  for (std::uint64_t c = 15; c < 100000000000000000ULL; c = c * 10 + 5) {
    if (c < (std::uint64_t{1} << 53)) {
      ties.push_back({static_cast<double>(c), digit_count(c) - 1});
    }
  }
  for (std::uint64_t a = 0; a < 20000; ++a) {
    const std::uint64_t c = 10 * a + 5;  // 5, 15, 25, ...: carries included
    if (digit_count(c) > 1) {
      ties.push_back({static_cast<double>(c), digit_count(c) - 1});
    }
  }
  ASSERT_GT(ties.size(), 100000u);
  Differential diff;
  for (const Tie& tie : ties) {
    std::vector<double> around;
    add_with_neighbours(around, tie.value, 1);
    diff.check(around, tie.precision);
  }
  EXPECT_EQ(diff.mismatches(), 0u);
  EXPECT_GT(diff.fast(), diff.checked() / 2);
  std::printf("ties and neighbours: %llu checked, %llu on the fast path\n",
              static_cast<unsigned long long>(diff.checked()),
              static_cast<unsigned long long>(diff.fast()));
}

TEST(NumberRender, FastRangeBoundaries) {
  Differential diff;
  for (int precision = 1; precision <= kMaxPrecision; ++precision) {
    const int lowest = lowest_fast_power(precision);
    std::vector<double> values;
    add_with_neighbours(values, std::ldexp(1.0, lowest), 4);
    add_with_neighbours(values, std::ldexp(1.0, 128), 4);
    add_with_neighbours(values, std::numeric_limits<double>::max(), 1);
    add_with_neighbours(values, std::numeric_limits<double>::infinity(), 0);
    values.push_back(std::numeric_limits<double>::quiet_NaN());
    values.push_back(-std::numeric_limits<double>::quiet_NaN());
    diff.check(values, precision);
    // Below the lowest power the fast path refuses, at it it serves.
    char buf[48];
    EXPECT_EQ(detail::write_general_exact(
                  buf, std::nextafter(std::ldexp(1.0, lowest), 0.0), precision),
              nullptr);
    EXPECT_NE(detail::write_general_exact(buf, std::ldexp(1.0, lowest),
                                          precision),
              nullptr);
    EXPECT_NE(detail::write_general_exact(
                  buf, std::nextafter(std::ldexp(1.0, 128), 0.0), precision),
              nullptr);
    EXPECT_EQ(detail::write_general_exact(buf, std::ldexp(1.0, 128),
                                          precision),
              nullptr);
  }
  EXPECT_EQ(diff.mismatches(), 0u);
  // Precisions outside 1..17 always fall back.
  char buf[48];
  for (const int precision : {-1, 0, 18, 40}) {
    EXPECT_EQ(detail::write_general_exact(buf, 1.5, precision), nullptr);
  }
}

}  // namespace
}  // namespace coopcr
