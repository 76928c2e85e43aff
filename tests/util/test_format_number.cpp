// Number and string rendering of the emitted artifacts: format_number and
// append_number against the `ostream << double` formatter they replaced,
// byte for byte; advisor answers and query keys against stream-built
// references; and locale independence of every integer the reports and the
// advisor stats print.

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <locale>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "coopcr.hpp"

namespace coopcr {
namespace {

/// The formatter format_number replaced: a classic-locale stream per value.
std::string stream_format(double value, int digits) {
  std::ostringstream oss;
  oss.imbue(std::locale::classic());
  oss.precision(digits);
  oss << value;
  return oss.str();
}

/// ±0, ±inf, ±NaN, the extremes, a few everyday values, then seeded random
/// bit patterns (every exponent and NaN payload), random subnormals and
/// random values of the size the artifacts carry.
std::vector<double> test_values(std::size_t random_count) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> values = {0.0, kInf, kNaN, DBL_MAX, DBL_MIN,
                                DBL_TRUE_MIN, DBL_MIN - DBL_TRUE_MIN};
  for (const double v : {0.1, 1.0 / 3.0, 1234.5, 1e-5, 1e-4, 1e16, 1e17}) {
    values.push_back(v);
  }
  const std::size_t unsigned_count = values.size();
  for (std::size_t i = 0; i < unsigned_count; ++i) values.push_back(-values[i]);
  std::mt19937_64 rng(20180521);
  std::uniform_real_distribution<double> artifact_sized(-1e4, 1e4);
  constexpr std::uint64_t kSignAndMantissa = 0x800FFFFFFFFFFFFFULL;
  for (std::size_t i = 0; i < random_count; ++i) {
    values.push_back(std::bit_cast<double>(rng()));  // any exponent, NaNs
    values.push_back(std::bit_cast<double>(rng() & kSignAndMantissa));
    values.push_back(artifact_sized(rng));
  }
  return values;
}

TEST(FormatNumber, MatchesTheStreamFormatterByteForByte) {
  const std::vector<double> values = test_values(4000);
  std::size_t mismatches = 0;
  for (int digits = 1; digits <= 17; ++digits) {
    for (const double v : values) {
      const std::string expected = stream_format(v, digits);
      std::string appended = "x";
      append_number(appended, v, digits);
      const std::string formatted = format_number(v, digits);
      if (formatted != expected || appended != "x" + expected) {
        if (++mismatches <= 5) {
          ADD_FAILURE() << "digits " << digits << ", bits 0x" << std::hex
                        << std::bit_cast<std::uint64_t>(v) << std::dec
                        << ": got \"" << formatted << "\", want \""
                        << expected << "\"";
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(FormatNumber, EdgePrecisionsMatchTheStreamFormatter) {
  // Precision 0 prints like 1, a negative one like the default 6, and
  // precisions past the stack buffer take the wide path.
  const std::vector<double> values = test_values(200);
  for (const int digits : {-1, 0, 18, 20, 40, 60, 120, 800}) {
    for (const double v : values) {
      ASSERT_EQ(format_number(v, digits), stream_format(v, digits))
          << "digits " << digits << ", bits 0x" << std::hex
          << std::bit_cast<std::uint64_t>(v);
    }
  }
}

TEST(FormatNumber, DefaultPrecisionRoundTrips) {
  for (const double v : test_values(2000)) {
    if (v != v) continue;  // NaN never compares equal
    EXPECT_EQ(std::strtod(format_number(v).c_str(), nullptr), v);
  }
}

/// The escape set every emitter used before append_json_escaped existed.
std::string reference_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

TEST(JsonEscape, MatchesTheReferenceOnEveryByte) {
  std::string all;
  for (int c = 1; c < 256; ++c) all += static_cast<char>(c);
  std::string appended = "\"";
  append_json_escaped(appended, all);
  EXPECT_EQ(appended, "\"" + reference_escape(all));
  EXPECT_EQ(json_escaped(all), reference_escape(all));
  // The parser reads every escape back.
  EXPECT_EQ(JsonValue::parse(appended + "\"").as_string(), all);
}

/// The answer document as the stream renderer built it.
std::string stream_render(const serve::AdvisorAnswer& a) {
  const auto q = [](const std::string& s) {
    return "\"" + reference_escape(s) + "\"";
  };
  const auto num = [](double v) { return stream_format(v, 17); };
  const auto estimate = [&](const serve::StrategyEstimate& e) {
    return "{\"strategy\":" + q(e.strategy) + ",\"value\":" + num(e.value) +
           ",\"se\":" + num(e.se) + ",\"ci_halfwidth\":" + num(e.ci_halfwidth);
  };
  std::ostringstream os;
  os << "{\"answer_version\":" << serve::AdvisorAnswer::kAnswerVersion
     << ",\"experiment\":" << q(a.experiment) << ",\"metric\":" << q(a.metric)
     << ",\"coords\":{";
  for (std::size_t i = 0; i < a.coords.size(); ++i) {
    os << (i > 0 ? "," : "") << q(a.coords[i].first) << ":"
       << num(a.coords[i].second);
  }
  os << "},\"source\":" << q(a.source) << ",\"backend\":" << q(a.backend)
     << ",\"higher_is_better\":" << (a.higher_is_better ? "true" : "false")
     << ",\"best\":" << estimate(a.best()) << ",\"periods\":[";
  for (std::size_t i = 0; i < a.best_periods.size(); ++i) {
    os << (i > 0 ? "," : "") << "{\"app\":" << q(a.best_periods[i].app)
       << ",\"seconds\":" << num(a.best_periods[i].seconds) << "}";
  }
  os << "]},\"ranking\":[";
  for (std::size_t i = 0; i < a.ranking.size(); ++i) {
    os << (i > 0 ? "," : "") << estimate(a.ranking[i]) << "}";
  }
  os << "]}";
  return os.str();
}

TEST(AnswerRendering, MatchesTheStreamRendererWithHostileNames) {
  const std::string hostile = "a\"b\\c\nd\x01" "e\tf";
  serve::AdvisorAnswer answer;
  answer.experiment = "exp " + hostile;
  answer.metric = "waste_ratio";
  answer.coords = {{"pfs_bandwidth_gbps", 80.0},
                   {"axis " + hostile, 1.0 / 3.0}};
  answer.source = "computed";
  answer.backend = "in-process";
  answer.higher_is_better = true;
  answer.ranking = {{"strat " + hostile, 0.1234567890123, 1e-17, 1.96e-17},
                    {"Least-Waste", -0.0, DBL_TRUE_MIN, DBL_MAX}};
  answer.best_periods = {{"app " + hostile, 3600.000000001},
                         {"Cielo", 1e300}};

  const std::string rendered = answer.to_json();
  EXPECT_EQ(rendered, stream_render(answer));
  const JsonValue doc = JsonValue::parse(rendered);
  EXPECT_EQ(doc.at("experiment").as_string(), answer.experiment);
  EXPECT_EQ(doc.at("best").at("strategy").as_string(), "strat " + hostile);
  EXPECT_EQ(doc.at("best").at("periods").as_array()[0].at("app").as_string(),
            "app " + hostile);
  EXPECT_TRUE(doc.at("coords").has("axis " + hostile));

  // An answer with no periods and a single strategy.
  answer.best_periods.clear();
  answer.ranking.resize(1);
  EXPECT_EQ(answer.to_json(), stream_render(answer));
}

TEST(AnswerRendering, CanonicalQueryMatchesTheStreamForm) {
  serve::AdvisorQuery query;
  query.experiment = "sweep_demo";
  query.metric = "efficiency";
  query.coords = {{"pfs_bandwidth_gbps", 0.1},
                  {"interference_alpha", 1.0 / 3.0},
                  {"b", -0.0}};
  EXPECT_EQ(query.canonical(),
            "experiment=sweep_demo|metric=efficiency|b=" +
                stream_format(-0.0, 17) + "|interference_alpha=" +
                stream_format(1.0 / 3.0, 17) + "|pfs_bandwidth_gbps=" +
                stream_format(0.1, 17));
}

/// A numpunct facet that groups thousands with ',' — enough to turn a
/// streamed integer into invalid JSON and a shifted CSV row.
struct GroupingPunct : std::numpunct<char> {
  char do_thousands_sep() const override { return ','; }
  std::string do_grouping() const override { return "\3"; }
};

/// Installs a global locale for its lifetime.
class GlobalLocale {
 public:
  explicit GlobalLocale(const std::locale& locale)
      : previous_(std::locale::global(locale)) {}
  ~GlobalLocale() { std::locale::global(previous_); }
  GlobalLocale(const GlobalLocale&) = delete;
  GlobalLocale& operator=(const GlobalLocale&) = delete;

 private:
  std::locale previous_;
};

TEST(LocaleIndependence, GroupingLocaleLeavesIntegersUngrouped) {
  exp::ExperimentSpec spec(ScenarioBuilder::cielo_apex(/*seed=*/7)
                               .min_makespan(units::days(6))
                               .segment(units::days(1), units::days(5)),
                           "grouping");
  MonteCarloOptions options;
  options.replicas = 2;
  spec.pfs_bandwidth_axis({40}).strategies({least_waste()}).options(options);
  exp::ExperimentReport report = exp::SweepRunner(/*threads=*/1).run(spec);
  // Integers wide enough to be grouped: replicas, a point index and a
  // candlestick sample count.
  report.replicas = 1234567;
  report.points[0].point.index = 4321;
  for (int i = 0; i < 1200; ++i) {
    report.points[0].report.outcomes[0].waste_ratio.add(0.001 * i);
  }
  serve::AdvisorStats stats;
  stats.queries = 1234567;
  stats.cache_hits = 1000;
  stats.total_latency_ms = 12345.678;

  std::ostringstream classic_csv, classic_json;
  report.write_csv(classic_csv);
  report.write_json(classic_json);
  const std::string classic_stats = stats.to_json();

  std::ostringstream grouped_csv, grouped_json;
  std::string grouped_stats;
  {
    const GlobalLocale grouping(
        std::locale(std::locale::classic(), new GroupingPunct));
    // Streams built now take the grouping locale, as a caller's would.
    std::ostringstream csv, json;
    report.write_csv(csv);
    report.write_json(json);
    grouped_csv << csv.str();
    grouped_json << json.str();
    grouped_stats = stats.to_json();
  }

  EXPECT_EQ(grouped_csv.str(), classic_csv.str());
  EXPECT_EQ(grouped_json.str(), classic_json.str());
  EXPECT_NE(classic_json.str().find("\"replicas\":1234567,"),
            std::string::npos);
  EXPECT_NE(classic_json.str().find("\"n\":1202}"), std::string::npos);
  EXPECT_EQ(grouped_stats, classic_stats);
  const JsonValue doc = JsonValue::parse(grouped_stats);
  EXPECT_EQ(doc.at("stats").at("queries").as_int(), 1234567);
  EXPECT_EQ(doc.at("stats").at("cache_hits").as_int(), 1000);
}

}  // namespace
}  // namespace coopcr
