#include "serve/query.hpp"

#include <algorithm>

#include "dist/journal.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace coopcr::serve {

namespace {

/// Append `"s"`, escaped.
void append_quoted(std::string& out, const std::string& s) {
  out += '"';
  append_json_escaped(out, s);
  out += '"';
}

/// The estimate's members, leaving its object open for "periods".
void append_estimate(std::string& out, const StrategyEstimate& e) {
  out += "{\"strategy\":";
  append_quoted(out, e.strategy);
  out += ",\"value\":";
  append_number(out, e.value);
  out += ",\"se\":";
  append_number(out, e.se);
  out += ",\"ci_halfwidth\":";
  append_number(out, e.ci_halfwidth);
}

/// Widest rendering of a double at 17 digits ("-2.2250738585072014e-308").
constexpr std::size_t kNumberChars = 24;

/// The size of the rendered answer when no name needs escaping (escapes
/// only add bytes): the fixed text, plus names and numbers at full width.
std::size_t json_size_bound(const AdvisorAnswer& answer) {
  std::size_t size = 160 + answer.experiment.size() + answer.metric.size() +
                     answer.source.size() + answer.backend.size();
  for (const auto& [axis, value] : answer.coords) {
    size += axis.size() + 4 + kNumberChars;
  }
  // The best estimate is rendered twice: under "best" and in "ranking".
  size += answer.best().strategy.size() + 48 + 3 * kNumberChars;
  for (const StrategyEstimate& estimate : answer.ranking) {
    size += estimate.strategy.size() + 48 + 3 * kNumberChars;
  }
  for (const AppPeriod& period : answer.best_periods) {
    size += period.app.size() + 24 + kNumberChars;
  }
  return size;
}

}  // namespace

AdvisorQuery AdvisorQuery::from_json(const std::string& text) {
  JsonValue doc;
  try {
    doc = JsonValue::parse(text);
  } catch (const Error& e) {
    throw Error(std::string("bad advisor query: ") + e.message());
  }
  COOPCR_CHECK(doc.is_object(), "bad advisor query: document is not an object");
  AdvisorQuery query;
  for (const auto& [key, value] : doc.as_object()) {
    if (key == "experiment") {
      query.experiment = value.as_string();
    } else if (key == "metric") {
      query.metric = value.as_string();
    } else if (key == "coords") {
      query.coords.reserve(value.as_object().size());
      for (const auto& [axis, coord] : value.as_object()) {
        query.coords.emplace_back(axis, coord.as_double());
      }
    } else {
      throw Error("bad advisor query: unknown member \"" + key + "\"");
    }
  }
  COOPCR_CHECK(!query.coords.empty(),
               "bad advisor query: no \"coords\" member (or it is empty)");
  for (std::size_t i = 0; i < query.coords.size(); ++i) {
    for (std::size_t j = i + 1; j < query.coords.size(); ++j) {
      COOPCR_CHECK(query.coords[i].first != query.coords[j].first,
                   "bad advisor query: duplicate coord \"" +
                       query.coords[i].first + "\"");
    }
  }
  return query;
}

std::string AdvisorQuery::canonical() const {
  std::vector<const std::pair<std::string, double>*> sorted;
  sorted.reserve(coords.size());
  std::size_t size = 20 + experiment.size() + metric.size();
  for (const auto& coord : coords) {
    sorted.push_back(&coord);
    size += coord.first.size() + 2 + kNumberChars;
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  std::string out;
  out.reserve(size);
  out += "experiment=";
  out += experiment;
  out += "|metric=";
  out += metric;
  for (const auto* coord : sorted) {
    out += '|';
    out += coord->first;
    out += '=';
    append_number(out, coord->second);
  }
  return out;
}

std::uint64_t AdvisorQuery::digest() const {
  const std::string text = canonical();
  return dist::fnv1a64(reinterpret_cast<const std::uint8_t*>(text.data()),
                       text.size());
}

const StrategyEstimate& AdvisorAnswer::best() const {
  COOPCR_CHECK(!ranking.empty(), "advisor answer has an empty ranking");
  return ranking.front();
}

std::string AdvisorAnswer::to_json() const {
  // One allocation: the cache and the client keep this string, so it is
  // sized up front rather than grown and trimmed.
  std::string out;
  out.reserve(json_size_bound(*this));
  out += "{\"answer_version\":";
  out += std::to_string(kAnswerVersion);
  out += ",\"experiment\":";
  append_quoted(out, experiment);
  out += ",\"metric\":";
  append_quoted(out, metric);
  out += ",\"coords\":{";
  for (std::size_t i = 0; i < coords.size(); ++i) {
    if (i > 0) out += ',';
    append_quoted(out, coords[i].first);
    out += ':';
    append_number(out, coords[i].second);
  }
  out += "},\"source\":";
  append_quoted(out, source);
  out += ",\"backend\":";
  append_quoted(out, backend);
  out += ",\"higher_is_better\":";
  out += higher_is_better ? "true" : "false";
  out += ",\"best\":";
  append_estimate(out, best());
  out += ",\"periods\":[";
  for (std::size_t i = 0; i < best_periods.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"app\":";
    append_quoted(out, best_periods[i].app);
    out += ",\"seconds\":";
    append_number(out, best_periods[i].seconds);
    out += '}';
  }
  out += "]},\"ranking\":[";
  for (std::size_t i = 0; i < ranking.size(); ++i) {
    if (i > 0) out += ',';
    append_estimate(out, ranking[i]);
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace coopcr::serve
