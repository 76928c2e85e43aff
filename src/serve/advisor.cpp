#include "serve/advisor.hpp"

#include <chrono>
#include <string>

#include "util/csv.hpp"

namespace coopcr::serve {

std::string AdvisorStats::to_json() const {
  // Integers via std::to_string, never `ostream <<`: a global locale that
  // groups digits would print "1,234" and break the JSON.
  std::string out = "{\"stats\":{\"queries\":" + std::to_string(queries) +
                    ",\"cache_hits\":" + std::to_string(cache_hits) +
                    ",\"cache_misses\":" + std::to_string(cache_misses) +
                    ",\"interpolated\":" + std::to_string(interpolated) +
                    ",\"computed\":" + std::to_string(computed) +
                    ",\"last_latency_ms\":";
  append_number(out, last_latency_ms, 6);
  out += ",\"total_latency_ms\":";
  append_number(out, total_latency_ms, 6);
  out += "}}";
  return out;
}

Advisor::Advisor(AdvisorOptions options)
    : engine_(store_, options.engine), cache_(options.cache_capacity) {}

bool Advisor::ingest_file(const std::string& path) {
  return store_.ingest_file(path);
}

bool Advisor::ingest_text(const std::string& text, const std::string& label) {
  return store_.ingest_text(text, label);
}

std::size_t Advisor::ingest_dir(const std::string& dir) {
  return store_.ingest_dir(dir);
}

std::string Advisor::answer(const AdvisorQuery& query) {
  const auto start = std::chrono::steady_clock::now();
  ++stats_.queries;

  std::string rendered;
  const std::uint64_t digest = query.digest();
  if (const std::string* cached = cache_.lookup(digest)) {
    ++stats_.cache_hits;
    rendered = *cached;  // the first evaluation's exact bytes
  } else {
    ++stats_.cache_misses;
    const QueryEngine::Counters before = engine_.counters();
    rendered = engine_.answer(query).to_json();
    const QueryEngine::Counters& after = engine_.counters();
    stats_.interpolated += after.interpolated - before.interpolated;
    stats_.computed += after.computed - before.computed;
    cache_.insert(digest, rendered);
  }

  const auto elapsed = std::chrono::steady_clock::now() - start;
  stats_.last_latency_ms =
      std::chrono::duration<double, std::milli>(elapsed).count();
  stats_.total_latency_ms += stats_.last_latency_ms;
  return rendered;
}

std::string Advisor::answer_json(const std::string& query_json) {
  return answer(AdvisorQuery::from_json(query_json));
}

}  // namespace coopcr::serve
