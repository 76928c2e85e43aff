// Advisor answers, pinned byte for byte: one fnv1a64 digest per rendered
// answer over the registry demo grid built in-process. advisor-smoke
// compares numbers normalised to 9 digits, so it cannot see a drift in
// the last ulp; these pins can. Covered: a seeded in-hull stream over every
// metric, on-grid points and edges, a re-spelled repeat (a cache hit), an
// out-of-hull fallback, a grid that grows by a second artifact after its
// first queries (so the store re-lays its axes and cells under a live plan),
// and a grid whose experiment the spec registry does not know (no periods).
//
// The digests were captured from the answers the advisor rendered before
// the per-grid answer plans existed; a change that moves any of them
// changes what the advisor prints.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "coopcr.hpp"

namespace coopcr {
namespace {

constexpr int kReplicas = 3;

std::string demo_artifact(const std::vector<double>& bandwidths,
                          const std::vector<double>& alphas,
                          const std::string& rename = "") {
  exp::ExperimentSpec spec = exp::build_named_spec("demo", kReplicas);
  spec.clear_axes()
      .named_axis("pfs_bandwidth_gbps", bandwidths)
      .named_axis("interference_alpha", alphas);
  if (!rename.empty()) spec.name(rename);
  std::ostringstream oss;
  exp::SweepRunner(/*threads=*/1).run(spec).write_json(oss);
  return oss.str();
}

serve::EngineOptions fast_engine() {
  serve::EngineOptions engine;
  engine.fallback_replicas = 2;
  engine.executor.threads = 1;
  return engine;
}

std::string query_text(double bandwidth, double alpha,
                       const std::string& metric) {
  std::string text = "{\"coords\":{\"pfs_bandwidth_gbps\":";
  append_number(text, bandwidth);
  text += ",\"interference_alpha\":";
  append_number(text, alpha);
  text += "},\"metric\":\"" + metric + "\"}";
  return text;
}

std::uint64_t digest(const std::string& answer) {
  return dist::fnv1a64(reinterpret_cast<const std::uint8_t*>(answer.data()),
                       answer.size());
}

/// Collects one digest per answer and compares against the pins.
class Pins {
 public:
  void add(const std::string& answer) {
    answers_.push_back(answer);
    digests_.push_back(digest(answer));
  }

  void expect(const std::vector<std::uint64_t>& pinned) const {
    bool same = pinned.size() == digests_.size();
    for (std::size_t i = 0; same && i < pinned.size(); ++i) {
      same = pinned[i] == digests_[i];
    }
    if (same) return;
    std::string table;
    for (std::size_t i = 0; i < digests_.size(); ++i) {
      char line[64];
      std::snprintf(line, sizeof line, "0x%016llxull,\n",
                    static_cast<unsigned long long>(digests_[i]));
      table += line;
    }
    ADD_FAILURE() << "answer digests moved; current table:\n" << table;
    for (std::size_t i = 0; i < digests_.size() && i < pinned.size(); ++i) {
      if (pinned[i] != digests_[i]) {
        ADD_FAILURE() << "first moved answer #" << i << ": " << answers_[i];
        break;
      }
    }
  }

 private:
  std::vector<std::string> answers_;
  std::vector<std::uint64_t> digests_;
};

TEST(AnswerBytes, StreamOnGridRepeatAndFallbackArePinned) {
  serve::AdvisorOptions options;
  options.engine = fast_engine();
  serve::Advisor advisor(options);
  ASSERT_TRUE(advisor.ingest_text(demo_artifact({40, 120}, {0.0, 1.0}),
                                  "demo.json"));
  Pins pins;

  // Seeded in-hull stream, cycling through every metric.
  Rng rng(20261020);
  const std::vector<exp::Metric>& metrics = exp::all_metrics();
  std::string first_query;
  for (std::size_t i = 0; i < 3 * metrics.size(); ++i) {
    const double bandwidth = rng.uniform(40.0, 120.0);
    const double alpha = rng.uniform(0.0, 1.0);
    const std::string text = query_text(
        bandwidth, alpha, exp::metric_name(metrics[i % metrics.size()]));
    if (i == 0) first_query = text;
    pins.add(advisor.answer_json(text));
  }
  EXPECT_EQ(advisor.engine_counters().interpolated, 3 * metrics.size());

  // On-grid corners, then edges (one coordinate on the grid).
  for (const double bandwidth : {40.0, 120.0}) {
    for (const double alpha : {0.0, 1.0}) {
      pins.add(
          advisor.answer_json(query_text(bandwidth, alpha, "waste_ratio")));
      pins.add(advisor.answer_json(query_text(bandwidth, alpha, "efficiency")));
    }
  }
  pins.add(advisor.answer_json(query_text(40.0, 0.25, "energy_waste_ratio")));
  pins.add(advisor.answer_json(query_text(95.5, 1.0, "utilization")));

  // The first stream query re-spelled: members and coords reordered. It
  // must come back from the cache as the first answer's exact bytes.
  const JsonValue first = JsonValue::parse(first_query);
  std::string respelled = "{\"metric\":\"" +
                          first.at("metric").as_string() +
                          "\",\"coords\":{\"interference_alpha\":";
  append_number(respelled,
                first.at("coords").at("interference_alpha").as_double());
  respelled += ",\"pfs_bandwidth_gbps\":";
  append_number(respelled,
                first.at("coords").at("pfs_bandwidth_gbps").as_double());
  respelled += "}}";
  const std::uint64_t hits_before = advisor.stats().cache_hits;
  pins.add(advisor.answer_json(respelled));
  EXPECT_EQ(advisor.stats().cache_hits, hits_before + 1);

  // Out of hull: an on-demand fallback campaign, periods included.
  pins.add(advisor.answer_json(query_text(200.0, 0.5, "waste_ratio")));
  EXPECT_EQ(advisor.engine_counters().computed, 1u);

  pins.expect({
      0xdb3310ee8481d24eull, 0x7caea9c3114dd718ull, 0x5463747e8e0bd721ull,
      0xc895e8f4490024abull, 0x578bf82075dfbfb9ull, 0x3c3c7f7bce8643b2ull,
      0xdad03cb22696cdddull, 0xce314181f01060a3ull, 0xe68fbe7d6ee69b1aull,
      0xd2a36f041f835eb9ull, 0x78b1a321f58114d2ull, 0x09ebd4164d05ee44ull,
      0x05cf329744d55ce6ull, 0x1b3c8517d42aee67ull, 0x67acafc5f0bbc27eull,
      0xe966712f6c43574aull, 0x06b2311a79b19426ull, 0x41a8fd839da0b5beull,
      0x60858098092b8b18ull, 0x26918a76597fb345ull, 0xc90d3a930e388210ull,
      0x14a3341e01fac80dull, 0xdb068e62735e887eull, 0x6ac43dadb5d69cc8ull,
      0xa3b12660b09ac161ull, 0x5cad951613f1d1f5ull, 0xf50c83f8a3ca0206ull,
      0x467bd60c76bcab2full, 0x4e5e144b335a857bull, 0xf9007900cd848421ull,
      0x2e35f24f5487488full, 0x6ac9a6c745ad02bdull, 0x26c06611f961cab6ull,
      0x88accd9ed1c413e9ull, 0xdb3310ee8481d24eull, 0x666ab2ccc3e0c718ull
  });
}

TEST(AnswerBytes, GridGrownByASecondArtifactIsPinned) {
  serve::GridStore store;
  ASSERT_TRUE(store.ingest_text(demo_artifact({40, 120}, {0.0, 1.0}),
                                "first.json"));
  serve::QueryEngine engine(store, fast_engine());
  const std::vector<serve::AdvisorQuery> queries = {
      serve::AdvisorQuery::from_json(query_text(60.0, 0.3, "waste_ratio")),
      serve::AdvisorQuery::from_json(query_text(80.0, 0.5, "efficiency")),
      serve::AdvisorQuery::from_json(query_text(110.0, 0.9, "checkpoints")),
  };
  Pins pins;
  for (const serve::AdvisorQuery& query : queries) {
    pins.add(engine.answer(query).to_json());
  }
  // A second artifact adds the 80 GB/s column: the same queries now
  // interpolate over narrower brackets (80 lands on the grid).
  ASSERT_TRUE(store.ingest_text(demo_artifact({80}, {0.0, 1.0}),
                                "second.json"));
  ASSERT_EQ(store.sole().cell_count(), 6u);
  for (const serve::AdvisorQuery& query : queries) {
    pins.add(engine.answer(query).to_json());
  }
  EXPECT_EQ(engine.counters().interpolated, 2 * queries.size());
  pins.expect({
      0x88363e193e600f47ull, 0x10b5d79111ad5293ull, 0xa9d848b7bad554c8ull,
      0xb8ed6f6c2e077dadull, 0xe8a2436256bfb9bdull, 0x492650cfe69d0995ull
  });
}

TEST(AnswerBytes, UnregisteredExperimentAnswersWithoutPeriods) {
  serve::GridStore store;
  ASSERT_TRUE(store.ingest_text(
      demo_artifact({40, 120}, {0.0, 1.0}, "demo_not_registered"),
      "custom.json"));
  serve::QueryEngine engine(store, fast_engine());
  Pins pins;
  const serve::AdvisorAnswer answer = engine.answer(
      serve::AdvisorQuery::from_json(query_text(70.0, 0.5, "waste_ratio")));
  EXPECT_TRUE(answer.best_periods.empty());
  pins.add(answer.to_json());
  // Out of hull there is nothing to rebuild the campaign from.
  EXPECT_THROW(engine.answer(serve::AdvisorQuery::from_json(
                   query_text(200.0, 0.5, "waste_ratio"))),
               Error);
  pins.expect({
      0xb17fd014626f476dull
  });
}

}  // namespace
}  // namespace coopcr
