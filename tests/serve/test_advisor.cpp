// serve::Advisor: the cache determinism contract — the same query (in any
// coordinate order) returns byte-identical answer text, the second from
// the cache without re-evaluating; fallback answers are cached too, so a
// repeated out-of-hull query never spawns a second campaign; and the
// rendered answer/stats documents parse back with the promised shape.

#include <gtest/gtest.h>

#include <regex>
#include <sstream>
#include <string>
#include <utility>

#include "coopcr.hpp"

namespace coopcr {
namespace {

std::string demo_artifact() {
  exp::ExperimentSpec spec = exp::build_named_spec("demo", 2);
  const exp::ExperimentReport report =
      exp::SweepRunner(/*threads=*/1).run(spec);
  std::ostringstream oss;
  report.write_json(oss);
  return oss.str();
}

serve::AdvisorOptions fast_options() {
  serve::AdvisorOptions options;
  options.engine.fallback_replicas = 2;
  options.engine.executor.threads = 1;
  return options;
}

TEST(Advisor, RepeatedQueriesAreByteIdenticalAndServedFromCache) {
  serve::Advisor advisor(fast_options());
  ASSERT_TRUE(advisor.ingest_text(demo_artifact(), "demo.json"));

  const std::string first = advisor.answer_json(
      "{\"coords\":{\"pfs_bandwidth_gbps\":80,\"interference_alpha\":0.5}}");
  // Same query, coords in the opposite order and different spacing-free
  // member order — canonicalisation must map it to the same cache slot.
  const std::string second = advisor.answer_json(
      "{\"coords\":{\"interference_alpha\":0.5,\"pfs_bandwidth_gbps\":80}}");

  EXPECT_EQ(first, second);  // byte-identical
  EXPECT_EQ(advisor.stats().queries, 2u);
  EXPECT_EQ(advisor.stats().cache_hits, 1u);
  EXPECT_EQ(advisor.stats().cache_misses, 1u);
  // The engine evaluated exactly once — the second answer did no work.
  EXPECT_EQ(advisor.engine_counters().interpolated, 1u);
  EXPECT_EQ(advisor.engine_counters().computed, 0u);
}

TEST(Advisor, UnsimulatableBandwidthsAnswerWithAnError) {
  // Out of hull, so each needs a fallback campaign. 1e300 GB/s overflows
  // to an infinite bandwidth, 1e999 does not parse as a double, and at
  // 1e200 the checkpoint period lies below the clock's resolution: each
  // used to hang the advisor, and each must now fail with its own reason.
  serve::Advisor advisor(fast_options());
  ASSERT_TRUE(advisor.ingest_text(demo_artifact(), "demo.json"));
  const std::pair<const char*, const char*> cases[] = {
      {"1e300", "PFS bandwidth must be positive and finite"},
      {"1e999", "number out of double range"},
      {"1e200", "does not advance the clock"},
  };
  for (const auto& [bandwidth, reason] : cases) {
    const std::string query =
        std::string("{\"coords\":{\"pfs_bandwidth_gbps\":") + bandwidth +
        ",\"interference_alpha\":0.5}}";
    try {
      advisor.answer_json(query);
      ADD_FAILURE() << bandwidth << ": expected an error";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
          << bandwidth << ": " << e.what();
    }
  }
}

TEST(Advisor, FallbackOverTheCycleLimitAnswersWithAnError) {
  // At 1e12 GB/s a checkpoint costs next to nothing, so the Daly period
  // shrinks until a job would run ~1.5e7 checkpoint cycles: a campaign of
  // minutes. The engine must refuse it before running anything, naming
  // the class, the strategy, the count and the limit.
  serve::Advisor advisor(fast_options());
  ASSERT_TRUE(advisor.ingest_text(demo_artifact(), "demo.json"));
  try {
    advisor.answer_json(
        "{\"coords\":{\"pfs_bandwidth_gbps\":1e12,"
        "\"interference_alpha\":0.5}}");
    ADD_FAILURE() << "expected an error";
  } catch (const Error& e) {
    const std::regex reason(
        "fallback refused: class '[A-Za-z]+' under [A-Za-z-]+ runs "
        "[0-9.]+e\\+07 checkpoint cycles per job, above the limit of "
        "1e\\+05");
    EXPECT_TRUE(std::regex_search(std::string(e.what()), reason))
        << e.what();
  }
  EXPECT_EQ(advisor.engine_counters().computed, 0u);
}

TEST(Advisor, CachedFallbackDoesNotSpawnASecondCampaign) {
  serve::Advisor advisor(fast_options());
  ASSERT_TRUE(advisor.ingest_text(demo_artifact(), "demo.json"));

  const std::string query =
      "{\"coords\":{\"pfs_bandwidth_gbps\":160,\"interference_alpha\":0.5}}";
  const std::string first = advisor.answer_json(query);
  EXPECT_EQ(advisor.engine_counters().computed, 1u);

  const std::string second = advisor.answer_json(query);
  EXPECT_EQ(first, second);
  EXPECT_EQ(advisor.engine_counters().computed, 1u);  // still one campaign
  EXPECT_EQ(advisor.stats().cache_hits, 1u);
}

TEST(Advisor, AnswerDocumentHasThePromisedShape) {
  serve::Advisor advisor(fast_options());
  ASSERT_TRUE(advisor.ingest_text(demo_artifact(), "demo.json"));

  const std::string text = advisor.answer_json(
      "{\"experiment\":\"sweep_demo\","
      "\"coords\":{\"pfs_bandwidth_gbps\":80,\"interference_alpha\":0.5},"
      "\"metric\":\"waste_ratio\"}");
  const JsonValue doc = JsonValue::parse(text);
  EXPECT_EQ(doc.at("answer_version").as_int(),
            serve::AdvisorAnswer::kAnswerVersion);
  EXPECT_EQ(doc.at("experiment").as_string(), "sweep_demo");
  EXPECT_EQ(doc.at("metric").as_string(), "waste_ratio");
  EXPECT_EQ(doc.at("source").as_string(), "interpolated");
  EXPECT_FALSE(doc.at("higher_is_better").as_bool());
  // Coords echo in grid axis order.
  const auto& coords = doc.at("coords").as_object();
  ASSERT_EQ(coords.size(), 2u);
  EXPECT_EQ(coords[0].first, "pfs_bandwidth_gbps");
  EXPECT_EQ(coords[0].second.as_double(), 80.0);
  // best mirrors ranking[0] and carries the period recommendations.
  const JsonValue& best = doc.at("best");
  const auto& ranking = doc.at("ranking").as_array();
  ASSERT_EQ(ranking.size(), 2u);
  EXPECT_EQ(best.at("strategy").as_string(),
            ranking[0].at("strategy").as_string());
  EXPECT_EQ(best.at("value").as_double(), ranking[0].at("value").as_double());
  EXPECT_FALSE(best.at("periods").as_array().empty());
  for (const JsonValue& period : best.at("periods").as_array()) {
    EXPECT_GT(period.at("seconds").as_double(), 0.0);
  }
  // Answers carry nothing volatile.
  EXPECT_FALSE(doc.has("stats"));
  EXPECT_EQ(text.find("latency"), std::string::npos);
}

TEST(Advisor, StatsDocumentCarriesTheCounters) {
  serve::Advisor advisor(fast_options());
  ASSERT_TRUE(advisor.ingest_text(demo_artifact(), "demo.json"));
  advisor.answer_json(
      "{\"coords\":{\"pfs_bandwidth_gbps\":80,\"interference_alpha\":0.5}}");

  const JsonValue stats =
      JsonValue::parse(advisor.stats().to_json()).at("stats");
  EXPECT_EQ(stats.at("queries").as_int(), 1);
  EXPECT_EQ(stats.at("cache_misses").as_int(), 1);
  EXPECT_EQ(stats.at("interpolated").as_int(), 1);
  EXPECT_EQ(stats.at("computed").as_int(), 0);
  EXPECT_GT(stats.at("last_latency_ms").as_double(), 0.0);
  EXPECT_GE(stats.at("total_latency_ms").as_double(),
            stats.at("last_latency_ms").as_double());
}

TEST(Advisor, MalformedQueriesThrow) {
  serve::Advisor advisor(fast_options());
  ASSERT_TRUE(advisor.ingest_text(demo_artifact(), "demo.json"));
  EXPECT_THROW(advisor.answer_json("not json"), Error);
  EXPECT_THROW(advisor.answer_json("{\"coords\":{}}"), Error);
  EXPECT_THROW(advisor.answer_json(
                   "{\"coords\":{\"pfs_bandwidth_gbps\":80,"
                   "\"interference_alpha\":0.5},\"surprise\":1}"),
               Error);
}

TEST(Advisor, QueryCanonicalisationAndCacheEviction) {
  serve::AdvisorQuery a;
  a.coords = {{"x", 1.0}, {"y", 2.0}};
  serve::AdvisorQuery b;
  b.coords = {{"y", 2.0}, {"x", 1.0}};
  EXPECT_EQ(a.canonical(), b.canonical());
  EXPECT_EQ(a.digest(), b.digest());
  serve::AdvisorQuery c = a;
  c.metric = "efficiency";
  EXPECT_NE(a.digest(), c.digest());

  serve::QueryCache cache(/*capacity=*/2);
  cache.insert(1, "one");
  cache.insert(2, "two");
  ASSERT_NE(cache.lookup(1), nullptr);  // 1 is now most-recently-used
  cache.insert(3, "three");             // evicts 2
  EXPECT_EQ(cache.lookup(2), nullptr);
  ASSERT_NE(cache.lookup(1), nullptr);
  EXPECT_EQ(*cache.lookup(3), "three");
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 1u);
}

}  // namespace
}  // namespace coopcr
