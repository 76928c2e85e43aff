// Heap allocations per interpolated cache miss, gated. An interpolated
// answer reads its grid's answer plan (serve/grid_store.hpp): it must not
// rebuild and expand the registry spec or copy the answer to trim it, and
// each of those shows up here as a jump in the count long before it shows
// up in a latency.
//
// Allocations are counted by a replacement of the global operator new in
// this test binary only. The count depends on the standard library (small
// string and vector growth policies), so the bound is the count measured
// with libstdc++ (g++ 12) plus a margin, not an exact pin.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "coopcr.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace coopcr {
namespace {

/// Measured with libstdc++ (g++ 12.2): 28.8 per miss over this stream,
/// 29.8 while the advisor copied each answer into its cache, 73.4 before
/// answer plans. The margin (about a fifth) absorbs other standard
/// libraries; a per-query spec rebuild alone adds more than that.
constexpr double kMeasured = 28.8;
constexpr double kMargin = 6.0;

TEST(AnswerAllocations, InterpolatedMissStaysUnderTheBound) {
  exp::ExperimentSpec spec = exp::build_named_spec("fig1", 1);
  std::ostringstream artifact;
  exp::SweepRunner(/*threads=*/1).run(spec).write_json(artifact);
  serve::Advisor advisor;
  ASSERT_TRUE(advisor.ingest_text(artifact.str(), "fig1.json"));

  // Distinct in-hull bandwidths, every metric in turn: all misses, all
  // interpolated, periods attached.
  std::vector<std::string> queries;
  Rng rng(74);
  const std::vector<exp::Metric>& metrics = exp::all_metrics();
  constexpr std::size_t kQueries = 256;
  for (std::size_t i = 0; i < kQueries; ++i) {
    std::string text =
        "{\"experiment\":\"fig1_bandwidth_sweep\","
        "\"coords\":{\"pfs_bandwidth_gbps\":";
    append_number(text, rng.uniform(40.0, 160.0));
    text += "},\"metric\":\"" + exp::metric_name(metrics[i % metrics.size()]) +
            "\"}";
    queries.push_back(std::move(text));
  }
  advisor.answer_json(queries.front());  // first-call statics out of the count

  const std::uint64_t before = g_allocations.load();
  for (std::size_t i = 1; i < kQueries; ++i) {
    const std::string& answer = advisor.answer_json(queries[i]);
    ASSERT_FALSE(answer.empty());
  }
  const double per_miss =
      static_cast<double>(g_allocations.load() - before) /
      static_cast<double>(kQueries - 1);

  EXPECT_EQ(advisor.stats().cache_misses, kQueries);
  EXPECT_EQ(advisor.engine_counters().interpolated, kQueries);
  EXPECT_LE(per_miss, kMeasured + kMargin)
      << "heap allocations per interpolated miss: " << per_miss;
  std::printf("heap allocations per interpolated miss: %.2f\n", per_miss);
}

}  // namespace
}  // namespace coopcr
