// advisor_mix: one closed-loop client querying serve::Advisor.
//
// Set-up builds the registry's "fig1" grid (exp::build_named_spec, so
// fallbacks can rebuild it) with kGridReplicas replicas per point on an
// in-process runner, emits its JSON artifact and ingests it. The client
// then sends a stream seeded by --seed: distinct in-hull bandwidth queries
// (answered by interpolation), repeats of recent queries re-spelled with
// their members in another order (cache hits), and a fixed share of
// distinct out-of-hull queries, each answered by an on-demand one-point
// Monte Carlo campaign on the in-process executor, on kFallbackThreads
// threads. The share is chosen so the median query is a non-fallback one
// and the 99th percentile lies among the fallbacks.
//
// The mix is assumed, not measured: no record of real advisor traffic
// exists. The repeat share (kRepeatShare), the 64-query repeat window and
// the metric weights (make_query_stream) are guesses that set the cache-hit
// ratio, queries_per_s and where query_p50_ms lands. The design needs only
// that repeats (cache hits) stay below half the stream, so the median is an
// interpolated query, and that fallbacks are more than 1% and well under
// half, so the 99th percentile is a fallback and the median is not.
//
// Output check: every answer must parse as an answer document, and every
// repeat must return its first answer's exact bytes. Traced runs also
// replay the stream through the advisor's layers one by one (same bytes
// expected) and rebuild every fallback campaign from direct layer calls
// (same per-strategy means expected, bit for bit).

#include <algorithm>
#include <memory>
#include <sstream>

#include "bench.hpp"
#include "layers.hpp"

namespace perfbench {

using namespace coopcr;

namespace {

constexpr int kGridReplicas = 2;
constexpr int kFallbackReplicas = 2;
constexpr int kSetupRepeats = 3;
constexpr int kOverheadPasses = 2;
constexpr double kRepeatShare = 0.35;
constexpr double kOutOfHullShare = 0.03;
constexpr std::size_t kQueries = 600;
const char* const kRegistrySpec = "fig1";

constexpr int kFallbackThreads = 1;

serve::EngineOptions engine_options() {
  serve::EngineOptions engine;
  engine.fallback_replicas = kFallbackReplicas;
  engine.executor.backend = exp::ExecutorBackend::kInProcess;
  engine.executor.threads = kFallbackThreads;
  return engine;
}

/// The one-point fallback spec the engine builds for bandwidth `gbps`.
exp::ExperimentSpec fallback_spec(double gbps) {
  exp::ExperimentSpec spec =
      exp::build_named_spec(kRegistrySpec, kFallbackReplicas);
  spec.clear_axes();
  spec.named_axis("pfs_bandwidth_gbps", {gbps});
  return spec;
}

/// Rebuild a computed answer's fallback campaign from direct layer calls
/// and compare its per-strategy means with the answer's ranking values.
bool verify_fallback(const std::string& query_text, const std::string& answer,
                     Tracer& tracer, ReplicaWork& work) {
  const serve::AdvisorQuery query = serve::AdvisorQuery::from_json(query_text);
  const exp::ExperimentSpec spec = fallback_spec(query.coords.at(0).second);
  const std::vector<exp::GridPoint> points = spec.expand();
  const MonteCarloReport report =
      rebuild_point(points.at(0), spec.strategy_set(), spec.campaign_options(),
                    0, tracer, work, nullptr);
  const JsonValue doc = JsonValue::parse(answer);
  const std::string& metric = doc.at("metric").as_string();
  exp::Metric metric_id = exp::Metric::kWasteRatio;
  for (const exp::Metric m : exp::all_metrics()) {
    if (exp::metric_name(m) == metric) metric_id = m;
  }
  const auto& ranking = doc.at("ranking").as_array();
  if (ranking.size() != report.outcomes.size()) return false;
  for (const JsonValue& entry : ranking) {
    const StrategyOutcome& o =
        report.outcome(entry.at("strategy").as_string());
    if (!same_bits(exp::metric_samples(o, metric_id).mean(),
                   entry.at("value").as_double())) {
      return false;
    }
  }
  return true;
}

}  // namespace

Outcome run_advisor_mix(const Options& opt) {
  Outcome out;
  add_build_context(out.context);
  out.context.add_number("fallback_threads", kFallbackThreads);
  out.context.add_number("grid_replicas", kGridReplicas);
  out.context.add_number("fallback_replicas", kFallbackReplicas);
  out.context.add_number("client_concurrency", 1);

  serve::AdvisorOptions advisor_options;
  advisor_options.engine = engine_options();

  // Set-up: build the registry grid, emit its JSON artifact, ingest it
  // into a fresh advisor. It runs kSetupRepeats times before the first
  // repetition and once before every later one, so the median of its times
  // spans the whole run rather than one burst of host contention.
  EndToEnd e2e;
  std::unique_ptr<serve::Advisor> advisor;
  exp::ExperimentReport grid;
  std::string grid_json;
  const auto set_up = [&] {
    advisor.reset();
    const auto t0 = Clock::now();
    advisor = std::make_unique<serve::Advisor>(advisor_options);
    grid = exp::SweepRunner(kFallbackThreads).run(
        exp::build_named_spec(kRegistrySpec, kGridReplicas));
    std::ostringstream json;
    grid.write_json(json);
    grid_json = json.str();
    advisor->ingest_text(grid_json, kRegistrySpec);
    e2e.setup_s.push_back(seconds_between(t0, Clock::now()));
  };
  for (int i = 0; i < kSetupRepeats; ++i) set_up();

  const std::vector<StreamQuery> stream = make_query_stream(
      derive_seed(opt.seed, 0), grid.name,
      {{"pfs_bandwidth_gbps", 40.0, 160.0, 170.0, 230.0}}, kQueries,
      kRepeatShare, kOutOfHullShare);

  // The stream is replayed against a freshly set-up advisor until the
  // measured time is up; repetition 0 is checked answer by answer, later
  // repetitions against repetition 0's bytes.
  StreamResult first;
  RepeatedTimes query_times;
  double busy_s = 0.0;
  double cpu_s = 0.0;
  std::size_t reps = 0;
  while (reps == 0 || busy_s < opt.seconds) {
    if (reps > 0) set_up();
    const double cpu0 = cpu_seconds();
    StreamResult result =
        run_query_stream(*advisor, stream, opt.inject_mismatch && reps == 0);
    cpu_s += cpu_seconds() - cpu0;
    busy_s += result.wall_s;
    query_times.add(result.latency_ms);
    out.attempted += result.latency_ms.size();
    if (reps == 0) {
      out.failed += result.failed;
      first = std::move(result);
    } else {
      for (std::size_t i = 0; i < kQueries; ++i) {
        if (result.answers[i] != first.answers[i]) ++out.failed;
      }
    }
    ++reps;
  }
  const double cpu_per_wall = cpu_s / busy_s;

  const std::vector<double> query_ms = query_times.per_op(0.9);
  double by_source[3] = {0.0, 0.0, 0.0};
  double fallback_s = 0.0;
  double query_s = 0.0;
  for (std::size_t i = 0; i < kQueries; ++i) {
    by_source[first.source[i]] += 1.0;
    if (first.source[i] == kFallback) fallback_s += query_ms[i] * 1e-3;
    query_s += query_ms[i] * 1e-3;
  }
  out.context.add_number("queries_cache_hit", by_source[kCacheHit]);
  out.context.add_number("queries_interpolated", by_source[kInterpolated]);
  out.context.add_number("queries_fallback", by_source[kFallback]);
  out.context.add_number("cpu_per_wall", cpu_per_wall);
  e2e.repetitions = reps;
  e2e.replicas_per_s = by_source[kFallback] * kFallbackReplicas / fallback_s;
  e2e.time_to_ci_s = fallback_s / by_source[kFallback];
  e2e.query_p50_ms = quantile(query_ms, 0.50);
  e2e.query_p99_ms = quantile(query_ms, 0.99);
  e2e.queries_per_s = static_cast<double>(kQueries) / query_s;
  e2e.query_samples = kQueries;

  if (!opt.trace) {
    set_end_to_end(e2e, out);
    return out;
  }

  // --- traced run: per-layer metrics ----------------------------------------
  Tracer tracer(true);
  Metrics& m = out.metrics;
  serve::GridStore store;
  const auto g0 = Clock::now();
  {
    auto span = tracer.span("serve.ingest");
    store.ingest_text(grid_json, kRegistrySpec);
  }
  const double ingest_ms = ms_between(g0, Clock::now());

  const StreamResult traced = run_traced_query_stream(
      store, engine_options(), advisor_options.cache_capacity, stream, tracer);
  out.attempted += kQueries;
  out.failed += traced.failed;
  for (std::size_t i = 0; i < kQueries; ++i) {
    if (traced.answers[i] != first.answers[i]) ++out.failed;
  }

  // Fallback campaigns rebuilt from direct layer calls.
  ReplicaWork work;
  for (std::size_t i = 0; i < kQueries; ++i) {
    if (traced.source[i] != kFallback) continue;
    ++out.attempted;
    if (!verify_fallback(stream[i].text, traced.answers[i], tracer, work)) {
      ++out.failed;
    }
  }
  set_replica_metrics(tracer, 0, work, m);

  const Emitted bytes = emit_report(grid, tracer);
  m.set("exp.report_emit_ms", mean(tracer.durations_ms("exp.report_emit")),
        "ms");
  m.set("exp.report_bytes",
        static_cast<double>(bytes.csv.size() + bytes.json.size()), "bytes");

  dist_probe(derive_seed(opt.seed, 998), opt.work_dir, tracer, out);
  set_serve_metrics(tracer, 0, traced, ingest_ms, m);
  // Tracing cost: the same layer-by-layer replay, untraced and traced.
  const auto replay_pass = [&](Tracer& t) {
    return run_traced_query_stream(store, engine_options(),
                                   advisor_options.cache_capacity, stream, t)
        .latency_ms;
  };
  m.set("trace.overhead_ratio",
        tracing_overhead_ratio(kOverheadPasses, replay_pass), "ratio");
  m.set("trace.spans", static_cast<double>(tracer.size()), "count");
  out.notes = self_time_lines(tracer);
  tracer.write_json(opt.work_dir + "/trace_advisor_mix.json");
  return out;
}

}  // namespace perfbench
