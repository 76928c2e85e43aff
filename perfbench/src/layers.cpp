#include "layers.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>

namespace perfbench {

using namespace coopcr;

MonteCarloReport rebuild_point(const exp::GridPoint& point,
                               const std::vector<Strategy>& strategies,
                               const MonteCarloOptions& options,
                               std::uint32_t point_index, Tracer& tracer,
                               ReplicaWork& work,
                               std::vector<UnitRecord>* units) {
  COOPCR_CHECK(!options.antithetic && !options.control_variate,
               "rebuild_point covers plain (unpaired, no control variate) "
               "campaigns only");
  const ScenarioConfig& sc = point.scenario;
  MonteCarloCampaign campaign(sc, strategies, options);
  const sim::Time stop =
      std::min(sc.simulation.horizon, sc.simulation.segment_end);
  const auto add_counts = [&work](const SimulationResult& r) {
    work.events_executed += static_cast<double>(r.events);
    work.events_scheduled += static_cast<double>(r.events_scheduled);
    work.jobs_started += static_cast<double>(r.counters.jobs_started);
    work.restarts += static_cast<double>(r.counters.restarts_submitted);
    work.io_requests += static_cast<double>(r.counters.io_requests);
  };

  for (int t = 0; t < campaign.tasks(); ++t) {
    auto replica_span = tracer.span("core.replica");
    // The same draws, in the same order, as MonteCarloCampaign's replica
    // task: replica t's stream feeds the workload, then the failure trace.
    Rng rng = Rng::stream(sc.seed, static_cast<std::uint64_t>(t));
    const WorkloadGenerator generator(sc.simulation.classes, sc.platform,
                                      sc.workload);
    std::vector<Job> jobs;
    {
      auto span = tracer.span("workload.generate");
      jobs = generator.generate(rng);
    }
    std::vector<Failure> failures;
    {
      auto span = tracer.span("platform.failure_trace");
      failures = sc.failures.generate(sc.platform, stop, rng);
    }
    SimWorkspace workspace;
    const SimulationResult baseline = [&] {
      auto span = tracer.span("core.baseline");
      return simulate_baseline(sc.simulation, jobs, workspace);
    }();
    add_counts(baseline);
    work.jobs += static_cast<double>(jobs.size());
    work.failures += static_cast<double>(failures.size());

    ReplicaSlot slot;
    slot.baseline_useful = baseline.useful;
    slot.baseline_useful_energy = baseline.energy.useful();
    const WorkloadComposition comp = generator.compose(jobs);
    slot.work_total = comp.total_node_seconds;
    slot.work_jobs = static_cast<double>(jobs.size());
    for (const double share : comp.shares) {
      slot.work_max_share = std::max(slot.work_max_share, share);
    }
    for (const Strategy& strategy : strategies) {
      SimulationConfig cfg = sc.simulation;
      cfg.strategy = strategy;
      const SimulationResult result = [&] {
        auto span = tracer.span("core.strategy_run");
        return simulate(cfg, jobs, failures, workspace);
      }();
      add_counts(result);
      work.checkpoint_requests +=
          static_cast<double>(result.counters.checkpoint_requests);
      work.checkpoints_completed +=
          static_cast<double>(result.counters.checkpoints_completed);
      ReplicaStrategyMetrics m;
      m.waste_ratio = result.wasted / slot.baseline_useful;
      m.efficiency = result.useful / slot.baseline_useful;
      m.utilization = result.avg_utilization;
      m.failures_hit = static_cast<double>(result.counters.failures_on_jobs);
      m.checkpoints =
          static_cast<double>(result.counters.checkpoints_completed);
      m.energy_joules = result.energy.total();
      m.energy_waste_ratio =
          result.energy.wasted() / slot.baseline_useful_energy;
      m.ckpt_waste_ratio = result.accounting.total(TimeCategory::kCheckpoint) /
                           slot.baseline_useful;
      slot.per_strategy.push_back(m);
    }
    if (units != nullptr) {
      units->push_back(
          UnitRecord{point_index, static_cast<std::uint32_t>(t), slot});
    }
    campaign.install_slot(t, std::move(slot));
    ++work.replicas;
  }
  auto span = tracer.span("core.reduce");
  return campaign.reduce();
}

exp::ExperimentReport assemble_report(const exp::ExperimentReport& like,
                                      std::vector<exp::GridPoint> points,
                                      std::vector<MonteCarloReport> reports) {
  exp::ExperimentReport report;
  report.name = like.name;
  report.axis_names = like.axis_names;
  report.replicas = like.replicas;
  for (std::size_t p = 0; p < points.size(); ++p) {
    report.points.push_back(
        exp::PointResult{std::move(points[p]), std::move(reports[p])});
  }
  return report;
}

Emitted emit_report(const exp::ExperimentReport& report, Tracer& tracer) {
  std::ostringstream csv;
  std::ostringstream json;
  {
    auto span = tracer.span("exp.report_emit");
    report.write_csv(csv);
    report.write_json(json);
  }
  return Emitted{csv.str(), json.str()};
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void probe_wire(const std::vector<UnitRecord>& units, Tracer& tracer,
                WireStats& stats) {
  // Frame header: u32 payload length + u16 message type (dist/wire.hpp).
  constexpr double kFrameHeaderBytes = 6.0;
  for (const UnitRecord& unit : units) {
    const dist::ResultMsg msg{unit.point, unit.replica, unit.slot};
    std::vector<std::uint8_t> payload;
    {
      auto span = tracer.span("dist.wire_encode");
      payload = dist::encode_result(msg);
    }
    dist::ResultMsg back;
    {
      auto span = tracer.span("dist.wire_decode");
      back = dist::decode_result(payload);
    }
    if (dist::encode_result(back) != payload) ++stats.mismatches;
    ++stats.frames;
    stats.frame_bytes +=
        static_cast<double>(payload.size()) + kFrameHeaderBytes;
  }
}

std::uint64_t probe_journal(const std::string& path,
                            const dist::JournalHeader& header,
                            const std::vector<UnitRecord>& units,
                            Tracer& tracer) {
  std::filesystem::remove(path);
  {
    dist::JournalWriter writer = dist::JournalWriter::create(path, header);
    for (const UnitRecord& unit : units) {
      dist::JournalRecord record;
      record.point = unit.point;
      record.replica = unit.replica;
      record.slot = unit.slot;
      auto span = tracer.span("dist.journal_append");
      writer.append_record(record);
    }
    writer.close();
  }
  const std::uint64_t bytes = std::filesystem::file_size(path);
  std::filesystem::remove(path);
  return bytes;
}

dist::JournalHeader journal_header(const exp::ExperimentSpec& spec) {
  const std::vector<exp::GridPoint> points = spec.expand();
  dist::JournalHeader header;
  header.spec_digest = dist::spec_digest(spec, points);
  header.points = static_cast<std::uint32_t>(points.size());
  header.replicas = static_cast<std::uint32_t>(
      exp::sequential_stopping_start(spec.campaign_options()));
  header.strategies = static_cast<std::uint32_t>(spec.strategy_set().size());
  return header;
}

// --- advisor -----------------------------------------------------------------

namespace {

/// Structured form of a query, so a repeat can be re-spelled.
struct QueryPoint {
  std::vector<double> values;
  std::string metric;
};

std::string spell(const std::string& experiment,
                  const std::vector<QueryAxis>& axes, const QueryPoint& q,
                  bool reversed) {
  std::string coords = "{";
  for (std::size_t k = 0; k < axes.size(); ++k) {
    const std::size_t a = reversed ? axes.size() - 1 - k : k;
    coords += (k ? "," : "") + json_string(axes[a].name) + ":" +
              json_number(q.values[a]);
  }
  coords += "}";
  const std::string exp_member = "\"experiment\":" + json_string(experiment);
  const std::string metric_member = "\"metric\":" + json_string(q.metric);
  if (reversed) {
    return "{" + metric_member + ",\"coords\":" + coords + "," + exp_member +
           "}";
  }
  return "{" + exp_member + ",\"coords\":" + coords + "," + metric_member +
         "}";
}

}  // namespace

std::vector<StreamQuery> make_query_stream(std::uint64_t seed,
                                           const std::string& experiment,
                                           const std::vector<QueryAxis>& axes,
                                           std::size_t count,
                                           double repeat_share,
                                           double out_of_hull_share) {
  static const char* const kMetrics[] = {"waste_ratio", "waste_ratio",
                                         "efficiency", "energy_waste_ratio"};
  Rng rng(seed);
  // Exact shares, in seeded order: the mix of a stream never varies, only
  // which queries land where. The first query cannot be a repeat.
  using Kind = StreamQuery::Kind;
  const auto share = [count](double f) {
    return static_cast<std::size_t>(f * static_cast<double>(count) + 0.5);
  };
  std::vector<Kind> kinds(count, Kind::kInHull);
  std::fill_n(kinds.begin(), share(repeat_share), Kind::kRepeat);
  std::fill_n(kinds.begin() + static_cast<std::ptrdiff_t>(share(repeat_share)),
              share(out_of_hull_share), Kind::kOutOfHull);
  for (std::size_t i = count; i > 1; --i) {
    std::swap(kinds[i - 1], kinds[rng.uniform_index(i)]);
  }
  const auto first_fresh = std::find_if(
      kinds.begin(), kinds.end(), [](Kind k) { return k != Kind::kRepeat; });
  if (first_fresh != kinds.end()) std::iter_swap(kinds.begin(), first_fresh);

  std::vector<StreamQuery> stream;
  std::vector<QueryPoint> points;
  stream.reserve(count);
  points.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    StreamQuery query;
    QueryPoint point;
    query.kind = kinds[i];
    if (query.kind == Kind::kRepeat) {
      const std::size_t window = std::min<std::size_t>(64, i);
      std::size_t origin = i - 1 - rng.uniform_index(window);
      if (stream[origin].kind == Kind::kRepeat) origin = stream[origin].origin;
      query.origin = origin;
      point = points[origin];
      query.text = spell(experiment, axes, point, /*reversed=*/true);
    } else {
      const bool outside = query.kind == Kind::kOutOfHull;
      for (std::size_t a = 0; a < axes.size(); ++a) {
        point.values.push_back(outside && a == 0
                                   ? rng.uniform(axes[a].out_lo, axes[a].out_hi)
                                   : rng.uniform(axes[a].lo, axes[a].hi));
      }
      point.metric = kMetrics[rng.uniform_index(4)];
      query.text = spell(experiment, axes, point, /*reversed=*/false);
    }
    stream.push_back(std::move(query));
    points.push_back(std::move(point));
  }
  return stream;
}

bool check_answer(const std::vector<StreamQuery>& stream, std::size_t i,
                  const std::vector<std::string>& answers) {
  try {
    const JsonValue doc = JsonValue::parse(answers[i]);
    if (doc.at("answer_version").as_int() !=
        serve::AdvisorAnswer::kAnswerVersion) {
      return false;
    }
  } catch (const std::exception&) {
    return false;
  }
  if (stream[i].kind == StreamQuery::Kind::kRepeat) {
    return answers[i] == answers[stream[i].origin];
  }
  return true;
}

StreamResult run_query_stream(serve::Advisor& advisor,
                              const std::vector<StreamQuery>& stream,
                              bool inject_mismatch) {
  StreamResult result;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const serve::AdvisorStats before = advisor.stats();
    std::string answer;
    bool threw = false;
    const auto t0 = Clock::now();
    try {
      answer = advisor.answer_json(stream[i].text);
    } catch (const std::exception&) {
      threw = true;
    }
    const auto t1 = Clock::now();
    const double ms = ms_between(t0, t1);
    result.wall_s += ms * 1e-3;
    result.latency_ms.push_back(ms);
    const serve::AdvisorStats& after = advisor.stats();
    result.source.push_back(
        after.cache_hits > before.cache_hits ? kCacheHit
        : after.computed > before.computed   ? kFallback
                                             : kInterpolated);
    // Test hook: one corrupted answer must surface as a failed operation.
    if (inject_mismatch && i == 0) answer.insert(0, "#");
    result.answers.push_back(std::move(answer));
    if (threw || !check_answer(stream, i, result.answers)) ++result.failed;
  }
  return result;
}

StreamResult run_traced_query_stream(const serve::GridStore& store,
                                     const serve::EngineOptions& engine_options,
                                     std::size_t cache_capacity,
                                     const std::vector<StreamQuery>& stream,
                                     Tracer& tracer) {
  serve::QueryEngine engine(store, engine_options);
  serve::QueryCache cache(cache_capacity);
  StreamResult result;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    std::string rendered;
    AnswerSource source = kInterpolated;
    bool threw = false;
    const auto t0 = Clock::now();
    try {
      serve::AdvisorQuery query;
      {
        auto span = tracer.span("serve.parse");
        query = serve::AdvisorQuery::from_json(stream[i].text);
      }
      bool hit = false;
      std::uint64_t digest = 0;
      {
        auto span = tracer.span("serve.cache_miss");
        digest = query.digest();
        if (const std::string* cached = cache.lookup(digest)) {
          rendered = *cached;
          hit = true;
          span.rename("serve.cache_hit");
        }
      }
      if (hit) {
        source = kCacheHit;
      } else {
        const std::uint64_t computed_before = engine.counters().computed;
        serve::AdvisorAnswer answer;
        {
          auto span = tracer.span("serve.interpolate");
          answer = engine.answer(query);
          if (engine.counters().computed > computed_before) {
            span.rename("serve.fallback");
            source = kFallback;
          }
        }
        {
          auto span = tracer.span("serve.render");
          rendered = answer.to_json();
        }
        cache.insert(digest, rendered);
      }
    } catch (const std::exception&) {
      threw = true;
    }
    const double ms = ms_between(t0, Clock::now());
    result.wall_s += ms * 1e-3;
    result.latency_ms.push_back(ms);
    result.source.push_back(source);
    result.answers.push_back(std::move(rendered));
    if (threw || !check_answer(stream, i, result.answers)) ++result.failed;
  }
  result.out_of_hull = engine.counters().out_of_hull;
  return result;
}

void set_serve_metrics(const Tracer& tracer, std::size_t from,
                       const StreamResult& result, double ingest_ms,
                       Metrics& metrics) {
  const auto us = [](double ms) { return ms * 1e3; };
  double hits = 0.0;
  for (const AnswerSource s : result.source) {
    hits += s == kCacheHit ? 1.0 : 0.0;
  }
  const std::vector<double> interp =
      tracer.durations_ms("serve.interpolate", from);
  const std::vector<double> fallback =
      tracer.durations_ms("serve.fallback", from);
  metrics.set("serve.parse_us",
              us(mean(tracer.durations_ms("serve.parse", from))), "us");
  metrics.set("serve.interpolate_us_p50", us(quantile(interp, 0.5)), "us");
  metrics.set("serve.interpolate_us_p99", us(quantile(interp, 0.99)), "us");
  metrics.set("serve.cache_hit_us_p50",
              us(median(tracer.durations_ms("serve.cache_hit", from))), "us");
  metrics.set("serve.render_us",
              us(mean(tracer.durations_ms("serve.render", from))), "us");
  metrics.set("serve.cache_hit_ratio",
              hits / static_cast<double>(result.source.size()), "ratio");
  metrics.set("serve.fallback_ms_p50", median(fallback), "ms");
  metrics.set("serve.fallback_ms_max", quantile(fallback, 1.0), "ms");
  metrics.set("serve.fallbacks", static_cast<double>(fallback.size()), "count");
  metrics.set("serve.out_of_hull", static_cast<double>(result.out_of_hull),
              "count");
  metrics.set("serve.ingest_ms", ingest_ms, "ms");
}

void serve_probe(std::uint64_t seed, Tracer& tracer, Outcome& out) {
  const exp::ExperimentSpec spec = exp::build_named_spec("demo", 2);
  exp::SweepRunner runner(1);
  std::ostringstream json;
  runner.run(spec).write_json(json);

  const std::size_t from = tracer.size();
  serve::GridStore store;
  const auto t0 = Clock::now();
  {
    auto span = tracer.span("serve.ingest");
    store.ingest_text(json.str(), "demo");
  }
  const double ingest_ms = ms_between(t0, Clock::now());

  serve::EngineOptions engine;
  engine.fallback_replicas = 2;
  engine.executor.threads = 1;
  const std::vector<QueryAxis> axes = {
      {"pfs_bandwidth_gbps", 40.0, 120.0, 130.0, 240.0},
      {"interference_alpha", 0.0, 1.0, 0.0, 1.0}};
  constexpr std::size_t kQueries = 120;
  const std::vector<StreamQuery> stream =
      make_query_stream(seed, spec.name(), axes, kQueries, 0.35, 0.10);
  const StreamResult result =
      run_traced_query_stream(store, engine, 256, stream, tracer);
  set_serve_metrics(tracer, from, result, ingest_ms, out.metrics);
  out.attempted += kQueries;
  out.failed += result.failed;
}

// --- per-layer metric assembly -----------------------------------------------

void set_replica_metrics(const Tracer& tracer, std::size_t from,
                         const ReplicaWork& work, Metrics& metrics) {
  const double n =
      static_cast<double>(std::max<std::uint64_t>(1, work.replicas));
  const double generate = tracer.total_ms("workload.generate", from);
  const double trace = tracer.total_ms("platform.failure_trace", from);
  const double baseline = tracer.total_ms("core.baseline", from);
  const double strategy = tracer.total_ms("core.strategy_run", from);
  const double replica = tracer.total_ms("core.replica", from);
  const std::vector<double> reduce = tracer.durations_ms("core.reduce", from);
  metrics.set("workload.generate_ms", generate / n, "ms");
  metrics.set("platform.failure_trace_ms", trace / n, "ms");
  metrics.set("core.baseline_ms", baseline / n, "ms");
  metrics.set("core.strategy_run_ms", strategy / n, "ms");
  metrics.set("core.strategy_share", replica > 0.0 ? strategy / replica : 0.0,
              "ratio");
  metrics.set("core.reduce_ms", mean(reduce), "ms");
  metrics.set("workload.jobs", work.jobs / n, "count");
  metrics.set("platform.failures", work.failures / n, "count");
  metrics.set("sim.events_executed", work.events_executed / n, "count");
  metrics.set("sim.events_scheduled", work.events_scheduled / n, "count");
  metrics.set("sim.ns_per_event",
              work.events_executed > 0.0
                  ? (baseline + strategy) * 1e6 / work.events_executed
                  : 0.0,
              "ns");
  metrics.set("sched.jobs_started", work.jobs_started / n, "count");
  metrics.set("sched.restarts", work.restarts / n, "count");
  metrics.set("io.requests", work.io_requests / n, "count");
  metrics.set("core.checkpoint_yield",
              work.checkpoint_requests > 0.0
                  ? work.checkpoints_completed / work.checkpoint_requests
                  : 0.0,
              "ratio");
}

void accumulate_phases(PointPhases& phases, const Tracer& tracer,
                       std::size_t from, std::uint64_t replicas) {
  phases.replicas += replicas;
  ++phases.campaigns;
  phases.generate_ms += tracer.total_ms("workload.generate", from);
  phases.failure_trace_ms += tracer.total_ms("platform.failure_trace", from);
  phases.baseline_ms += tracer.total_ms("core.baseline", from);
  phases.strategy_run_ms += tracer.total_ms("core.strategy_run", from);
  phases.reduce_ms += tracer.total_ms("core.reduce", from);
}

std::vector<std::string> phase_lines(const std::vector<PointPhases>& points) {
  std::vector<std::string> lines = {
      "phase point replicas generate_ms failure_trace_ms baseline_ms "
      "strategy_run_ms (per replica) reduce_ms (per campaign)"};
  for (const PointPhases& p : points) {
    const double n =
        static_cast<double>(std::max<std::uint64_t>(1, p.replicas));
    const double c =
        static_cast<double>(std::max<std::uint64_t>(1, p.campaigns));
    char buf[256];
    std::snprintf(buf, sizeof buf, "phase %s %llu %.4f %.4f %.4f %.4f %.4f",
                  p.label.c_str(), static_cast<unsigned long long>(p.replicas),
                  p.generate_ms / n, p.failure_trace_ms / n,
                  p.baseline_ms / n, p.strategy_run_ms / n, p.reduce_ms / c);
    lines.push_back(buf);
  }
  return lines;
}

std::vector<std::string> self_time_lines(const Tracer& tracer) {
  auto self = tracer.self_ms();
  std::sort(self.begin(), self.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::vector<std::string> lines;
  for (const auto& [name, ms] : self) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "self_ms %-24s %12.3f (%zu spans)",
                  name.c_str(), ms, tracer.count(name.c_str()));
    lines.push_back(buf);
  }
  return lines;
}

}  // namespace perfbench
