// sweep_fig1: the Figure 1 bandwidth sweep as a fixed-count, closed-loop
// batch on one thread.
//
// Each batch is one run of a freshly constructed exp::SweepRunner(1) over
// the Figure 1 bandwidth axis (40..160 GB/s) on cielo_apex at 2 y node
// MTBF, on the shortened 10-day horizon, with all seven paper strategies
// and kReplicasPerPoint replicas per point. Every batch runs the same spec,
// seeded once from --seed, so every batch does identical work; a fresh
// runner per batch keeps any state a runner carries from answering a later
// batch. The next batch starts when the previous one returns. A "query"
// here is one grid point's answer: the time between consecutive
// SweepRunner::on_point callbacks, which fire as each point's replicas
// finish.
//
// Output check: every batch's report must be complete and finite. Batch 0
// is rebuilt replica by replica from direct layer calls — waste ratios must
// match bit for bit and the rebuilt report must emit the same CSV and JSON
// bytes — and every later batch must emit batch 0's bytes.

#include <cmath>

#include "bench.hpp"
#include "layers.hpp"

namespace perfbench {

using namespace coopcr;

namespace {

constexpr int kReplicasPerPoint = 6;
constexpr int kSetupRepeats = 5;
constexpr int kOverheadPasses = 7;
const std::vector<double> kBandwidthsGbps = {40, 60, 80, 100, 120, 140, 160};

exp::ExperimentSpec fig1_spec(std::uint64_t seed, int replicas) {
  MonteCarloOptions options;
  options.replicas = replicas;
  exp::ExperimentSpec spec(ScenarioBuilder::cielo_apex(seed)
                               .node_mtbf(units::years(2))
                               .min_makespan(units::days(10))
                               .segment(units::days(1), units::days(9)),
                           "sweep_fig1");
  spec.pfs_bandwidth_axis(kBandwidthsGbps)
      .strategies(paper_strategies())
      .options(options);
  return spec;
}

/// Replica tasks of `report` whose outputs are missing or non-finite.
std::uint64_t incomplete_tasks(const exp::ExperimentReport& report,
                               std::size_t points, std::size_t strategies,
                               int replicas) {
  std::uint64_t bad = 0;
  for (std::size_t p = 0; p < points; ++p) {
    bool ok = p < report.points.size() &&
              report.points[p].report.outcomes.size() == strategies;
    for (std::size_t s = 0; ok && s < strategies; ++s) {
      const SampleSet& w = report.points[p].report.outcomes[s].waste_ratio;
      ok = w.size() == static_cast<std::size_t>(replicas);
      for (std::size_t r = 0; ok && r < w.size(); ++r) {
        ok = std::isfinite(w.samples()[r]) && w.samples()[r] >= 0.0;
      }
    }
    if (!ok) bad += static_cast<std::uint64_t>(replicas);
  }
  return bad;
}

/// Rebuild every replica of `timed` from direct layer calls; returns the
/// replica tasks whose waste ratios differ (or 1 when only the emitted
/// bytes differ).
std::uint64_t verify_batch(const exp::ExperimentSpec& spec,
                           const exp::ExperimentReport& timed,
                           const Emitted& timed_bytes, Tracer& tracer,
                           ReplicaWork& work,
                           std::vector<PointPhases>& phases,
                           bool inject_mismatch) {
  std::vector<exp::GridPoint> points = spec.expand();
  std::vector<MonteCarloReport> reports;
  std::uint64_t failed = 0;
  phases.resize(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    const std::size_t mark = tracer.size();
    std::vector<UnitRecord> rebuilt;
    reports.push_back(rebuild_point(points[p], spec.strategy_set(),
                                    spec.campaign_options(),
                                    static_cast<std::uint32_t>(p), tracer,
                                    work, &rebuilt));
    phases[p].label = points[p].label();
    accumulate_phases(phases[p], tracer, mark, rebuilt.size());
    if (inject_mismatch && p == 0) {
      double& w = rebuilt.front().slot.per_strategy.front().waste_ratio;
      w = std::nextafter(w, 1e300);
    }
    const auto& outcomes = timed.points[p].report.outcomes;
    for (const UnitRecord& unit : rebuilt) {
      bool same = true;
      for (std::size_t s = 0; s < outcomes.size(); ++s) {
        same = same &&
               same_bits(unit.slot.per_strategy[s].waste_ratio,
                         outcomes[s].waste_ratio.samples()[unit.replica]);
      }
      if (!same) ++failed;
    }
  }
  const Emitted rebuilt_bytes = emit_report(
      assemble_report(timed, std::move(points), std::move(reports)), tracer);
  if (failed == 0 && !(rebuilt_bytes == timed_bytes)) failed = 1;
  return failed;
}

}  // namespace

Outcome run_sweep_fig1(const Options& opt) {
  Outcome out;
  add_build_context(out.context);
  out.context.add_number("threads", 1);
  out.context.add_number("replicas_per_point", kReplicasPerPoint);
  out.context.add_number("grid_points",
                         static_cast<double>(kBandwidthsGbps.size()));
  const std::size_t strategies = paper_strategies().size();
  const int tasks_per_batch =
      kReplicasPerPoint * static_cast<int>(kBandwidthsGbps.size());

  // Set-up: a runner plus a one-replica warm-up sweep of the grid. It is
  // sampled kSetupRepeats times before the measured batches and once after
  // each, so its median spans the whole run rather than one burst of host
  // contention.
  EndToEnd e2e;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    exp::SweepRunner(1).run(
        fig1_spec(derive_seed(opt.seed, 1000 + e2e.setup_s.size()), 1));
    e2e.setup_s.push_back(seconds_between(t0, Clock::now()));
  };
  for (int i = 0; i < kSetupRepeats; ++i) set_up();

  // Every batch runs the same spec on a fresh runner; batch 0 is checked
  // against direct layer calls, later batches against batch 0's bytes.
  const exp::ExperimentSpec spec =
      fig1_spec(derive_seed(opt.seed, 0), kReplicasPerPoint);
  Tracer tracer(opt.trace);
  ReplicaWork work;
  std::vector<PointPhases> phases;
  Emitted first_bytes;
  RepeatedTimes point_times;
  double timed_s = 0.0;
  const double cpu0 = cpu_seconds();
  const auto loop0 = Clock::now();
  for (std::uint64_t b = 0;; ++b) {
    exp::SweepRunner runner(1);
    std::vector<double> point_ms;
    auto last = Clock::now();
    runner.on_point([&](const exp::GridPoint&, const MonteCarloReport&) {
      const auto now = Clock::now();
      point_ms.push_back(ms_between(last, now));
      last = now;
    });
    const auto t0 = last;
    const exp::ExperimentReport report = runner.run(spec);
    timed_s += seconds_between(t0, Clock::now());
    point_times.add(point_ms);

    out.attempted += static_cast<std::uint64_t>(tasks_per_batch);
    const std::uint64_t incomplete = incomplete_tasks(
        report, kBandwidthsGbps.size(), strategies, kReplicasPerPoint);
    out.failed += incomplete;
    if (b == 0) {
      first_bytes = emit_report(report, tracer);
      if (incomplete == 0) {
        out.failed += verify_batch(spec, report, first_bytes, tracer, work,
                                   phases, opt.inject_mismatch);
      }
    } else if (incomplete == 0 &&
               !(emit_report(report, tracer) == first_bytes)) {
      out.failed += static_cast<std::uint64_t>(tasks_per_batch);
    }
    set_up();
    if (timed_s >= opt.seconds) break;
  }
  const double cpu_per_wall =
      (cpu_seconds() - cpu0) / seconds_between(loop0, Clock::now());
  out.context.add_number("cpu_per_wall", cpu_per_wall);

  e2e.repetitions = static_cast<std::size_t>(out.attempted) /
                    static_cast<std::size_t>(tasks_per_batch);
  // A sweep's time is the sum of its points' answer times.
  const std::vector<double> answer_ms = point_times.per_op(0.9);
  double sweep_s = 0.0;
  for (const double ms : answer_ms) sweep_s += ms * 1e-3;
  e2e.replicas_per_s = tasks_per_batch / sweep_s;
  e2e.time_to_ci_s = sweep_s;
  e2e.query_p50_ms = quantile(answer_ms, 0.50);
  e2e.query_p99_ms = quantile(answer_ms, 0.99);
  e2e.queries_per_s = static_cast<double>(answer_ms.size()) / sweep_s;
  e2e.query_samples = answer_ms.size();
  if (!opt.trace) {
    set_end_to_end(e2e, out);
    return out;
  }

  // --- traced run: per-layer metrics ----------------------------------------
  Metrics& m = out.metrics;
  set_replica_metrics(tracer, 0, work, m);
  const std::vector<double> emit = tracer.durations_ms("exp.report_emit");
  m.set("exp.report_emit_ms", mean(emit), "ms");
  m.set("exp.report_bytes",
        static_cast<double>(first_bytes.csv.size() + first_bytes.json.size()),
        "bytes");

  dist_probe(derive_seed(opt.seed, 998), opt.work_dir, tracer, out);
  serve_probe(derive_seed(opt.seed, 999), tracer, out);

  // Tracing cost: the same direct rebuild of every grid point, untraced
  // and traced.
  const std::vector<exp::GridPoint> points = spec.expand();
  const auto rebuild_pass = [&](Tracer& t) {
    ReplicaWork scratch;
    std::vector<double> point_ms;
    for (const exp::GridPoint& point : points) {
      const auto t0 = Clock::now();
      rebuild_point(point, spec.strategy_set(), spec.campaign_options(), 0, t,
                    scratch, nullptr);
      point_ms.push_back(ms_between(t0, Clock::now()));
    }
    return point_ms;
  };
  m.set("trace.overhead_ratio",
        tracing_overhead_ratio(kOverheadPasses, rebuild_pass), "ratio");
  m.set("trace.spans", static_cast<double>(tracer.size()), "count");
  out.notes = phase_lines(phases);
  for (const std::string& line : self_time_lines(tracer)) {
    out.notes.push_back(line);
  }
  tracer.write_json(opt.work_dir + "/trace_sweep_fig1.json");
  return out;
}

}  // namespace perfbench
