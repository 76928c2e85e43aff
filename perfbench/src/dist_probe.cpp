// The dist and variance-reduction layers, probed from the traced runs of
// every workload.
//
// kCampaigns sequential-stopping paired-contrast campaigns run through
// dist::DistSweepRunner with fork workers and the journal on: a 2 x 2
// bandwidth x interference grid on cielo_apex at 25 y node MTBF (8-day
// horizon), Least-Waste contrasted against the Oblivious-Daly reference,
// replicas starting at kStartReplicas per point and doubling until every
// contrast's 95% CI is at most kTargetCi wide or kMaxReplicas is reached.
// Each unit simulates for about 2 ms, so wire, journal and coordinator
// carry a large share of the wall time.
//
// Output check: each campaign's CSV and JSON must be byte-identical to an
// in-process exp::SweepRunner run of the same spec with as many threads as
// the dist run has workers, and its journal must replay one slot per unit.
// The replayed slots then go through the wire codec and into a fresh
// journal for the dist.wire_* and dist.journal_* metrics.

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "layers.hpp"

namespace perfbench {

using namespace coopcr;

namespace {

constexpr int kCampaigns = 4;
constexpr int kStartReplicas = 8;
constexpr int kMaxReplicas = 64;
constexpr double kTargetCi = 0.06;

exp::ExperimentSpec adaptive_spec(std::uint64_t seed) {
  MonteCarloOptions options;
  options.replicas = kStartReplicas;
  options.target_ci_width = kTargetCi;
  options.max_replicas = kMaxReplicas;
  options.contrast_reference = oblivious_daly().name();
  exp::ExperimentSpec spec(ScenarioBuilder::cielo_apex(seed)
                               .node_mtbf(units::years(25))
                               .min_makespan(units::days(8))
                               .segment(units::days(1), units::days(7)),
                           "adaptive_dist");
  spec.pfs_bandwidth_axis({40, 120})
      .interference_axis({0.0, 1.0})
      .strategies({least_waste(), oblivious_daly()})
      .options(options);
  return spec;
}

}  // namespace

void dist_probe(std::uint64_t seed, const std::string& work_dir,
                Tracer& tracer, Outcome& out) {
  const int workers = std::clamp(online_cpus() - 1, 1, 2);
  out.context.add_number("dist_probe_workers", workers);
  const std::string journal = work_dir + "/dist_probe.journal" + run_tag();
  exp::SweepRunner reference_runner(workers);
  WireStats wire;
  double units = 0.0;
  double journal_bytes = 0.0;
  double dist_s = 0.0;
  double dist_cpu_s = 0.0;
  double in_process_s = 0.0;
  double rounds = 0.0;
  double ci_width_max = 0.0;
  double vr_factor_min = HUGE_VAL;
  for (int c = 0; c < kCampaigns; ++c) {
    const exp::ExperimentSpec spec = adaptive_spec(derive_seed(seed, c));
    std::filesystem::remove(journal);
    dist::DistOptions dist_options;
    dist_options.shards = workers;
    dist_options.journal = journal;
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    const exp::ExperimentReport report =
        dist::DistSweepRunner(dist_options).run(spec);
    dist_s += seconds_between(t0, Clock::now());
    dist_cpu_s += cpu_seconds() - cpu0;

    std::uint64_t campaign_units = 0;
    int max_replicas = 0;
    for (const exp::PointResult& point : report.points) {
      campaign_units += static_cast<std::uint64_t>(point.report.replicas);
      max_replicas = std::max(max_replicas, point.report.replicas);
      for (const StrategyOutcome& o : point.report.outcomes) {
        if (!o.contrast.enabled) continue;
        ci_width_max = std::max(ci_width_max, o.contrast.estimate.ci_width);
        vr_factor_min = std::min(vr_factor_min, o.contrast.estimate.vr_factor);
      }
    }
    units += static_cast<double>(campaign_units);
    rounds += 1.0 + std::log2(static_cast<double>(max_replicas) /
                              static_cast<double>(kStartReplicas));
    out.attempted += campaign_units;

    const auto i0 = Clock::now();
    const exp::ExperimentReport in_process = reference_runner.run(spec);
    in_process_s += seconds_between(i0, Clock::now());
    bool same = emit_report(report, tracer) == emit_report(in_process, tracer);

    const dist::JournalHeader header = journal_header(spec);
    const dist::JournalReplay replay = dist::replay_journal(journal, header);
    std::vector<UnitRecord> slots;
    for (const dist::JournalRecord& record : replay.records) {
      if (record.kind != dist::JournalRecord::Kind::kUnit) continue;
      slots.push_back(UnitRecord{record.point, record.replica, record.slot});
    }
    same = same && slots.size() == campaign_units;
    journal_bytes += static_cast<double>(std::filesystem::file_size(journal));
    std::filesystem::remove(journal);
    probe_wire(slots, tracer, wire);
    probe_journal(work_dir + "/dist_probe.copy.journal" + run_tag(), header,
                  slots, tracer);
    if (!same) out.failed += campaign_units;
  }
  out.failed += wire.mismatches;

  Metrics& m = out.metrics;
  const std::vector<double> append = tracer.durations_ms("dist.journal_append");
  m.set("dist.units", units / kCampaigns, "count");
  m.set("dist.wire_encode_us",
        mean(tracer.durations_ms("dist.wire_encode")) * 1e3, "us");
  m.set("dist.wire_decode_us",
        mean(tracer.durations_ms("dist.wire_decode")) * 1e3, "us");
  m.set("dist.frame_bytes",
        wire.frame_bytes / static_cast<double>(std::max<std::uint64_t>(
                               1, wire.frames)),
        "bytes");
  m.set("dist.journal_append_ms_p50", quantile(append, 0.5), "ms");
  m.set("dist.journal_append_ms_p99", quantile(append, 0.99), "ms");
  m.set("dist.journal_bytes", journal_bytes / kCampaigns, "bytes");
  m.set("dist.overhead_ratio", dist_s / in_process_s, "ratio");
  m.set("dist.cpu_per_wall", dist_cpu_s / dist_s, "ratio");
  m.set("vr.rounds", rounds / kCampaigns, "count");
  m.set("vr.replicas", units / kCampaigns, "count");
  m.set("vr.ci_width_max", ci_width_max, "ratio");
  m.set("vr.factor_min", vr_factor_min, "ratio");
}

}  // namespace perfbench
