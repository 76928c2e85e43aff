// perfbench/src/layers.hpp
//
// Per-layer instruments: each one drives a layer through its public
// functions, with a span around every call it times, and doubles as an
// output check for the workload that calls it.
//
//  - rebuild_point: a grid point's Monte Carlo campaign rebuilt from direct
//    WorkloadGenerator::generate / FailureModel::generate /
//    simulate_baseline / simulate calls, installed slot by slot into a
//    MonteCarloCampaign and reduced (core/, workload/, platform/, sim/).
//  - emit_report: ExperimentReport::write_csv + write_json (exp/).
//  - dist_probe: adaptive contrast campaigns through DistSweepRunner, with
//    probe_wire / probe_journal running dist::encode_result /
//    decode_result and JournalWriter::append_record over the slots
//    replay_journal reads back (dist/, core/variance_reduction).
//  - run_query_stream / run_traced_query_stream: the advisor, whole
//    (serve::Advisor::answer_json) or decomposed into AdvisorQuery::from_json,
//    QueryCache, QueryEngine::answer and AdvisorAnswer::to_json (serve/).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "coopcr.hpp"
#include "dist/wire.hpp"

namespace perfbench {

/// Work counts summed over rebuilt replicas, read from SimulationResult.
struct ReplicaWork {
  std::uint64_t replicas = 0;
  double jobs = 0.0;
  double failures = 0.0;
  double events_executed = 0.0;
  double events_scheduled = 0.0;
  double jobs_started = 0.0;
  double restarts = 0.0;
  double io_requests = 0.0;
  double checkpoint_requests = 0.0;
  double checkpoints_completed = 0.0;
};

/// One completed work unit: a replica slot and its grid coordinates.
struct UnitRecord {
  std::uint32_t point = 0;
  std::uint32_t replica = 0;
  coopcr::ReplicaSlot slot;
};

/// Rebuild `point`'s campaign (options.replicas replicas, no antithetic
/// pairing or control variate) from direct layer calls, recording spans
/// core.replica > {workload.generate, platform.failure_trace,
/// core.baseline, core.strategy_run} and core.reduce. Appends every slot to
/// `units` (when non-null) tagged with `point_index`.
coopcr::MonteCarloReport rebuild_point(
    const coopcr::exp::GridPoint& point,
    const std::vector<coopcr::Strategy>& strategies,
    const coopcr::MonteCarloOptions& options, std::uint32_t point_index,
    Tracer& tracer, ReplicaWork& work, std::vector<UnitRecord>* units);

/// A report assembled from rebuilt points, with `like`'s name, axes and
/// replica count.
coopcr::exp::ExperimentReport assemble_report(
    const coopcr::exp::ExperimentReport& like,
    std::vector<coopcr::exp::GridPoint> points,
    std::vector<coopcr::MonteCarloReport> reports);

/// CSV + JSON bytes of a report; span exp.report_emit around both writes.
struct Emitted {
  std::string csv;
  std::string json;
  bool operator==(const Emitted& o) const {
    return csv == o.csv && json == o.json;
  }
};
Emitted emit_report(const coopcr::exp::ExperimentReport& report,
                    Tracer& tracer);

/// Bitwise double equality (NaN-safe, distinguishes -0.0).
bool same_bits(double a, double b);

/// Wire round trip of every unit: spans dist.wire_encode and
/// dist.wire_decode; a decoded frame that re-encodes differently counts as
/// a mismatch.
struct WireStats {
  std::uint64_t frames = 0;
  double frame_bytes = 0.0;
  std::uint64_t mismatches = 0;
};
void probe_wire(const std::vector<UnitRecord>& units, Tracer& tracer,
                WireStats& stats);

/// Append every unit to a fresh journal at `path` (removed afterwards):
/// span dist.journal_append per record. Returns the journal's size in
/// bytes.
std::uint64_t probe_journal(const std::string& path,
                            const coopcr::dist::JournalHeader& header,
                            const std::vector<UnitRecord>& units,
                            Tracer& tracer);

/// Journal header the dist coordinator writes for `spec`.
coopcr::dist::JournalHeader journal_header(
    const coopcr::exp::ExperimentSpec& spec);

// --- advisor -----------------------------------------------------------------

/// One query of a stream. Repeats point at the query they repeat.
struct StreamQuery {
  enum class Kind { kInHull, kRepeat, kOutOfHull };
  Kind kind = Kind::kInHull;
  std::string text;
  std::size_t origin = 0;  ///< repeated query's index (kRepeat only)
};

/// One sweep axis as the query generator sees it: queries in hull draw
/// from (lo, hi); out-of-hull queries draw the first axis from
/// [out_lo, out_hi].
struct QueryAxis {
  std::string name;
  double lo = 0.0;
  double hi = 0.0;
  double out_lo = 0.0;
  double out_hi = 0.0;
};

/// Seeded query stream: distinct in-hull queries, repeats of one of the
/// last 64 queries (re-spelled with the members in another order), and a
/// fixed share of distinct out-of-hull queries.
std::vector<StreamQuery> make_query_stream(std::uint64_t seed,
                                           const std::string& experiment,
                                           const std::vector<QueryAxis>& axes,
                                           std::size_t count,
                                           double repeat_share,
                                           double out_of_hull_share);

/// How the advisor produced an answer (indexes per-source counters).
enum AnswerSource : int { kCacheHit = 0, kInterpolated = 1, kFallback = 2 };

/// Measured answers of a query stream.
struct StreamResult {
  std::vector<double> latency_ms;
  std::vector<AnswerSource> source;
  std::vector<std::string> answers;
  double wall_s = 0.0;  ///< sum of the latencies
  std::uint64_t failed = 0;
  std::uint64_t out_of_hull = 0;  ///< fallbacks caused by out-of-hull points
};

/// Output check of one answer: it must parse, and a repeat must return the
/// first answer's exact bytes. Returns true when the answer passes.
bool check_answer(const std::vector<StreamQuery>& stream, std::size_t i,
                  const std::vector<std::string>& answers);

/// Closed loop through serve::Advisor::answer_json, untraced: each query
/// is sent when the previous answer arrived.
StreamResult run_query_stream(coopcr::serve::Advisor& advisor,
                              const std::vector<StreamQuery>& stream,
                              bool inject_mismatch);

/// The same loop decomposed into the advisor's layers, with spans
/// serve.parse, serve.cache_hit / serve.cache_miss, serve.interpolate /
/// serve.fallback and serve.render.
StreamResult run_traced_query_stream(
    const coopcr::serve::GridStore& store,
    const coopcr::serve::EngineOptions& engine_options,
    std::size_t cache_capacity, const std::vector<StreamQuery>& stream,
    Tracer& tracer);

/// Serve-layer metrics of a traced stream (the serve.* per-layer set).
void set_serve_metrics(const Tracer& tracer, std::size_t from,
                       const StreamResult& result, double ingest_ms,
                       Metrics& metrics);

/// Dist- and variance-reduction-layer probe run by every traced run:
/// sequential-stopping paired-contrast campaigns through
/// dist::DistSweepRunner (fork workers, journal on), each checked
/// byte-for-byte against the in-process runner, their journals replayed
/// through the wire codec and appended to a fresh journal. Adds the dist.*
/// and vr.* metrics and the campaigns' units and checks to `out`.
void dist_probe(std::uint64_t seed, const std::string& work_dir,
                Tracer& tracer, Outcome& out);

/// Serve-layer probe for workloads that do not serve queries themselves:
/// the registry "demo" grid at 2 replicas, ingested, then a fixed
/// 120-query traced stream (10% out of hull, fallbacks in-process on one
/// thread). Adds the serve.* metrics and the answers' checks to `out`.
void serve_probe(std::uint64_t seed, Tracer& tracer, Outcome& out);

// --- per-layer metric assembly -----------------------------------------------

/// Replica-phase and simulator-count metrics from the spans recorded since
/// `from` and the counts in `work`.
void set_replica_metrics(const Tracer& tracer, std::size_t from,
                         const ReplicaWork& work, Metrics& metrics);

/// Replica-phase totals of one grid point, accumulated across campaigns
/// (the per-grid-point breakdown printed by traced runs).
struct PointPhases {
  std::string label;
  std::uint64_t replicas = 0;
  std::uint64_t campaigns = 0;
  double generate_ms = 0.0;
  double failure_trace_ms = 0.0;
  double baseline_ms = 0.0;
  double strategy_run_ms = 0.0;
  double reduce_ms = 0.0;
};
/// Add the replica-phase spans recorded since `from` (one rebuilt campaign
/// of `replicas` replicas) to `phases`.
void accumulate_phases(PointPhases& phases, const Tracer& tracer,
                       std::size_t from, std::uint64_t replicas);
/// Table lines, ms per replica (reduce: ms per campaign).
std::vector<std::string> phase_lines(const std::vector<PointPhases>& points);

/// Self-time table lines of a tracer.
std::vector<std::string> self_time_lines(const Tracer& tracer);

}  // namespace perfbench
