// coopcr/serve/query_engine.hpp
//
// Answering advisor queries: multilinear interpolation with Monte Carlo
// fallback.
//
// The engine resolves a query against a GridStore grid and, when the query
// point lies inside the grid's convex hull with every needed corner
// ingested, answers by multilinear interpolation over the 2^d cell corners:
// per strategy, value = Σ wᵢ·meanᵢ and — corners being independent
// campaigns — se = sqrt(Σ (wᵢ·seᵢ)²), reported as a 95% normal CI
// half-width (1.96·se). Strategies are ranked best-first in the metric's
// natural direction (waste down, efficiency up).
//
// Queries the grid cannot answer — out of hull, a missing corner, or an
// interpolated CI wider than the confidence gate — fall back to an
// on-demand single-point campaign: the grid's experiment is rebuilt from
// exp::spec_registry (clear_axes + named_axis at the query coordinates, the
// same pure-rebuild contract dist exec workers rely on) and run through an
// exp::SweepExecutor selected by ExecutorOptions, so the fallback scales
// from an in-process thread pool to dist shard workers without the engine
// knowing which. Fallback results are returned (and cached upstream) but
// never ingested back into the store — see grid_store.hpp.

#pragma once

#include <cstdint>
#include <string>

#include "exp/executor.hpp"
#include "serve/grid_store.hpp"
#include "serve/query.hpp"

namespace coopcr::serve {

/// True when `metric` ranks descending (efficiency, utilization); false
/// for the waste/cost metrics where smaller is better.
bool metric_higher_is_better(const std::string& metric);

/// Engine policy knobs.
struct EngineOptions {
  /// Metric used when a query does not name one.
  std::string default_metric = "waste_ratio";

  /// Confidence gate: when > 0 and the interpolated best estimate's 95% CI
  /// half-width exceeds it, the engine recomputes instead of trusting the
  /// interpolation. 0 disables the gate.
  double max_ci_halfwidth = 0.0;

  /// Replicas for fallback campaigns; 0 uses the grid's own replica count.
  int fallback_replicas = 0;

  /// When > 0, fallback campaigns run under sequential stopping: replicas
  /// double (from the fallback count) until every strategy's 95% CI width
  /// is at most this, on whichever backend `executor` selects — the
  /// in-process runner and the dist coordinator follow the same growth
  /// schedule, so the answer bytes do not depend on the backend.
  double fallback_target_ci = 0.0;

  /// Which sweep engine runs fallback campaigns.
  exp::ExecutorOptions executor;
};

/// Stateless per-query evaluation over an immutable GridStore (plus
/// monotonic counters). Not synchronized — serve one query stream.
class QueryEngine {
 public:
  explicit QueryEngine(const GridStore& store, EngineOptions options = {});

  /// Answer one query. Throws coopcr::Error on unresolvable queries: no
  /// such experiment, axis set mismatch, unknown metric, or a fallback
  /// needed for an experiment the spec registry cannot rebuild.
  AdvisorAnswer answer(const AdvisorQuery& query);

  struct Counters {
    std::uint64_t interpolated = 0;    ///< answered from the stored grid
    std::uint64_t computed = 0;        ///< answered by a fallback campaign
    std::uint64_t out_of_hull = 0;     ///< fallbacks: outside the grid hull
    std::uint64_t missing_corner = 0;  ///< fallbacks: unfilled corner cell
    std::uint64_t low_confidence = 0;  ///< fallbacks: CI gate tripped
  };
  const Counters& counters() const { return counters_; }

 private:
  AdvisorAnswer interpolate(const StoredGrid& grid,
                            const std::vector<double>& values,
                            const std::string& metric, bool* out_of_hull,
                            bool* missing_corner) const;
  // `metric_pos` is the metric's position in exp::all_metrics().
  AdvisorAnswer compute(const StoredGrid& grid,
                        const std::vector<double>& values,
                        std::size_t metric_pos);
  void attach_best_periods(const StoredGrid& grid,
                           const std::vector<double>& values,
                           AdvisorAnswer& answer) const;

  const GridStore& store_;
  EngineOptions options_;
  Counters counters_;
};

}  // namespace coopcr::serve
