// coopcr/serve/grid_store.hpp
//
// In-memory, axis-indexed store of ingested experiment grids.
//
// GridStore ingests ExperimentReport JSON artifacts (exp/report_io.hpp) and
// organises their points into dense grids keyed by experiment name: per
// axis, the sorted unique coordinate values; per cell, the loaded point.
// Ingestion is digest-keyed — the fnv1a64 of the raw artifact text — so
// re-ingesting the same file is a no-op, and artifacts of the same
// experiment merge (a campaign sharded across several emission runs) as
// long as axes and replica counts agree. Points landing on the same cell
// twice with different content are a conflict and throw.
//
// The store is immutable once queries start: the advisor never ingests
// fallback-computed results back into a grid, because a grid that grows
// with the query stream would make interpolation (and the query cache)
// history-dependent. Rebuild artifacts and re-ingest instead.

#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "exp/report_io.hpp"
#include "exp/spec_registry.hpp"

namespace coopcr::serve {

/// What answering a query needs beyond a grid's cells, resolved once:
/// GridStore builds a grid's plan when it creates the grid. The plan
/// depends only on the experiment name, replica count and axes, which every
/// later merge into the grid must match, so queries resolve no registry
/// entry and build no spec of their own.
struct AnswerPlan {
  /// The spec-registry entry the experiment rebuilds from (fallback
  /// campaigns and periods); nullptr when the registry has none.
  const exp::NamedSpec* entry = nullptr;
  /// The entry's spec built at the grid's replica count. Engaged when
  /// checkpoint periods can be attached to answers: the entry exists and
  /// builds, and every grid axis has a named_axis rule. A query builds one
  /// scenario from it (ExperimentSpec::scenario_at).
  std::optional<exp::ExperimentSpec> spec;
  /// Why `spec` is disengaged; empty when it is engaged.
  std::string no_periods;
};

/// One experiment's dense grid of loaded points.
struct StoredGrid {
  std::string experiment;          ///< report name ("sweep_demo")
  int replicas = 0;                ///< per grid point
  std::vector<std::string> axes;   ///< in artifact (declaration) order
  /// Sorted unique coordinate values per axis, parallel to `axes`.
  std::vector<std::vector<double>> axis_values;
  /// Strategy names at every point, in outcome order (validated uniform).
  std::vector<std::string> strategies;
  /// Dense row-major cell storage (last axis varies fastest). Size is the
  /// product of axis_values sizes once the grid is complete.
  std::vector<exp::LoadedPoint> cells;
  /// Parallel to `cells`: true when the cell has been filled.
  std::vector<bool> filled;
  /// Built when the grid is created.
  AnswerPlan plan;

  /// Product of per-axis value counts.
  std::size_t cell_count() const;
  /// Number of filled cells.
  std::size_t point_count() const;
  /// True when every cell of the cartesian product is filled —
  /// interpolation requires this.
  bool complete() const;

  /// Row-major cell index from per-axis value indices.
  std::size_t flat_index(const std::vector<std::size_t>& idx) const;
  /// The filled point at the given per-axis value indices; throws
  /// coopcr::Error on unfilled cells.
  const exp::LoadedPoint& at(const std::vector<std::size_t>& idx) const;
};

/// Digest-keyed ingestion of report artifacts into StoredGrids.
class GridStore {
 public:
  /// Ingest one artifact file. Returns true when the artifact was new,
  /// false when its digest was already present (exact duplicate, no-op).
  /// Throws coopcr::Error on I/O failures, schema_version mismatches,
  /// malformed documents, or grid conflicts (naming the file).
  bool ingest_file(const std::string& path);

  /// Same, from an in-memory document (`label` names it in errors).
  bool ingest_text(const std::string& text, const std::string& label);

  /// Ingest every regular `*.json` file directly under `dir` (sorted by
  /// name, so ingestion order is deterministic). Returns the number of
  /// newly-ingested artifacts.
  std::size_t ingest_dir(const std::string& dir);

  /// The grid for `experiment`, or nullptr when none is stored.
  const StoredGrid* find(const std::string& experiment) const;

  /// The sole stored grid; throws coopcr::Error (listing the stored
  /// experiments) when the store holds zero or several grids — the
  /// resolution for queries that omit "experiment".
  const StoredGrid& sole() const;

  /// Stored experiment names, in first-ingestion order.
  std::vector<std::string> experiments() const;

  std::size_t grid_count() const { return grids_.size(); }
  /// Distinct artifacts ingested (digest count).
  std::size_t artifact_count() const { return digests_.size(); }

 private:
  void merge(const exp::LoadedReport& report, const std::string& label);

  std::vector<StoredGrid> grids_;
  std::set<std::uint64_t> digests_;
};

}  // namespace coopcr::serve
