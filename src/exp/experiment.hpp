// coopcr/exp/experiment.hpp
//
// Declarative experiment specification.
//
// Every figure and ablation in the paper is a *grid* of Monte Carlo
// campaigns: a base scenario, a handful of swept knobs (PFS bandwidth, node
// MTBF, seed, interference, workload preset), and a set of strategies
// evaluated at every grid point. ExperimentSpec captures exactly that — a
// base ScenarioBuilder plus named sweep axes — and expand() materialises the
// cartesian product into built scenarios. exp::SweepRunner then schedules
// the whole grid onto one shared thread pool.
//
//   exp::ExperimentSpec spec(ScenarioBuilder::cielo_apex()
//                                .node_mtbf(units::years(2)),
//                            "fig1_bandwidth_sweep");
//   spec.pfs_bandwidth_axis({40, 60, 80, 100, 120, 140, 160})
//       .strategies(paper_strategies())
//       .options(MonteCarloOptions::from_env(10));
//   exp::ExperimentReport report = exp::SweepRunner().run(spec);
//
// Axes are applied to the base builder in declaration order, so an axis that
// replaces the whole builder (scenario_axis) should be declared first.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/monte_carlo.hpp"
#include "core/scenario.hpp"

namespace coopcr::exp {

/// One coordinate of a grid point along a sweep axis.
struct AxisCoordinate {
  std::string axis;    ///< axis name, e.g. "pfs_bandwidth_gbps"
  double value = 0.0;  ///< numeric value (the x coordinate in figures)
  std::string label;   ///< human-readable value, e.g. "40"
};

/// A single value of a sweep axis: numeric value, label, and the edit it
/// performs on the scenario builder (may be null for tag-only axes).
struct AxisPoint {
  double value = 0.0;
  std::string label;
  std::function<void(ScenarioBuilder&)> apply;
};

/// A named sweep axis: an ordered list of points.
struct SweepAxis {
  std::string name;
  std::vector<AxisPoint> points;
};

/// One fully-specified point of an expanded experiment grid.
struct GridPoint {
  std::size_t index = 0;               ///< row-major index into the grid
  std::vector<AxisCoordinate> coords;  ///< one per axis, in axis order
  ScenarioConfig scenario;             ///< built, classes resolved

  /// Coordinate lookup by axis name; throws coopcr::Error when absent.
  const AxisCoordinate& coord(const std::string& axis) const;

  /// "axis=value" pairs joined with ", " (progress lines, error messages).
  std::string label() const;
};

/// Fluent builder for a sweep experiment: base scenario + axes + strategy
/// set + campaign options.
class ExperimentSpec {
 public:
  ExperimentSpec() = default;
  explicit ExperimentSpec(ScenarioBuilder base, std::string name = "experiment");

  ExperimentSpec& name(std::string name);
  const std::string& name() const { return name_; }

  /// Replace the base scenario builder.
  ExperimentSpec& base(ScenarioBuilder base);

  // --- axes ------------------------------------------------------------------

  /// Fully custom axis.
  ExperimentSpec& axis(SweepAxis axis);

  /// Numeric axis: for each value v, `apply(builder, v)` edits the scenario.
  ExperimentSpec& axis(const std::string& name,
                       const std::vector<double>& values,
                       std::function<void(ScenarioBuilder&, double)> apply);

  /// Aggregated PFS bandwidth in GB/s ("pfs_bandwidth_gbps").
  ExperimentSpec& pfs_bandwidth_axis(const std::vector<double>& gbps);

  /// Per-node MTBF in years ("node_mtbf_years").
  ExperimentSpec& node_mtbf_axis(const std::vector<double>& years);

  /// Master replication seed ("seed"); labels render in hex.
  ExperimentSpec& seed_axis(const std::vector<std::uint64_t>& seeds);

  /// PFS interference model ("interference_alpha"): alpha 0 selects the
  /// paper's linear sharing, alpha > 0 the adversarial degrading model.
  ExperimentSpec& interference_axis(const std::vector<double>& alphas);

  /// I/O-to-compute power ratio ("io_power_ratio"): for each ratio r the
  /// scenario's I/O and checkpoint draws become r × the compute draw
  /// (ScenarioBuilder::io_power_ratio) — the fig4 energy trade-off sweep.
  ExperimentSpec& energy_axis(const std::vector<double>& io_to_compute_ratios);

  /// Per-node power cap in watts ("power_cap_watts"): every draw of the
  /// scenario's PowerProfile is clamped to the cap.
  ExperimentSpec& power_cap_axis(const std::vector<double>& watts);

  /// Burst-buffer capacity factor ("bb_capacity_factor"): for each factor f
  /// the fast tier holds f × the workload's checkpoint working set
  /// (ScenarioBuilder::bb_capacity_factor). Factor 0 degrades tiered
  /// strategies bit-identically to direct commits. The base builder must
  /// carry a bb_bandwidth (or sweep one with bb_bandwidth_axis).
  ExperimentSpec& bb_capacity_axis(const std::vector<double>& factors);

  /// Burst-buffer bandwidth in GB/s ("bb_bandwidth_gbps"):
  /// ScenarioBuilder::bb_bandwidth per point.
  ExperimentSpec& bb_bandwidth_axis(const std::vector<double>& gbps);

  /// Re-declare one of the *named numeric* axes by its column name
  /// ("pfs_bandwidth_gbps", "node_mtbf_years", "interference_alpha",
  /// "io_power_ratio", "power_cap_watts", "bb_capacity_factor",
  /// "bb_bandwidth_gbps"). This is how a caller that only knows an
  /// artifact's axis *names* — the serve/ advisor rebuilding a registry
  /// spec at a query point — re-applies the same scenario edits at new
  /// values. Throws coopcr::Error on axis names with no numeric
  /// re-application rule ("seed", scenario and custom axes).
  ExperimentSpec& named_axis(const std::string& name,
                             const std::vector<double>& values);

  /// The base scenario with each named numeric axis applied at one value,
  /// in the given order, built: the scenario a one-point grid of
  /// named_axis declarations would expand to, without declaring them
  /// (declared axes are ignored). The serve/ advisor calls this per query
  /// on a spec it built once at ingest. Throws coopcr::Error on an axis
  /// name named_axis rejects or when the scenario fails validation.
  ScenarioConfig scenario_at(const std::vector<std::string>& names,
                             const std::vector<double>& values) const;

  /// Drop every declared axis (base scenario, strategy set and options
  /// stay). The advisor's fallback path turns a swept registry spec into a
  /// single-point grid this way before re-declaring each axis at the query
  /// coordinate.
  ExperimentSpec& clear_axes();

  /// Whole-scenario axis (workload/platform presets): each point replaces
  /// the base builder, so it must be the *first* declared axis (enforced) —
  /// later value axes then apply on top of the preset. Values are the
  /// preset indices 0..n-1.
  ExperimentSpec& scenario_axis(
      const std::string& name,
      std::vector<std::pair<std::string, ScenarioBuilder>> presets);

  const std::vector<SweepAxis>& axes() const { return axes_; }

  // --- strategy set and campaign options -------------------------------------

  /// Strategies evaluated at every grid point.
  ExperimentSpec& strategies(std::vector<Strategy> set);
  /// Registry-resolved convenience (strategy_from_name per name).
  ExperimentSpec& strategy_names(const std::vector<std::string>& names);
  const std::vector<Strategy>& strategy_set() const { return strategies_; }

  /// Monte Carlo options for every grid point's campaign. Note: when run
  /// through SweepRunner, `threads` is governed by the runner's pool.
  ExperimentSpec& options(const MonteCarloOptions& options);
  ExperimentSpec& replicas(int n);
  const MonteCarloOptions& campaign_options() const { return options_; }

  // --- expansion --------------------------------------------------------------

  /// Number of grid points: product of axis sizes; 1 when no axes are
  /// declared (the base scenario alone); 0 when any axis is empty.
  std::size_t grid_size() const;

  /// Materialise the cartesian product (row-major: the first declared axis
  /// varies slowest) into built, validated scenarios. Throws coopcr::Error
  /// when a point fails scenario validation, identifying the point.
  std::vector<GridPoint> expand() const;

 private:
  std::string name_ = "experiment";
  ScenarioBuilder base_;
  std::vector<SweepAxis> axes_;
  std::vector<Strategy> strategies_;
  MonteCarloOptions options_;
};

}  // namespace coopcr::exp
