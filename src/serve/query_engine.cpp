#include "serve/query_engine.hpp"

#include <algorithm>
#include <cmath>

#include "core/simulation.hpp"
#include "core/strategy.hpp"
#include "exp/report.hpp"
#include "exp/spec_registry.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "workload/app_class.hpp"

namespace coopcr::serve {

namespace {

/// 95% two-sided normal quantile — the CI convention the sequential
/// stopping rule already uses.
constexpr double kZ95 = 1.959963984540054;

/// Most checkpoint cycles per job (core checkpoint_cycles) a fallback
/// campaign may simulate. Every registry grid point needs at most ~1.6e3;
/// far outside a grid the count, and the campaign's run time, grows without
/// bound (1.5e7 cycles, minutes of work, at 1e12 GB/s on the demo grid).
constexpr double kMaxFallbackCycles = 1e5;

/// Position of `name` in exp::all_metrics(); throws listing the known
/// metrics when there is none.
std::size_t metric_index(const std::string& name) {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const exp::Metric metric : exp::all_metrics()) {
      names.push_back(exp::metric_name(metric));
    }
    return names;
  }();
  for (std::size_t m = 0; m < kNames.size(); ++m) {
    if (kNames[m] == name) return m;
  }
  std::string known;
  for (const std::string& metric : kNames) {
    if (!known.empty()) known += ", ";
    known += metric;
  }
  throw Error("unknown metric \"" + name + "\" — known metrics: " + known);
}

/// One axis of the interpolation stencil: bracketing value indices and the
/// position within the bracket (value = (1-t)·lo + t·hi).
struct AxisBracket {
  std::size_t lo = 0;
  std::size_t hi = 0;
  double t = 0.0;
};

void sort_ranking(std::vector<StrategyEstimate>& ranking,
                  bool higher_is_better) {
  std::sort(ranking.begin(), ranking.end(),
            [higher_is_better](const StrategyEstimate& a,
                               const StrategyEstimate& b) {
              if (a.value != b.value) {
                return higher_is_better ? a.value > b.value
                                        : a.value < b.value;
              }
              return a.strategy < b.strategy;
            });
}

}  // namespace

bool metric_higher_is_better(const std::string& metric) {
  return metric == "efficiency" || metric == "utilization";
}

QueryEngine::QueryEngine(const GridStore& store, EngineOptions options)
    : store_(store), options_(std::move(options)) {}

AdvisorAnswer QueryEngine::answer(const AdvisorQuery& query) {
  const StoredGrid* grid = nullptr;
  if (query.experiment.empty()) {
    grid = &store_.sole();
  } else {
    grid = store_.find(query.experiment);
    if (grid == nullptr) {
      std::string stored;
      for (const std::string& name : store_.experiments()) {
        if (!stored.empty()) stored += ", ";
        stored += "\"" + name + "\"";
      }
      throw Error("no stored grid for experiment \"" + query.experiment +
                  "\" — stored: " + (stored.empty() ? "none" : stored));
    }
  }

  const std::string& metric =
      query.metric.empty() ? options_.default_metric : query.metric;
  const std::size_t metric_pos = metric_index(metric);  // validate first

  // Re-order the query coordinates into the grid's axis order; every grid
  // axis must be named exactly once and nothing else.
  std::vector<double> values(grid->axes.size(), 0.0);
  std::vector<bool> covered(grid->axes.size(), false);
  for (const auto& [axis, value] : query.coords) {
    const auto it = std::find(grid->axes.begin(), grid->axes.end(), axis);
    COOPCR_CHECK(it != grid->axes.end(),
                 "query coord \"" + axis + "\" is not an axis of \"" +
                     grid->experiment + "\"");
    const std::size_t pos =
        static_cast<std::size_t>(it - grid->axes.begin());
    values[pos] = value;
    covered[pos] = true;
  }
  for (std::size_t a = 0; a < grid->axes.size(); ++a) {
    COOPCR_CHECK(covered[a], "query misses a coord for axis \"" +
                                 grid->axes[a] + "\" of \"" +
                                 grid->experiment + "\"");
  }

  bool out_of_hull = false;
  bool missing_corner = false;
  AdvisorAnswer answer =
      interpolate(*grid, values, metric, &out_of_hull, &missing_corner);

  bool fallback = out_of_hull || missing_corner;
  if (!fallback && options_.max_ci_halfwidth > 0.0 &&
      answer.best().ci_halfwidth > options_.max_ci_halfwidth) {
    ++counters_.low_confidence;
    fallback = true;
  }
  if (out_of_hull) ++counters_.out_of_hull;
  if (missing_corner) ++counters_.missing_corner;

  if (fallback) {
    answer = compute(*grid, values, metric_pos);
    ++counters_.computed;
  } else {
    ++counters_.interpolated;
  }

  answer.experiment = grid->experiment;
  answer.metric = metric;
  answer.higher_is_better = metric_higher_is_better(metric);
  answer.coords.clear();
  answer.coords.reserve(grid->axes.size());
  for (std::size_t a = 0; a < grid->axes.size(); ++a) {
    answer.coords.emplace_back(grid->axes[a], values[a]);
  }
  attach_best_periods(*grid, values, answer);
  return answer;
}

AdvisorAnswer QueryEngine::interpolate(const StoredGrid& grid,
                                       const std::vector<double>& values,
                                       const std::string& metric,
                                       bool* out_of_hull,
                                       bool* missing_corner) const {
  AdvisorAnswer answer;
  answer.source = "interpolated";

  std::vector<AxisBracket> brackets(grid.axes.size());
  for (std::size_t a = 0; a < grid.axes.size(); ++a) {
    const std::vector<double>& axis = grid.axis_values[a];
    const double v = values[a];
    if (axis.empty() || v < axis.front() || v > axis.back()) {
      *out_of_hull = true;
      return answer;
    }
    const auto it = std::lower_bound(axis.begin(), axis.end(), v);
    const std::size_t hi = static_cast<std::size_t>(it - axis.begin());
    AxisBracket& bracket = brackets[a];
    if (*it == v) {
      bracket.lo = bracket.hi = hi;
      bracket.t = 0.0;
    } else {
      bracket.lo = hi - 1;
      bracket.hi = hi;
      bracket.t = (v - axis[bracket.lo]) / (axis[hi] - axis[bracket.lo]);
    }
  }

  // Gather the stencil: up to 2^d corners, zero-weight corners skipped (an
  // on-grid coordinate degenerates that axis to its single exact value).
  struct Corner {
    double weight;
    const exp::LoadedPoint* point;
  };
  const std::size_t n_axes = grid.axes.size();
  std::vector<Corner> corners;
  corners.reserve(std::size_t{1} << std::min<std::size_t>(n_axes, 6));
  std::vector<std::size_t> idx(n_axes);
  for (std::size_t mask = 0; mask < (std::size_t{1} << n_axes); ++mask) {
    double weight = 1.0;
    for (std::size_t a = 0; a < n_axes; ++a) {
      const bool high = (mask >> a) & 1;
      weight *= high ? brackets[a].t : 1.0 - brackets[a].t;
      idx[a] = high ? brackets[a].hi : brackets[a].lo;
    }
    if (weight == 0.0) continue;
    const std::size_t flat = grid.flat_index(idx);
    if (!grid.filled[flat]) {
      *missing_corner = true;
      return answer;
    }
    corners.push_back(Corner{weight, &grid.cells[flat]});
  }

  // Per strategy: value = Σ wᵢ·meanᵢ; corners are independent campaigns, so
  // the interpolated mean's variance is Σ (wᵢ·seᵢ)². Ingest holds every
  // point to the grid's strategy order, so strategy s sits at position s of
  // every corner.
  answer.ranking.reserve(grid.strategies.size());
  for (std::size_t s = 0; s < grid.strategies.size(); ++s) {
    StrategyEstimate estimate;
    estimate.strategy = grid.strategies[s];
    double variance = 0.0;
    for (const Corner& corner : corners) {
      const exp::LoadedStrategy& strat = corner.point->strategies[s];
      const exp::LoadedSummary& summary = strat.metric(metric);
      estimate.value += corner.weight * summary.candle.mean;
      variance += corner.weight * corner.weight * summary.se * summary.se;
    }
    estimate.se = std::sqrt(variance);
    estimate.ci_halfwidth = kZ95 * estimate.se;
    answer.ranking.push_back(std::move(estimate));
  }
  sort_ranking(answer.ranking, metric_higher_is_better(metric));
  return answer;
}

AdvisorAnswer QueryEngine::compute(const StoredGrid& grid,
                                   const std::vector<double>& values,
                                   std::size_t metric_pos) {
  const exp::NamedSpec* entry = grid.plan.entry;
  COOPCR_CHECK(entry != nullptr,
               "query needs a fallback campaign but experiment \"" +
                   grid.experiment +
                   "\" has no spec-registry entry to rebuild from");

  const int replicas = options_.fallback_replicas > 0
                           ? options_.fallback_replicas
                           : grid.replicas;
  exp::ExperimentSpec spec = entry->build(replicas);
  // Refuse a point whose campaign would run for minutes before starting it.
  const SimulationConfig point = spec.scenario_at(grid.axes, values).simulation;
  const double stop_time = std::min(point.horizon, point.segment_end);
  for (const Strategy& strategy : spec.strategy_set()) {
    for (const ClassOnPlatform& cls : point.classes) {
      const double cycles = checkpoint_cycles(strategy, cls, stop_time);
      COOPCR_CHECK(cycles <= kMaxFallbackCycles,
                   "fallback refused: class '" + cls.app.name + "' under " +
                       strategy.name() + " runs " + format_number(cycles, 3) +
                       " checkpoint cycles per job, above the limit of " +
                       format_number(kMaxFallbackCycles, 3));
    }
  }
  spec.clear_axes();
  for (std::size_t a = 0; a < grid.axes.size(); ++a) {
    spec.named_axis(grid.axes[a], {values[a]});
  }
  if (options_.fallback_target_ci > 0.0) {
    MonteCarloOptions mc = spec.campaign_options();
    mc.target_ci_width = options_.fallback_target_ci;
    spec.options(mc);
  }

  const std::unique_ptr<exp::SweepExecutor> executor =
      exp::make_sweep_executor(options_.executor);
  const exp::ExperimentReport report = executor->run(spec);
  COOPCR_CHECK(report.points.size() == 1,
               "fallback campaign produced " +
                   std::to_string(report.points.size()) +
                   " points, expected 1");

  AdvisorAnswer answer;
  answer.source = "computed";
  answer.backend = executor->backend_name();
  const exp::Metric metric_id = exp::all_metrics()[metric_pos];
  for (const StrategyOutcome& outcome :
       report.points.front().report.outcomes) {
    const SampleSet& samples = exp::metric_samples(outcome, metric_id);
    StrategyEstimate estimate;
    estimate.strategy = outcome.strategy.name();
    estimate.value = samples.mean();
    estimate.se = samples.size() >= 2
                      ? samples.stddev() /
                            std::sqrt(static_cast<double>(samples.size()))
                      : 0.0;
    estimate.ci_halfwidth = kZ95 * estimate.se;
    answer.ranking.push_back(std::move(estimate));
  }
  sort_ranking(answer.ranking,
               metric_higher_is_better(exp::metric_name(metric_id)));
  return answer;
}

void QueryEngine::attach_best_periods(const StoredGrid& grid,
                                      const std::vector<double>& values,
                                      AdvisorAnswer& answer) const {
  const AnswerPlan& plan = grid.plan;
  if (answer.ranking.empty() || !plan.spec) return;
  // Best-effort: an unregistered strategy name, or a scenario that fails
  // to build at this point, leaves the periods out rather than failing an
  // otherwise-good answer.
  try {
    const Strategy best = strategy_from_name(answer.ranking.front().strategy);
    const ScenarioConfig scenario = plan.spec->scenario_at(grid.axes, values);
    const std::vector<ClassOnPlatform>& classes = scenario.simulation.classes;
    answer.best_periods.reserve(classes.size());
    for (const ClassOnPlatform& cls : classes) {
      answer.best_periods.push_back(
          AppPeriod{cls.app.name, best.period().period_for(cls)});
    }
  } catch (const Error&) {
    answer.best_periods.clear();
  }
}

}  // namespace coopcr::serve
