#include "exp/experiment.hpp"

#include <sstream>

#include "core/strategy.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace coopcr::exp {

namespace {

/// Short human label for an axis value: up to 6 significant digits,
/// locale-independent ("40", "0.25", "2.5e+07").
std::string value_label(double value) { return format_number(value, 6); }

// The scenario edit of each named numeric axis.
using AxisRule = void (*)(ScenarioBuilder&, double);

void set_pfs_bandwidth(ScenarioBuilder& b, double v) {
  b.pfs_bandwidth(units::gb_per_s(v));
}
void set_node_mtbf(ScenarioBuilder& b, double v) {
  b.node_mtbf(units::years(v));
}
void set_interference(ScenarioBuilder& b, double v) {
  b.interference(
      v == 0.0 ? InterferenceModel::kLinear : InterferenceModel::kDegrading,
      v);
}
void set_io_power_ratio(ScenarioBuilder& b, double v) { b.io_power_ratio(v); }
void set_power_cap(ScenarioBuilder& b, double v) { b.power_cap(v); }
void set_bb_capacity(ScenarioBuilder& b, double v) {
  b.bb_capacity_factor(v);
}
void set_bb_bandwidth(ScenarioBuilder& b, double v) {
  b.bb_bandwidth(units::gb_per_s(v));
}

struct NamedRule {
  const char* name;
  AxisRule apply;
};

constexpr NamedRule kNamedRules[] = {
    {"pfs_bandwidth_gbps", set_pfs_bandwidth},
    {"node_mtbf_years", set_node_mtbf},
    {"interference_alpha", set_interference},
    {"io_power_ratio", set_io_power_ratio},
    {"power_cap_watts", set_power_cap},
    {"bb_capacity_factor", set_bb_capacity},
    {"bb_bandwidth_gbps", set_bb_bandwidth},
};

AxisRule named_rule(const std::string& name) {
  for (const NamedRule& rule : kNamedRules) {
    if (name == rule.name) return rule.apply;
  }
  throw Error("axis \"" + name +
              "\" has no numeric re-application rule — named_axis supports "
              "the built-in value axes only");
}

}  // namespace

const AxisCoordinate& GridPoint::coord(const std::string& axis) const {
  for (const auto& c : coords) {
    if (c.axis == axis) return c;
  }
  COOPCR_CHECK(false, "grid point has no coordinate on axis: " + axis);
  return coords.front();  // unreachable
}

std::string GridPoint::label() const {
  std::ostringstream oss;
  bool first = true;
  for (const auto& c : coords) {
    if (!first) oss << ", ";
    oss << c.axis << "=" << c.label;
    first = false;
  }
  return first ? std::string("base scenario") : oss.str();
}

ExperimentSpec::ExperimentSpec(ScenarioBuilder base, std::string name)
    : name_(std::move(name)), base_(std::move(base)) {}

ExperimentSpec& ExperimentSpec::name(std::string name) {
  name_ = std::move(name);
  return *this;
}

ExperimentSpec& ExperimentSpec::base(ScenarioBuilder base) {
  base_ = std::move(base);
  return *this;
}

ExperimentSpec& ExperimentSpec::axis(SweepAxis axis) {
  COOPCR_CHECK(!axis.name.empty(), "sweep axis needs a name");
  for (const auto& existing : axes_) {
    COOPCR_CHECK(existing.name != axis.name,
                 "duplicate sweep axis: " + axis.name);
  }
  axes_.push_back(std::move(axis));
  return *this;
}

ExperimentSpec& ExperimentSpec::axis(
    const std::string& name, const std::vector<double>& values,
    std::function<void(ScenarioBuilder&, double)> apply) {
  SweepAxis ax;
  ax.name = name;
  ax.points.reserve(values.size());
  for (const double v : values) {
    AxisPoint point;
    point.value = v;
    point.label = value_label(v);
    if (apply) {
      point.apply = [apply, v](ScenarioBuilder& b) { apply(b, v); };
    }
    ax.points.push_back(std::move(point));
  }
  return axis(std::move(ax));
}

ExperimentSpec& ExperimentSpec::pfs_bandwidth_axis(
    const std::vector<double>& gbps) {
  return axis("pfs_bandwidth_gbps", gbps, set_pfs_bandwidth);
}

ExperimentSpec& ExperimentSpec::node_mtbf_axis(
    const std::vector<double>& years) {
  return axis("node_mtbf_years", years, set_node_mtbf);
}

ExperimentSpec& ExperimentSpec::seed_axis(
    const std::vector<std::uint64_t>& seeds) {
  SweepAxis ax;
  ax.name = "seed";
  ax.points.reserve(seeds.size());
  for (const std::uint64_t seed : seeds) {
    AxisPoint point;
    point.value = static_cast<double>(seed);
    std::ostringstream label;
    label << "0x" << std::hex << seed;
    point.label = label.str();
    point.apply = [seed](ScenarioBuilder& b) { b.seed(seed); };
    ax.points.push_back(std::move(point));
  }
  return axis(std::move(ax));
}

ExperimentSpec& ExperimentSpec::interference_axis(
    const std::vector<double>& alphas) {
  return axis("interference_alpha", alphas, set_interference);
}

ExperimentSpec& ExperimentSpec::energy_axis(
    const std::vector<double>& io_to_compute_ratios) {
  return axis("io_power_ratio", io_to_compute_ratios, set_io_power_ratio);
}

ExperimentSpec& ExperimentSpec::power_cap_axis(
    const std::vector<double>& watts) {
  return axis("power_cap_watts", watts, set_power_cap);
}

ExperimentSpec& ExperimentSpec::bb_capacity_axis(
    const std::vector<double>& factors) {
  return axis("bb_capacity_factor", factors, set_bb_capacity);
}

ExperimentSpec& ExperimentSpec::bb_bandwidth_axis(
    const std::vector<double>& gbps) {
  return axis("bb_bandwidth_gbps", gbps, set_bb_bandwidth);
}

ExperimentSpec& ExperimentSpec::named_axis(const std::string& name,
                                           const std::vector<double>& values) {
  return axis(name, values, named_rule(name));
}

ScenarioConfig ExperimentSpec::scenario_at(
    const std::vector<std::string>& names,
    const std::vector<double>& values) const {
  COOPCR_CHECK(names.size() == values.size(),
               "scenario_at needs one value per axis name");
  ScenarioBuilder builder = base_;
  for (std::size_t a = 0; a < names.size(); ++a) {
    named_rule(names[a])(builder, values[a]);
  }
  return builder.build();
}

ExperimentSpec& ExperimentSpec::clear_axes() {
  axes_.clear();
  return *this;
}

ExperimentSpec& ExperimentSpec::scenario_axis(
    const std::string& name,
    std::vector<std::pair<std::string, ScenarioBuilder>> presets) {
  COOPCR_CHECK(axes_.empty(),
               "scenario_axis must be the first declared axis — its presets "
               "replace the whole builder and would silently discard "
               "earlier axes' edits");
  SweepAxis ax;
  ax.name = name;
  ax.points.reserve(presets.size());
  for (std::size_t i = 0; i < presets.size(); ++i) {
    AxisPoint point;
    point.value = static_cast<double>(i);
    point.label = presets[i].first;
    ScenarioBuilder preset = std::move(presets[i].second);
    point.apply = [preset](ScenarioBuilder& b) { b = preset; };
    ax.points.push_back(std::move(point));
  }
  return axis(std::move(ax));
}

ExperimentSpec& ExperimentSpec::strategies(std::vector<Strategy> set) {
  strategies_ = std::move(set);
  return *this;
}

ExperimentSpec& ExperimentSpec::strategy_names(
    const std::vector<std::string>& names) {
  std::vector<Strategy> set;
  set.reserve(names.size());
  for (const auto& name : names) set.push_back(strategy_from_name(name));
  return strategies(std::move(set));
}

ExperimentSpec& ExperimentSpec::options(const MonteCarloOptions& options) {
  options_ = options;
  return *this;
}

ExperimentSpec& ExperimentSpec::replicas(int n) {
  options_.replicas = n;
  return *this;
}

std::size_t ExperimentSpec::grid_size() const {
  std::size_t size = 1;
  for (const auto& ax : axes_) size *= ax.points.size();
  return size;
}

std::vector<GridPoint> ExperimentSpec::expand() const {
  const std::size_t total = grid_size();
  std::vector<GridPoint> points;
  points.reserve(total);
  // Row-major odometer over the axes: the first declared axis varies
  // slowest, matching the nested-loop order of the hand-written benches.
  std::vector<std::size_t> digit(axes_.size(), 0);
  for (std::size_t index = 0; index < total; ++index) {
    GridPoint point;
    point.index = index;
    ScenarioBuilder builder = base_;
    point.coords.reserve(axes_.size());
    for (std::size_t a = 0; a < axes_.size(); ++a) {
      const AxisPoint& ap = axes_[a].points[digit[a]];
      point.coords.push_back(AxisCoordinate{axes_[a].name, ap.value, ap.label});
      if (ap.apply) ap.apply(builder);
    }
    try {
      point.scenario = builder.build();
    } catch (const Error& e) {
      COOPCR_CHECK(false, "experiment \"" + name_ + "\" grid point (" +
                              point.label() + ") failed to build: " + e.what());
    }
    points.push_back(std::move(point));
    // Advance the odometer, last axis fastest.
    for (std::size_t a = axes_.size(); a-- > 0;) {
      if (++digit[a] < axes_[a].points.size()) break;
      digit[a] = 0;
    }
  }
  return points;
}

}  // namespace coopcr::exp
