#include "core/strategy.hpp"

#include <utility>

#include "util/error.hpp"

namespace coopcr {

// --- StrategySpec -----------------------------------------------------------

StrategySpec::StrategySpec()
    : StrategySpec(oblivious_coordination(), daly_period(),
                   period_minus_commit_offset()) {}

StrategySpec::StrategySpec(
    std::shared_ptr<const IoCoordinationPolicy> coordination,
    std::shared_ptr<const CheckpointPeriodPolicy> period,
    std::shared_ptr<const RequestOffsetPolicy> offset,
    std::string display_name)
    : StrategySpec(std::move(coordination), std::move(period),
                   std::move(offset), direct_commit(),
                   std::move(display_name)) {}

StrategySpec::StrategySpec(
    std::shared_ptr<const IoCoordinationPolicy> coordination,
    std::shared_ptr<const CheckpointPeriodPolicy> period,
    std::shared_ptr<const RequestOffsetPolicy> offset,
    std::shared_ptr<const CommitPolicy> commit, std::string display_name)
    : coordination_(std::move(coordination)),
      period_(std::move(period)),
      offset_(std::move(offset)),
      commit_(std::move(commit)),
      display_name_(std::move(display_name)) {
  COOPCR_CHECK(coordination_ != nullptr, "strategy needs a coordination policy");
  COOPCR_CHECK(period_ != nullptr, "strategy needs a period policy");
  COOPCR_CHECK(offset_ != nullptr, "strategy needs a request-offset policy");
  COOPCR_CHECK(commit_ != nullptr, "strategy needs a commit policy");
}

std::string StrategySpec::name() const {
  if (!display_name_.empty()) return display_name_;
  std::string composed = coordination_->name() + "-" + period_->name();
  if (commit_->name() != "direct") {
    composed.append("-").append(commit_->name());
  }
  return composed;
}

StrategySpec StrategySpec::named(std::string display_name) const {
  StrategySpec copy = *this;
  copy.display_name_ = std::move(display_name);
  return copy;
}

StrategySpec StrategySpec::with_commit(
    std::shared_ptr<const CommitPolicy> commit) const {
  COOPCR_CHECK(commit != nullptr, "strategy needs a commit policy");
  StrategySpec copy = *this;
  if (!copy.display_name_.empty()) {
    // Swap the suffix the current commit contributed for the new one, so
    // the name always tells the truth about the commit path — including
    // when a tiered spec is switched back to direct commits.
    const std::string old_suffix = std::string("-").append(commit_->name());
    if (commit_->name() != "direct" &&
        copy.display_name_.size() > old_suffix.size() &&
        copy.display_name_.compare(
            copy.display_name_.size() - old_suffix.size(), old_suffix.size(),
            old_suffix) == 0) {
      copy.display_name_.erase(copy.display_name_.size() - old_suffix.size());
    }
    if (commit->name() != "direct") {
      copy.display_name_.append("-").append(commit->name());
    }
  }
  copy.commit_ = std::move(commit);
  return copy;
}

bool StrategySpec::operator==(const StrategySpec& other) const {
  return coordination_->name() == other.coordination_->name() &&
         period_->name() == other.period_->name() &&
         offset_->name() == other.offset_->name() &&
         commit_->name() == other.commit_->name() && name() == other.name();
}

// --- paper strategy constructors --------------------------------------------

StrategySpec oblivious_fixed(double period_seconds) {
  return {oblivious_coordination(), fixed_period(period_seconds),
          period_minus_commit_offset()};
}

StrategySpec oblivious_daly() {
  return {oblivious_coordination(), daly_period(),
          period_minus_commit_offset()};
}

StrategySpec ordered_fixed(double period_seconds) {
  return {ordered_coordination(), fixed_period(period_seconds),
          period_minus_commit_offset()};
}

StrategySpec ordered_daly() {
  return {ordered_coordination(), daly_period(), period_minus_commit_offset()};
}

StrategySpec ordered_nb_fixed(double period_seconds) {
  return {ordered_nb_coordination(), fixed_period(period_seconds),
          period_minus_commit_offset()};
}

StrategySpec ordered_nb_daly() {
  return {ordered_nb_coordination(), daly_period(),
          period_minus_commit_offset()};
}

StrategySpec least_waste(LeastWasteVariant variant) {
  // "Fixed checkpointing makes little sense in the Least-Waste strategy"
  // (§3.5 footnote): the paper's Least-Waste always uses Daly periods, and
  // its display name drops the period suffix. The non-paper marginal
  // variant keeps its own name so the two never alias.
  const bool paper = variant == LeastWasteVariant::kPaperEq12;
  return StrategySpec{least_waste_coordination(variant), daly_period(),
                      full_period_offset(),
                      paper ? "Least-Waste" : "Least-Waste:marginal"};
}

StrategySpec coop_energy() {
  return StrategySpec{least_waste_coordination(), energy_period(),
                      full_period_offset(), "coop-energy"};
}

const std::vector<StrategySpec>& paper_strategies() {
  static const std::vector<StrategySpec> kStrategies = {
      oblivious_fixed(), oblivious_daly(),  ordered_fixed(), ordered_daly(),
      ordered_nb_fixed(), ordered_nb_daly(), least_waste(),
  };
  return kStrategies;
}

// --- registry ---------------------------------------------------------------

void StrategyRegistry::add(const std::string& name, Factory factory) {
  COOPCR_CHECK(!name.empty(), "strategy name must not be empty");
  COOPCR_CHECK(factory != nullptr, "strategy factory must not be null");
  factories_[name] = std::move(factory);
}

void StrategyRegistry::add(const StrategySpec& spec) {
  add(spec.name(), [spec] { return spec; });
}

bool StrategyRegistry::contains(const std::string& name) const {
  return factories_.count(name) != 0;
}

StrategySpec StrategyRegistry::make(const std::string& name) const {
  const auto it = factories_.find(name);
  COOPCR_CHECK(it != factories_.end(), "unknown strategy name: " + name);
  return it->second();
}

std::vector<std::string> StrategyRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;
}

StrategyRegistry& strategy_registry() {
  static StrategyRegistry* registry = [] {
    auto* r = new StrategyRegistry();
    for (const StrategySpec& s : paper_strategies()) r->add(s);
    // The two non-canonical spellings of the NB variants, kept for CLIs.
    r->add("OrderedNB-Fixed", [] { return ordered_nb_fixed(); });
    r->add("OrderedNB-Daly", [] { return ordered_nb_daly(); });
    // Cooperative coordination with the energy-optimal period (Aupy et al.).
    r->add(coop_energy());
    // "coop-daly" spelling of the paper's cooperative strategy, so the
    // commit-suffix fallback resolves "coop-daly-tiered" and friends.
    r->add("coop-daly", [] { return least_waste(); });
    return r;
  }();
  return *registry;
}

namespace {

/// Non-throwing resolution used by strategy_from_name and its commit-suffix
/// recursion. Returns false when the name matches nothing.
bool try_strategy_from_name(const std::string& name, StrategySpec& out) {
  if (strategy_registry().contains(name)) {
    out = strategy_registry().make(name);
    return true;
  }
  const auto dash = name.rfind('-');
  if (dash == std::string::npos || dash == 0 || dash + 1 >= name.size()) {
    return false;
  }
  const std::string head = name.substr(0, dash);
  const std::string tail = name.substr(dash + 1);
  // Commit-suffix fallback: "<strategy>-<commit>" composes the resolved
  // strategy with the named commit path ("coop-daly-tiered").
  if (commit_registry().contains(tail)) {
    StrategySpec base;
    if (try_strategy_from_name(head, base)) {
      out = base.with_commit(commit_registry().make(tail));
      return true;
    }
  }
  // Compositional fallback: "<coordination>-<period>", split at the last '-'
  // so multi-part coordination names ("Ordered-NB", "Smallest-First") work.
  if (coordination_registry().contains(head) &&
      period_registry().contains(tail)) {
    const auto coordination = coordination_registry().make(head);
    const auto offset =
        offset_registry().make(coordination->default_offset_name());
    out = {coordination, period_registry().make(tail), offset};
    return true;
  }
  return false;
}

}  // namespace

StrategySpec strategy_from_name(const std::string& name) {
  StrategySpec spec;
  COOPCR_CHECK(try_strategy_from_name(name, spec),
               "unknown strategy name: " + name);
  return spec;
}

}  // namespace coopcr
