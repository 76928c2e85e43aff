#include "core/accounting.hpp"

#include "util/error.hpp"

namespace coopcr {

std::string to_string(TimeCategory category) {
  switch (category) {
    case TimeCategory::kUsefulCompute:
      return "useful-compute";
    case TimeCategory::kUsefulIo:
      return "useful-io";
    case TimeCategory::kIoDilation:
      return "io-dilation";
    case TimeCategory::kCheckpoint:
      return "checkpoint";
    case TimeCategory::kBlockedWait:
      return "blocked-wait";
    case TimeCategory::kRecovery:
      return "recovery";
    case TimeCategory::kLostWork:
      return "lost-work";
    case TimeCategory::kCount:
      break;
  }
  return "?";
}

bool is_waste(TimeCategory category) {
  switch (category) {
    case TimeCategory::kUsefulCompute:
    case TimeCategory::kUsefulIo:
      return false;
    case TimeCategory::kIoDilation:
    case TimeCategory::kCheckpoint:
    case TimeCategory::kBlockedWait:
    case TimeCategory::kRecovery:
    case TimeCategory::kLostWork:
      return true;
    case TimeCategory::kCount:
      break;
  }
  return false;
}

Accounting::Accounting(sim::Time segment_start, sim::Time segment_end)
    : start_(segment_start), end_(segment_end) {
  COOPCR_CHECK(segment_start >= 0.0 && segment_start < segment_end,
               "invalid measurement segment");
}

double Accounting::total(TimeCategory category) const {
  COOPCR_CHECK(category != TimeCategory::kCount, "invalid category");
  return totals_[static_cast<std::size_t>(category)];
}

double Accounting::wasted() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < totals_.size(); ++i) {
    if (is_waste(static_cast<TimeCategory>(i))) sum += totals_[i];
  }
  return sum;
}

double Accounting::useful() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < totals_.size(); ++i) {
    if (!is_waste(static_cast<TimeCategory>(i))) sum += totals_[i];
  }
  return sum;
}

double Accounting::accounted() const { return useful() + wasted(); }

double EnergyBreakdown::joules(TimeCategory category) const {
  COOPCR_CHECK(category != TimeCategory::kCount, "invalid category");
  return per_category[static_cast<std::size_t>(category)];
}

double EnergyBreakdown::useful() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < per_category.size(); ++i) {
    if (!is_waste(static_cast<TimeCategory>(i))) sum += per_category[i];
  }
  return sum;
}

double EnergyBreakdown::wasted() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < per_category.size(); ++i) {
    if (is_waste(static_cast<TimeCategory>(i))) sum += per_category[i];
  }
  return sum;
}

double EnergyBreakdown::total() const { return useful() + wasted(); }

EnergyModel::EnergyModel(const PowerProfile& profile) : profile_(profile) {
  profile_.validate();
}

double EnergyModel::watts_for(TimeCategory category) const {
  switch (category) {
    case TimeCategory::kUsefulCompute:
    case TimeCategory::kLostWork:  // re-execution is compute
      return profile_.compute_watts;
    case TimeCategory::kUsefulIo:
    case TimeCategory::kIoDilation:  // stretched transfer stays in I/O mode
      return profile_.io_watts;
    case TimeCategory::kCheckpoint:
    case TimeCategory::kRecovery:  // symmetric commit/restart transfers
      return profile_.checkpoint_watts;
    case TimeCategory::kBlockedWait:
      return profile_.idle_watts;
    case TimeCategory::kCount:
      break;
  }
  COOPCR_CHECK(false, "invalid category");
  return 0.0;  // unreachable
}

EnergyBreakdown EnergyModel::breakdown(const Accounting& accounting) const {
  EnergyBreakdown energy;
  for (std::size_t i = 0; i < energy.per_category.size(); ++i) {
    const auto category = static_cast<TimeCategory>(i);
    energy.per_category[i] = accounting.total(category) * watts_for(category);
  }
  return energy;
}

}  // namespace coopcr
