// coopcr/core/accounting.hpp
//
// Node-time accounting (paper §5, "Method of statistics collection").
//
// Every unit-second spent by an allocated job is classified into one of the
// categories below; intervals are clipped to the measurement segment before
// accumulation. The waste ratio reported by the benches is
//
//     waste ratio = wasted unit-seconds / baseline useful unit-seconds
//
// where the baseline is the fault-free, checkpoint-free, interference-free
// run over the same job list ("the resource waste over a segment of 60 days
// divided by the application resource usage over that same segment for the
// baseline simulation", §6.1).

#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "platform/platform.hpp"
#include "sim/time.hpp"
#include "util/error.hpp"

namespace coopcr {

/// Classification of one unit-second of an allocated node.
enum class TimeCategory : int {
  kUsefulCompute = 0,  ///< first-time execution of application work
  kUsefulIo = 1,       ///< input/output/routine I/O, interference-free share
  kIoDilation = 2,     ///< transfer time beyond the interference-free duration
  kCheckpoint = 3,     ///< checkpoint commit (transfer at the job's side)
  kBlockedWait = 4,    ///< idle wait for the I/O token / contended channel
  kRecovery = 5,       ///< recovery (restart) read after a failure
  kLostWork = 6,       ///< re-execution of work already performed before a failure
  kCount = 7,
};

/// Human-readable category name.
std::string to_string(TimeCategory category);

/// True when the category counts toward the waste ratio numerator.
bool is_waste(TimeCategory category);

/// Segment-clipped accumulator of unit-seconds per category.
class Accounting {
 public:
  /// Measurement window [segment_start, segment_end].
  Accounting(sim::Time segment_start, sim::Time segment_end);

  /// Accumulate `nodes` units spending [from, to) in `category`; the
  /// interval is clipped to the segment. `from <= to` is required. Inline:
  /// every simulated transfer and compute span ends in a call.
  void add(std::int64_t nodes, TimeCategory category, sim::Time from,
           sim::Time to) {
    COOPCR_CHECK(nodes > 0, "accounting needs a positive node count");
    COOPCR_CHECK(category != TimeCategory::kCount, "invalid category");
    COOPCR_CHECK(to >= from, "accounting interval reversed");
    const sim::Time lo = std::max(from, start_);
    const sim::Time hi = std::min(to, end_);
    if (hi <= lo) return;
    totals_[static_cast<std::size_t>(category)] +=
        static_cast<double>(nodes) * (hi - lo);
  }

  /// Unit-seconds recorded in `category`.
  double total(TimeCategory category) const;

  /// Sum of the waste categories (checkpoint, wait, dilation, recovery,
  /// lost work).
  double wasted() const;

  /// Sum of the useful categories (compute + I/O).
  double useful() const;

  /// Everything recorded (useful + waste).
  double accounted() const;

  sim::Time segment_start() const { return start_; }
  sim::Time segment_end() const { return end_; }
  double segment_length() const { return end_ - start_; }

 private:
  sim::Time start_;
  sim::Time end_;
  std::array<double, static_cast<std::size_t>(TimeCategory::kCount)> totals_{};
};

/// Per-category joules of one run: the energy twin of Accounting. The
/// useful/wasted split mirrors is_waste(), so the energy-waste ratio is
/// defined exactly like the time one — wasted joules over the baseline's
/// useful joules.
struct EnergyBreakdown {
  std::array<double, static_cast<std::size_t>(TimeCategory::kCount)>
      per_category{};

  /// Joules recorded in `category`.
  double joules(TimeCategory category) const;

  /// Sum over the useful categories (compute + I/O).
  double useful() const;

  /// Sum over the waste categories.
  double wasted() const;

  /// Everything (useful + wasted).
  double total() const;
};

/// Maps unit-seconds per TimeCategory to joules through a PowerProfile:
/// every allocated node draws the profile wattage of its current activity —
/// compute power while computing (and while re-executing lost work), I/O
/// power during transfers (and their dilation), checkpoint power during
/// commits and recovery reads, idle power while blocked on the token.
class EnergyModel {
 public:
  EnergyModel() = default;
  explicit EnergyModel(const PowerProfile& profile);

  /// Per-node draw (watts) while in `category`.
  double watts_for(TimeCategory category) const;

  /// Joules per category for the accumulated unit-seconds.
  EnergyBreakdown breakdown(const Accounting& accounting) const;

 private:
  PowerProfile profile_;
};

}  // namespace coopcr
