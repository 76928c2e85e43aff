// coopcr/io/channel.hpp
//
// Shared-bandwidth transfer channel: the time-shared PFS of the model
// (paper §2, "Computational Platform Model").
//
// Interference models:
//  * kLinear (the paper's): the aggregated bandwidth B is split among the k
//    active flows proportionally to the node count of each flow's job —
//    rate_i = B * q_i / Σ_j q_j. Global throughput stays B.
//  * kNone (baseline runs): no contention — every flow proceeds at the full
//    bandwidth B regardless of concurrency (the fault-free, CR-free,
//    interference-free reference of §6.1).
//  * kDegrading (footnote 2's "more adversarial" model): concurrency also
//    degrades the aggregate — B_eff = B / (1 + alpha * (k - 1)), shares still
//    proportional to q_i.
//
// The channel is a processor-sharing queue simulated exactly: on every
// admission/abort/completion the remaining volumes are advanced analytically
// and the next completion event is (re)scheduled. No time-stepping.
//
// Storage: flows live in a free-listed slab addressed by generation-tagged
// FlowIds; the active set is a contiguous admission-ordered index vector and
// the total interference weight is a cached aggregate maintained
// incrementally — admissions and completions touch no hash table and never
// re-sum weights. Each flow caches its rate, recomputed once per membership
// change, so advancing volumes and querying rates do no division.
//
// Notification: each flow carries a caller-chosen 64-bit tag, and a finished
// flow is reported as `FlowSink::on_flow_done(tag)` to the one sink the
// channel was built with; the IoSubsystem in front of the channel is its
// sink in the simulator.

#pragma once

#include <cstdint>
#include <vector>

#include "io/request.hpp"
#include "sim/engine.hpp"

namespace coopcr {

/// Contention model applied to concurrent flows.
enum class InterferenceModel {
  kLinear,     ///< paper model: fair proportional sharing, constant aggregate
  kNone,       ///< no interference (baseline reference runs)
  kDegrading,  ///< adversarial: aggregate shrinks with concurrency
};

/// Generation-tagged identifier of an active flow within one channel.
using FlowId = std::uint64_t;
inline constexpr FlowId kInvalidFlow = 0;

/// Receiver of a channel's completion notifications.
class FlowSink {
 public:
  /// The last byte of the flow started with `tag` was transferred. Runs
  /// after the channel's state is consistent; may start or abort flows on
  /// the notifying channel.
  virtual void on_flow_done(std::uint64_t tag) = 0;

 protected:
  ~FlowSink() = default;
};

/// Processor-sharing bandwidth channel.
class SharedChannel {
 public:
  /// `sink` — receives every completion (required; must outlive the
  /// channel's runs); `bandwidth` — aggregated bytes/s; `alpha` —
  /// degradation coefficient for kDegrading (ignored otherwise).
  SharedChannel(sim::Engine& engine, FlowSink* sink, double bandwidth,
                InterferenceModel model = InterferenceModel::kLinear,
                double alpha = 0.0);

  /// Re-arm for a new run with fresh parameters, keeping slab capacity and
  /// the sink. The engine must already be reset; behaves bit-identically to
  /// constructing a fresh channel.
  void reset(double bandwidth, InterferenceModel model, double alpha);

  /// Admit a flow transferring `volume` bytes with interference weight
  /// `weight` (the job's node count); its completion is reported to the
  /// sink with `tag`. Zero-volume flows complete at the next event dispatch
  /// (still asynchronously). Returns the flow handle.
  FlowId start(double volume, std::int64_t weight, std::uint64_t tag);

  /// Abort an active flow (failure killed the job). No completion is
  /// reported. Returns false if the flow is unknown (already completed).
  bool abort(FlowId id);

  /// Number of currently active flows.
  std::size_t active() const { return active_.size(); }

  /// Instantaneous rate of a flow (bytes/s); 0 for unknown flows.
  double rate_of(FlowId id) const;

  /// Remaining bytes of a flow (advanced to "now"); 0 for unknown flows.
  double remaining_of(FlowId id) const;

  /// Aggregate bytes/s currently being moved.
  double aggregate_rate() const;

  /// Total time during which at least one flow was active.
  double busy_time() const;

  /// Total bytes fully transferred through the channel.
  double bytes_transferred() const { return bytes_done_; }

  double bandwidth() const { return bandwidth_; }
  InterferenceModel model() const { return model_; }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  struct Flow {
    double remaining = 0.0;
    double volume = 0.0;  ///< original request size (for transfer accounting)
    std::int64_t weight = 0;
    /// flow_rate(weight), stored by reschedule(): the membership that
    /// determines it only changes right before a reschedule().
    double rate = 0.0;
    /// remaining / rate, stored by the same reschedule() pass, so picking
    /// the flows due at the next event does not divide a second time.
    double ttf = 0.0;
    std::uint64_t tag = 0;  ///< reported to the sink on completion
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNoSlot;
  };

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);
  /// Slab index of a live flow, or kNoSlot for stale/unknown handles.
  std::uint32_t live_slot(FlowId id) const;
  /// Remove a slot from the admission-ordered active list (order preserved —
  /// completions are reported in admission order, deterministically).
  void deactivate(std::uint32_t index);

  /// Advance all remaining volumes to the current engine time.
  void advance();
  /// Recompute and cache per-flow rates and (re)schedule the next
  /// completion event. Every change to the active set is followed by one.
  void reschedule();
  /// Completion event handler: finish every flow whose volume has drained.
  void on_completion_event();
  /// Per-flow rate for `weight` given the (non-empty) active set.
  double flow_rate(std::int64_t weight) const;

  sim::Engine& engine_;
  FlowSink* sink_;
  double bandwidth_;
  InterferenceModel model_;
  double alpha_;

  std::vector<Flow> slots_;
  std::vector<std::uint32_t> active_;  ///< live slab indices, admission order
  std::uint32_t free_head_ = kNoSlot;
  std::int64_t total_weight_ = 0;  ///< cached Σ weight over active flows
  /// Flows the pending completion event was computed for: they are complete
  /// at that instant by construction, regardless of accumulated double
  /// rounding in remaining-volume updates.
  std::vector<FlowId> expected_done_;
  /// Scratch for on_completion_event: (flow, tag) of each drained flow.
  /// Reused across events — the handler never re-enters itself, and the
  /// sink is only notified after the channel's state is consistent.
  std::vector<std::pair<FlowId, std::uint64_t>> finished_;
  sim::Time last_advance_ = 0.0;
  sim::EventId pending_event_ = sim::kInvalidEventId;

  double busy_accum_ = 0.0;
  double bytes_done_ = 0.0;
};

}  // namespace coopcr
