// coopcr/io/io_subsystem.hpp
//
// Admission layer in front of the shared PFS channel.
//
// Two admission modes realise the paper's strategy families (§3):
//  * kConcurrent (Oblivious): every request starts transferring immediately;
//    the channel's interference model dilates everyone.
//  * kSerial (Ordered / Ordered-NB / Least-Waste): a single I/O token exists;
//    requests queue and a TokenPolicy decides who is granted when the
//    channel frees. Granted requests run alone at full bandwidth.
//
// Whether a *waiting* job keeps computing (non-blocking variants) is the
// simulator's concern; the subsystem only reports when a request starts and
// completes.
//
// Storage: request records live in a free-listed slab. A RequestId packs a
// monotone submission sequence over the slab slot ((seq << 20) | slot+1), so
// ids are O(1) to resolve without hashing *and* numerically ordered by
// submission time — the ordering TokenPolicy tie-breaks rely on.
//
// Notification: the submitter hands each request a 64-bit tag, and the
// subsystem reports the request's start and completion with that tag to the
// one RequestSink it was built (or reset) with. The subsystem is in turn the
// FlowSink of its channel, tagging each flow with the RequestId, so no
// callable is built, moved or stored anywhere on a request's path.

#pragma once

#include <memory>
#include <vector>

#include "io/channel.hpp"
#include "io/request.hpp"
#include "io/token_policy.hpp"
#include "sim/engine.hpp"

namespace coopcr {

/// How requests are admitted to the channel.
enum class AdmissionMode {
  kConcurrent,  ///< Oblivious: no coordination
  kSerial,      ///< one-at-a-time with a token policy
};

/// Receiver of an IoSubsystem's request lifecycle notifications. `tag` is
/// the value given to submit(). A notification runs after the subsystem's
/// state is consistent and may re-enter submit(), cancel() and abort().
class RequestSink {
 public:
  /// Transfer begins (token granted / admitted). Invoked synchronously from
  /// submit() when admission is immediate, otherwise from the grant path.
  virtual void on_request_start(std::uint64_t tag, RequestId id) = 0;
  /// Last byte transferred.
  virtual void on_request_complete(std::uint64_t tag, RequestId id) = 0;

 protected:
  ~RequestSink() = default;
};

/// Aggregate counters for diagnostics and tests.
struct IoSubsystemStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t aborted = 0;
  double total_wait_time = 0.0;      ///< Σ (start - submit) over started requests
  double total_transfer_time = 0.0;  ///< Σ (complete - start)
};

/// The platform's I/O front-end: queue + token + shared channel.
class IoSubsystem final : private FlowSink {
 public:
  /// `sink` receives every request notification (required; must outlive
  /// the run). `policy` is required for kSerial and ignored for kConcurrent.
  IoSubsystem(sim::Engine& engine, RequestSink* sink, double bandwidth,
              AdmissionMode mode,
              InterferenceModel interference = InterferenceModel::kLinear,
              double degradation_alpha = 0.0,
              std::unique_ptr<TokenPolicy> policy = nullptr);

  /// Re-arm for a new run, reporting to `sink`, with fresh parameters,
  /// keeping slab/queue capacity. The engine must already be reset; behaves
  /// bit-identically to constructing a fresh subsystem (same RequestIds,
  /// same order).
  void reset(RequestSink* sink, double bandwidth, AdmissionMode mode,
             InterferenceModel interference, double degradation_alpha,
             std::unique_ptr<TokenPolicy> policy);

  /// Submit a request whose notifications carry `tag`.
  /// `last_checkpoint_end` / `recovery_seconds` feed the Least-Waste
  /// candidate model (ignored by other policies).
  RequestId submit(const IoRequest& request, std::uint64_t tag,
                   sim::Time last_checkpoint_end = 0.0,
                   double recovery_seconds = 0.0);

  /// Withdraw a *pending* request (e.g. a non-blocking checkpoint request
  /// overtaken by job completion). Returns false when the request is already
  /// active or finished.
  bool cancel(RequestId id);

  /// Abort a request in any state (job failure). Active transfers are torn
  /// down without a completion notification. Returns false when unknown.
  bool abort(RequestId id);

  /// State queries.
  bool is_pending(RequestId id) const;
  bool is_active(RequestId id) const;

  /// Submission / grant timestamps (for dilation accounting). Throws when the
  /// request is unknown.
  sim::Time submitted_at(RequestId id) const;
  sim::Time started_at(RequestId id) const;

  std::size_t pending_count() const { return pending_.size(); }
  std::size_t active_count() const { return active_count_; }

  const IoSubsystemStats& stats() const { return stats_; }
  SharedChannel& channel() { return channel_; }
  AdmissionMode mode() const { return mode_; }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  /// Slot bits in a RequestId: up to ~1M concurrently-live requests, with
  /// 44 bits of monotone submission sequence above them.
  static constexpr unsigned kSlotBits = 20;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;

  struct Record {
    RequestId id = kInvalidRequest;  ///< full id; kInvalidRequest when free
    IoRequest request;
    std::uint64_t tag = 0;  ///< the submitter's, echoed in notifications
    sim::Time submitted = 0.0;
    sim::Time started = sim::kTimeNever;
    FlowId flow = kInvalidFlow;
    bool active = false;
    std::uint32_t next_free = kNoSlot;
  };

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);
  /// Slab index of a live request, or kNoSlot for stale/unknown ids.
  std::uint32_t live_slot(RequestId id) const;

  void grant(RequestId id);
  void pump();
  /// FlowSink: a granted request's transfer finished (tag = its RequestId).
  void on_flow_done(std::uint64_t tag) override;

  sim::Engine& engine_;
  RequestSink* sink_;
  SharedChannel channel_;
  AdmissionMode mode_;
  std::unique_ptr<TokenPolicy> policy_;

  std::vector<Record> records_;        ///< free-listed request slab
  std::uint32_t free_head_ = kNoSlot;
  std::vector<PendingEntry> pending_;  ///< arrival-ordered token queue
  std::size_t active_count_ = 0;
  std::uint64_t next_seq_ = 1;
  IoSubsystemStats stats_;
  bool pumping_ = false;
};

}  // namespace coopcr
