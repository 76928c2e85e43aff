// coopcr/sched/job_scheduler.hpp
//
// Online greedy first-fit job scheduler (paper §2 "Job Scheduling Model",
// §5 "Job Scheduling").
//
// All jobs are presented (shuffled) at t = 0; whenever nodes free up the
// scheduler scans the pending queue in (priority desc, arrival asc) order and
// starts every job that fits — a "simple, greedy first-fit algorithm".
// Restarted jobs are submitted with the highest priority so they reclaim an
// allocation immediately ("restarted jobs are set to the highest priority").

#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "platform/node_pool.hpp"
#include "util/error.hpp"
#include "workload/job.hpp"

namespace coopcr {

/// Pending-queue manager with first-fit placement.
class JobScheduler {
 public:
  explicit JobScheduler(NodePool& pool);

  /// Add a job to the pending queue. Position honours (priority desc,
  /// submission order asc).
  void submit(const Job& job);

  /// Scan the queue first-fit and start everything that fits, calling
  /// `start(job)` for each; the callee is responsible for the job's
  /// lifecycle from then on (its nodes are already allocated in the pool).
  /// `start` may submit() more jobs: one queued behind the job being started
  /// is scanned in this same pass. Returns the number of jobs started.
  template <typename StartFn>
  std::size_t pump(StartFn&& start) {
    COOPCR_CHECK(cursor_ == kIdle, "pump is not re-entrant");
    std::size_t launched = 0;
    for (cursor_ = 0; cursor_ < pending_.size();) {
      if (!pool_.can_allocate(pending_[cursor_].nodes)) {
        ++cursor_;
        continue;
      }
      const Job job = pending_[cursor_];
      pending_.erase(pending_.begin() +
                     static_cast<std::ptrdiff_t>(cursor_));
      pool_.allocate(job.id, job.nodes);
      ++started_;
      ++launched;
      start(job);
    }
    cursor_ = kIdle;
    return launched;
  }

  std::size_t pending_count() const { return pending_.size(); }
  bool has_pending() const { return !pending_.empty(); }

  /// Sum of node requirements over pending jobs (diagnostics).
  std::int64_t pending_nodes() const;

  /// Total jobs ever submitted / started (diagnostics, tests).
  std::size_t total_submitted() const { return submitted_; }
  std::size_t total_started() const { return started_; }

 private:
  static constexpr std::size_t kIdle = std::numeric_limits<std::size_t>::max();

  NodePool& pool_;
  std::vector<Job> pending_;  ///< in scan order
  std::size_t cursor_ = kIdle;  ///< next index pump() examines
  std::size_t submitted_ = 0;
  std::size_t started_ = 0;
};

}  // namespace coopcr
