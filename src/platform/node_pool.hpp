// coopcr/platform/node_pool.hpp
//
// Allocation bookkeeping for the space-shared node partition.
//
// Nodes (failure units) are dedicated to at most one job at a time. The pool
// tracks ownership so a failure strike can be mapped to its victim job, and
// exposes the free count used by the first-fit job scheduler. Failed units
// are assumed to be swapped for hot spares instantly (paper §2: "only one
// node has failed and is replaced by a hot spare"), so the pool size is
// constant for the whole simulation.
//
// Hot path: jobs hold thousands of nodes and, under the §5 restart model,
// every failure strike releases one and re-allocates it at once. The pool
// therefore never touches individual nodes. The LIFO free stack is a short
// list of runs of consecutive node indices, and an allocation is the short
// list of runs it popped off the top. Every live allocation's runs sit in
// one flat list, each as a (lo, hi, job) node range, a job's runs adjacent
// and in allocation order. allocate() splits at most one free run and
// appends, release() pushes the job's runs back (merging adjacent ones) and
// erases them, and owner_of() is one pass over the short flat list, with no
// per-job indirection and no step test. Expanding the runs gives
// exactly the node order of a per-node pop/push free stack, so failure
// victims — and therefore whole simulations — match that implementation
// bit for bit.

#pragma once

#include <cstdint>
#include <vector>

namespace coopcr {

/// Identifier of a job instance within one simulation.
using JobId = std::int64_t;

/// Sentinel for "no job".
inline constexpr JobId kNoJob = -1;

/// Fixed-size pool of failure units with per-unit ownership.
class NodePool {
 public:
  /// Create a pool of `node_count` units, all free.
  explicit NodePool(std::int64_t node_count);

  std::int64_t total() const { return total_; }
  std::int64_t free_count() const { return free_count_; }
  std::int64_t allocated_count() const { return total_ - free_count_; }

  /// True when at least `count` units are free.
  bool can_allocate(std::int64_t count) const { return count <= free_count_; }

  /// Allocate `count` units to `job`. Throws if insufficient units are free
  /// or the job already holds an allocation.
  void allocate(JobId job, std::int64_t count);

  /// Release all units held by `job`. Throws if the job holds none.
  void release(JobId job);

  /// Owner of node `index`, or kNoJob when free.
  JobId owner_of(std::int64_t index) const;

  /// Units currently held by `job`, in allocation order (empty if none).
  std::vector<std::int64_t> nodes_of(JobId job) const;

  /// Number of jobs currently holding allocations.
  std::size_t job_count() const { return jobs_; }

  /// Fraction of units currently allocated, in [0, 1].
  double utilization() const;

 private:
  /// Nodes first, first + step, ..., first + (len - 1) * step; step is ±1.
  struct Run {
    std::int64_t first = 0;
    std::int64_t len = 0;
    std::int64_t step = 1;

    std::int64_t last() const { return first + (len - 1) * step; }
  };

  /// One run of a live allocation: nodes lo..hi, walked upwards when
  /// step > 0 and downwards otherwise.
  struct Held {
    std::int64_t lo = 0;
    std::int64_t hi = 0;
    JobId job = kNoJob;
    std::int64_t step = 1;

    Held(JobId owner, const Run& run);
    Run run() const { return Run{step > 0 ? lo : hi, hi - lo + 1, step}; }
  };

  /// Append `run` to `runs`, merging it into the back run when contiguous.
  static void push_run(std::vector<Run>& runs, const Run& run);

  /// Index of `job`'s first held run, or held_.size() when it holds none.
  std::size_t find(JobId job) const;

  std::int64_t total_ = 0;
  std::int64_t free_count_ = 0;
  std::vector<Run> free_;  ///< free stack, bottom to top
  std::vector<Held> held_;  ///< runs of every live allocation
  std::vector<Run> pieces_;  ///< allocate()'s scratch, kept for capacity
  std::size_t jobs_ = 0;    ///< live allocations
};

}  // namespace coopcr
