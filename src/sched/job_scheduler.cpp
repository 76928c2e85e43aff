#include "sched/job_scheduler.hpp"

#include <algorithm>

namespace coopcr {

JobScheduler::JobScheduler(NodePool& pool) : pool_(pool) {}

void JobScheduler::submit(const Job& job) {
  COOPCR_CHECK(job.well_formed(), "scheduler received a malformed job");
  COOPCR_CHECK(job.nodes <= pool_.total(),
               "job larger than the whole platform");
  // Insert before the first entry with strictly lower priority; within a
  // priority band submission order is preserved.
  const auto it =
      std::find_if(pending_.begin(), pending_.end(), [&](const Job& queued) {
        return queued.priority < job.priority;
      });
  const auto index = static_cast<std::size_t>(it - pending_.begin());
  pending_.insert(it, job);
  // A job inserted ahead of pump()'s cursor waits for the next pass.
  if (cursor_ != kIdle && index <= cursor_) ++cursor_;
  ++submitted_;
}

std::int64_t JobScheduler::pending_nodes() const {
  std::int64_t sum = 0;
  for (const Job& job : pending_) sum += job.nodes;
  return sum;
}

}  // namespace coopcr
