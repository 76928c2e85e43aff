#include "platform/node_pool.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace coopcr {

bool NodePool::Run::contains(std::int64_t node) const {
  return step > 0 ? node >= first && node < first + len
                  : node <= first && node > first - len;
}

NodePool::NodePool(std::int64_t node_count) {
  COOPCR_CHECK(node_count > 0, "node pool must have at least one unit");
  total_ = node_count;
  free_count_ = node_count;
  // The free stack holds n-1, ..., 1, 0 from bottom to top, so allocation
  // hands out low indices first (purely cosmetic, but makes traces easy to
  // read).
  free_.push_back(Run{node_count - 1, node_count, -1});
}

void NodePool::push_run(std::vector<Run>& runs, const Run& run) {
  if (!runs.empty()) {
    Run& back = runs.back();
    const std::int64_t step = run.first - back.last();
    if ((step == 1 || step == -1) && (back.len == 1 || back.step == step) &&
        (run.len == 1 || run.step == step)) {
      back.step = step;
      back.len += run.len;
      return;
    }
  }
  runs.push_back(run);
}

std::size_t NodePool::find(JobId job) const {
  std::size_t i = 0;
  while (i < live_ && allocations_[i].job != job) ++i;
  return i;
}

void NodePool::allocate(JobId job, std::int64_t count) {
  COOPCR_CHECK(job >= 0, "invalid job id");
  COOPCR_CHECK(count > 0, "allocation size must be positive");
  COOPCR_CHECK(count <= free_count_, "not enough free nodes");
  COOPCR_CHECK(find(job) == live_, "job already holds an allocation");
  if (live_ == allocations_.size()) allocations_.emplace_back();
  Allocation& alloc = allocations_[live_];
  alloc.job = job;
  alloc.runs.clear();
  // Pop `count` nodes off the top of the stack: the top run yields its
  // nodes last-to-first, so each popped piece is the run reversed.
  for (std::int64_t left = count; left > 0;) {
    Run& top = free_.back();
    const std::int64_t take = std::min(left, top.len);
    push_run(alloc.runs, Run{top.last(), take, -top.step});
    top.len -= take;
    if (top.len == 0) free_.pop_back();
    left -= take;
  }
  free_count_ -= count;
  ++live_;
}

void NodePool::release(JobId job) {
  const std::size_t i = find(job);
  COOPCR_CHECK(i < live_, "job holds no allocation");
  // Push the nodes back in allocation order, as per-node pushes would.
  for (const Run& run : allocations_[i].runs) {
    push_run(free_, run);
    free_count_ += run.len;
  }
  // Swap the slot out of the live prefix; it keeps its run capacity.
  std::swap(allocations_[i], allocations_[live_ - 1]);
  --live_;
}

JobId NodePool::owner_of(std::int64_t index) const {
  COOPCR_CHECK(index >= 0 && index < total_, "node index out of range");
  for (std::size_t i = 0; i < live_; ++i) {
    for (const Run& run : allocations_[i].runs) {
      if (run.contains(index)) return allocations_[i].job;
    }
  }
  return kNoJob;
}

std::vector<std::int64_t> NodePool::nodes_of(JobId job) const {
  std::vector<std::int64_t> nodes;
  const std::size_t i = find(job);
  if (i == live_) return nodes;
  for (const Run& run : allocations_[i].runs) {
    for (std::int64_t k = 0; k < run.len; ++k) {
      nodes.push_back(run.first + k * run.step);
    }
  }
  return nodes;
}

double NodePool::utilization() const {
  return static_cast<double>(allocated_count()) /
         static_cast<double>(total_);
}

}  // namespace coopcr
