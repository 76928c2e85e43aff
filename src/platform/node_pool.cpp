#include "platform/node_pool.hpp"

#include <algorithm>
#include <cstddef>

#include "util/error.hpp"

namespace coopcr {

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

NodePool::Held::Held(JobId owner, const Run& run)
    : lo(std::min(run.first, run.last())),
      hi(std::max(run.first, run.last())),
      job(owner),
      step(run.step) {}

std::size_t NodePool::find(JobId job) const {
  std::size_t i = 0;
  while (i < held_.size() && held_[i].job != job) ++i;
  return i;
}

void NodePool::allocate(JobId job, std::int64_t count) {
  COOPCR_CHECK(job >= 0, "invalid job id");
  COOPCR_CHECK(count > 0, "allocation size must be positive");
  COOPCR_CHECK(count <= free_count_, "not enough free nodes");
  COOPCR_CHECK(find(job) == held_.size(), "job already holds an allocation");
  // Pop `count` nodes off the top of the stack: the top run yields its
  // nodes last-to-first, so each popped piece is the run reversed.
  pieces_.clear();
  for (std::int64_t left = count; left > 0;) {
    Run& top = free_.back();
    const std::int64_t take = std::min(left, top.len);
    push_run(pieces_, Run{top.last(), take, -top.step});
    top.len -= take;
    if (top.len == 0) free_.pop_back();
    left -= take;
  }
  for (const Run& run : pieces_) held_.emplace_back(job, run);
  free_count_ -= count;
  ++jobs_;
}

void NodePool::release(JobId job) {
  const std::size_t first = find(job);
  COOPCR_CHECK(first < held_.size(), "job holds no allocation");
  // Push the nodes back in allocation order, as per-node pushes would.
  std::size_t end = first;
  for (; end < held_.size() && held_[end].job == job; ++end) {
    const Run run = held_[end].run();
    push_run(free_, run);
    free_count_ += run.len;
  }
  held_.erase(held_.begin() + static_cast<std::ptrdiff_t>(first),
              held_.begin() + static_cast<std::ptrdiff_t>(end));
  --jobs_;
}

JobId NodePool::owner_of(std::int64_t index) const {
  COOPCR_CHECK(index >= 0 && index < total_, "node index out of range");
  for (const Held& run : held_) {
    if (index >= run.lo && index <= run.hi) return run.job;
  }
  return kNoJob;
}

std::vector<std::int64_t> NodePool::nodes_of(JobId job) const {
  std::vector<std::int64_t> nodes;
  for (std::size_t i = find(job); i < held_.size() && held_[i].job == job;
       ++i) {
    const Run run = held_[i].run();
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
