// Unit tests for node allocation bookkeeping.

#include "platform/node_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <tuple>
#include <vector>

#include "platform/platform.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace coopcr {
namespace {

TEST(NodePool, StartsAllFree) {
  NodePool pool(10);
  EXPECT_EQ(pool.total(), 10);
  EXPECT_EQ(pool.free_count(), 10);
  EXPECT_EQ(pool.allocated_count(), 0);
  EXPECT_DOUBLE_EQ(pool.utilization(), 0.0);
}

TEST(NodePool, AllocateAndRelease) {
  NodePool pool(10);
  pool.allocate(1, 4);
  EXPECT_EQ(pool.free_count(), 6);
  EXPECT_EQ(pool.nodes_of(1).size(), 4u);
  EXPECT_DOUBLE_EQ(pool.utilization(), 0.4);
  pool.release(1);
  EXPECT_EQ(pool.free_count(), 10);
  EXPECT_TRUE(pool.nodes_of(1).empty());
}

TEST(NodePool, OwnershipIsTracked) {
  NodePool pool(10);
  pool.allocate(7, 3);
  int owned = 0;
  for (std::int64_t n = 0; n < pool.total(); ++n) {
    if (pool.owner_of(n) == 7) ++owned;
  }
  EXPECT_EQ(owned, 3);
  for (const std::int64_t n : pool.nodes_of(7)) {
    EXPECT_EQ(pool.owner_of(n), 7);
  }
}

TEST(NodePool, FreeNodesHaveNoOwner) {
  NodePool pool(5);
  pool.allocate(1, 2);
  int free_nodes = 0;
  for (std::int64_t n = 0; n < pool.total(); ++n) {
    if (pool.owner_of(n) == kNoJob) ++free_nodes;
  }
  EXPECT_EQ(free_nodes, 3);
}

TEST(NodePool, CanAllocateChecksCapacity) {
  NodePool pool(10);
  pool.allocate(1, 7);
  EXPECT_TRUE(pool.can_allocate(3));
  EXPECT_FALSE(pool.can_allocate(4));
}

TEST(NodePool, OverAllocationThrows) {
  NodePool pool(10);
  EXPECT_THROW(pool.allocate(1, 11), Error);
  pool.allocate(1, 10);
  EXPECT_THROW(pool.allocate(2, 1), Error);
}

TEST(NodePool, DoubleAllocationThrows) {
  NodePool pool(10);
  pool.allocate(1, 2);
  EXPECT_THROW(pool.allocate(1, 2), Error);
}

TEST(NodePool, ReleaseWithoutAllocationThrows) {
  NodePool pool(10);
  EXPECT_THROW(pool.release(1), Error);
}

TEST(NodePool, ReallocationAfterReleaseReusesNodes) {
  NodePool pool(4);
  pool.allocate(1, 4);
  pool.release(1);
  pool.allocate(2, 4);
  EXPECT_EQ(pool.free_count(), 0);
  for (std::int64_t n = 0; n < pool.total(); ++n) {
    EXPECT_EQ(pool.owner_of(n), 2);
  }
}

TEST(NodePool, MultipleJobsDisjointNodes) {
  NodePool pool(10);
  pool.allocate(1, 3);
  pool.allocate(2, 3);
  pool.allocate(3, 4);
  EXPECT_EQ(pool.job_count(), 3u);
  EXPECT_EQ(pool.free_count(), 0);
  for (const std::int64_t n : pool.nodes_of(1)) {
    EXPECT_EQ(pool.owner_of(n), 1);
  }
  for (const std::int64_t n : pool.nodes_of(2)) {
    EXPECT_EQ(pool.owner_of(n), 2);
  }
}

TEST(NodePool, InvalidQueriesThrow) {
  NodePool pool(10);
  EXPECT_THROW(pool.owner_of(-1), Error);
  EXPECT_THROW(pool.owner_of(10), Error);
  EXPECT_THROW(NodePool(0), Error);
  EXPECT_THROW(pool.allocate(-1, 1), Error);
  EXPECT_THROW(pool.allocate(1, 0), Error);
}

TEST(NodePool, AcceptsJobIdsAbove32Bits) {
  NodePool pool(10);
  const JobId big = (JobId{1} << 40) + 3;
  pool.allocate(big, 4);
  pool.allocate(big + 1, 2);
  EXPECT_EQ(pool.owner_of(0), big);
  EXPECT_EQ(pool.owner_of(4), big + 1);
  EXPECT_EQ(pool.nodes_of(big), (std::vector<std::int64_t>{0, 1, 2, 3}));
  pool.release(big);
  EXPECT_EQ(pool.owner_of(0), kNoJob);
  EXPECT_EQ(pool.owner_of(4), big + 1);
}

// The per-node LIFO free stack the run-length pool must reproduce exactly:
// allocation pops nodes one by one off the top, release pushes a job's nodes
// back in allocation order.
class ReferencePool {
 public:
  explicit ReferencePool(std::int64_t node_count)
      : owner_(static_cast<std::size_t>(node_count), kNoJob) {
    for (std::int64_t n = node_count - 1; n >= 0; --n) free_.push_back(n);
  }

  std::int64_t free_count() const {
    return static_cast<std::int64_t>(free_.size());
  }

  void allocate(JobId job, std::int64_t count) {
    std::vector<std::int64_t>& nodes = held_[job];
    for (std::int64_t k = 0; k < count; ++k) {
      nodes.push_back(free_.back());
      free_.pop_back();
      owner_[static_cast<std::size_t>(nodes.back())] = job;
    }
  }

  void release(JobId job) {
    for (const std::int64_t n : held_.at(job)) {
      free_.push_back(n);
      owner_[static_cast<std::size_t>(n)] = kNoJob;
    }
    held_.erase(job);
  }

  JobId owner_of(std::int64_t node) const {
    return owner_[static_cast<std::size_t>(node)];
  }

  const std::map<JobId, std::vector<std::int64_t>>& held() const {
    return held_;
  }

 private:
  std::vector<std::int64_t> free_;
  std::vector<JobId> owner_;
  std::map<JobId, std::vector<std::int64_t>> held_;
};

/// (pool size, first job id, stream seed)
using DiffParam = std::tuple<std::int64_t, JobId, std::uint64_t>;

class NodePoolDifferential : public ::testing::TestWithParam<DiffParam> {};

TEST_P(NodePoolDifferential, MatchesPerNodeLifoStack) {
  const auto [size, first_id, seed] = GetParam();
  NodePool pool(size);
  ReferencePool ref(size);
  Rng rng(seed);
  JobId next_id = first_id;

  const auto expect_same_state = [&](int step) {
    ASSERT_EQ(pool.free_count(), ref.free_count()) << "step " << step;
    ASSERT_EQ(pool.job_count(), ref.held().size()) << "step " << step;
    for (const auto& [job, nodes] : ref.held()) {
      ASSERT_EQ(pool.nodes_of(job), nodes) << "step " << step;
    }
    std::vector<JobId> owners;
    std::vector<JobId> ref_owners;
    for (std::int64_t n = 0; n < size; ++n) {
      owners.push_back(pool.owner_of(n));
      ref_owners.push_back(ref.owner_of(n));
    }
    ASSERT_EQ(owners, ref_owners) << "step " << step;
  };
  const auto random_live_job = [&] {
    auto it = ref.held().begin();
    std::advance(it, static_cast<std::ptrdiff_t>(
                         rng.uniform_index(ref.held().size())));
    return it->first;
  };

  for (int step = 0; step < 200; ++step) {
    const double u = rng.uniform();
    if (u < 0.4 && ref.free_count() > 0) {
      // Fresh job: up to half the pool, capped by what is free.
      const auto cap = static_cast<std::uint64_t>(
          std::min(ref.free_count(), size / 2 + 1));
      const auto count = static_cast<std::int64_t>(rng.uniform_index(cap)) + 1;
      pool.allocate(next_id, count);
      ref.allocate(next_id, count);
      ++next_id;
    } else if (u < 0.6 && !ref.held().empty()) {
      const JobId job = random_live_job();
      pool.release(job);
      ref.release(job);
    } else {
      // Restart-shaped: a failure strikes a uniform node; the victim is
      // released and an equally sized restart allocated at once (§5).
      const auto node = static_cast<std::int64_t>(
          rng.uniform_index(static_cast<std::uint64_t>(size)));
      const JobId victim = ref.owner_of(node);
      ASSERT_EQ(pool.owner_of(node), victim) << "step " << step;
      if (victim == kNoJob) continue;
      const auto count =
          static_cast<std::int64_t>(ref.held().at(victim).size());
      pool.release(victim);
      ref.release(victim);
      pool.allocate(next_id, count);
      ref.allocate(next_id, count);
      ++next_id;
    }
    expect_same_state(step);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeededStreams, NodePoolDifferential,
    ::testing::Combine(::testing::Values(std::int64_t{1}, std::int64_t{7},
                                         PlatformSpec::cielo().nodes),
                       ::testing::Values(JobId{0}, (JobId{1} << 33) + 5),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                         std::uint64_t{3})));

}  // namespace
}  // namespace coopcr
