// Unit tests for the online first-fit job scheduler.

#include "sched/job_scheduler.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.hpp"

namespace coopcr {
namespace {

Job make_job(JobId id, std::int64_t nodes, int priority = 0) {
  Job j;
  j.id = id;
  j.class_index = 0;
  j.nodes = nodes;
  j.total_work = 100.0;
  j.work_start = 0.0;
  j.input_bytes = 1.0;
  j.output_bytes = 1.0;
  j.checkpoint_bytes = 1.0;
  j.priority = priority;
  j.root = id;
  return j;
}

TEST(Scheduler, StartsJobsThatFit) {
  NodePool pool(10);
  JobScheduler sched(pool);
  sched.submit(make_job(1, 4));
  sched.submit(make_job(2, 4));
  std::vector<JobId> started;
  sched.pump([&](const Job& j) { started.push_back(j.id); });
  EXPECT_EQ(started, (std::vector<JobId>{1, 2}));
  EXPECT_EQ(pool.free_count(), 2);
  EXPECT_EQ(sched.pending_count(), 0u);
}

TEST(Scheduler, FirstFitSkipsBlockedJobs) {
  NodePool pool(10);
  JobScheduler sched(pool);
  sched.submit(make_job(1, 8));
  sched.submit(make_job(2, 8));  // does not fit alongside job 1
  sched.submit(make_job(3, 2));  // fits in the gap
  std::vector<JobId> started;
  sched.pump([&](const Job& j) { started.push_back(j.id); });
  EXPECT_EQ(started, (std::vector<JobId>{1, 3}));
  EXPECT_EQ(sched.pending_count(), 1u);
  EXPECT_EQ(sched.pending_nodes(), 8);
}

TEST(Scheduler, HigherPriorityScansFirst) {
  NodePool pool(8);
  JobScheduler sched(pool);
  sched.submit(make_job(1, 8, 0));
  sched.submit(make_job(2, 8, 1));  // restart-priority job
  std::vector<JobId> started;
  sched.pump([&](const Job& j) { started.push_back(j.id); });
  // Priority 1 wins the scan even though it was submitted later.
  EXPECT_EQ(started, (std::vector<JobId>{2}));
}

TEST(Scheduler, FcfsWithinSamePriority) {
  NodePool pool(4);
  JobScheduler sched(pool);
  sched.submit(make_job(1, 4, 0));
  sched.submit(make_job(2, 4, 0));
  std::vector<JobId> started;
  sched.pump([&](const Job& j) { started.push_back(j.id); });
  EXPECT_EQ(started, (std::vector<JobId>{1}));
}

TEST(Scheduler, PumpAfterReleaseStartsNext) {
  NodePool pool(4);
  JobScheduler sched(pool);
  sched.submit(make_job(1, 4));
  sched.submit(make_job(2, 4));
  std::vector<JobId> started;
  auto start = [&](const Job& j) { started.push_back(j.id); };
  sched.pump(start);
  EXPECT_EQ(started.size(), 1u);
  pool.release(1);
  sched.pump(start);
  EXPECT_EQ(started, (std::vector<JobId>{1, 2}));
}

TEST(Scheduler, PumpAllocatesBeforeCallback) {
  NodePool pool(4);
  JobScheduler sched(pool);
  sched.submit(make_job(1, 3));
  sched.pump([&](const Job& j) {
    EXPECT_EQ(pool.nodes_of(j.id).size(), 3u);
    EXPECT_EQ(pool.owner_of(pool.nodes_of(j.id)[0]), j.id);
  });
}

TEST(Scheduler, SubmitFromStartCallbackKeepsScanOrder) {
  NodePool pool(10);
  JobScheduler sched(pool);
  sched.submit(make_job(1, 2));
  sched.submit(make_job(2, 2));
  std::vector<JobId> started;
  const auto start = [&](const Job& j) {
    started.push_back(j.id);
    if (j.id != 1) return;
    // Queued ahead of the scan position: waits for the next pass.
    sched.submit(make_job(3, 2, 1));
    // Queued behind it: started in this same pass.
    sched.submit(make_job(4, 2));
  };
  EXPECT_EQ(sched.pump(start), 3u);
  EXPECT_EQ(started, (std::vector<JobId>{1, 2, 4}));
  EXPECT_EQ(sched.pending_count(), 1u);
  sched.pump(start);
  EXPECT_EQ(started, (std::vector<JobId>{1, 2, 4, 3}));
}

TEST(Scheduler, CountsSubmittedAndStarted) {
  NodePool pool(4);
  JobScheduler sched(pool);
  sched.submit(make_job(1, 2));
  sched.submit(make_job(2, 4));
  sched.pump([](const Job&) {});
  EXPECT_EQ(sched.total_submitted(), 2u);
  EXPECT_EQ(sched.total_started(), 1u);
}

TEST(Scheduler, RejectsMalformedJob) {
  NodePool pool(4);
  JobScheduler sched(pool);
  Job bad = make_job(1, 2);
  bad.total_work = 0.0;
  EXPECT_THROW(sched.submit(bad), Error);
}

TEST(Scheduler, RejectsJobLargerThanPlatform) {
  NodePool pool(4);
  JobScheduler sched(pool);
  EXPECT_THROW(sched.submit(make_job(1, 5)), Error);
}

TEST(Scheduler, ManyPrioritiesOrderedCorrectly) {
  NodePool pool(1);
  JobScheduler sched(pool);
  sched.submit(make_job(1, 1, 0));
  sched.submit(make_job(2, 1, 5));
  sched.submit(make_job(3, 1, 3));
  sched.submit(make_job(4, 1, 5));
  std::vector<JobId> started;
  auto start = [&](const Job& j) { started.push_back(j.id); };
  for (int i = 0; i < 4; ++i) {
    sched.pump(start);
    if (!started.empty()) pool.release(started.back());
  }
  // Expect priority order 5,5 (FCFS among equals), 3, 0.
  EXPECT_EQ(started, (std::vector<JobId>{2, 4, 3, 1}));
}

}  // namespace
}  // namespace coopcr
