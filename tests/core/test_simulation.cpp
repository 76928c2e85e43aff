// Behavioural tests of the full discrete-event simulation on small,
// hand-analysable scenarios: checkpoint cadence, blocking vs non-blocking
// waits, failure/restart semantics, snapshot rules, routine I/O, and exact
// waste accounting.

#include "core/simulation.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/daly.hpp"
#include "util/units.hpp"

namespace coopcr {
namespace {

// Toy platform: 10 single-core nodes, 100 B/s PFS, 1000 B memory.
PlatformSpec toy_platform(double mtbf_seconds = 1e9) {
  PlatformSpec p;
  p.name = "toy";
  p.nodes = 10;
  p.cores_per_node = 1;
  p.memory_bytes = 1000.0;
  p.pfs_bandwidth = 100.0;
  p.node_mtbf = mtbf_seconds;
  return p;
}

// A hand-built class: q nodes, given work, checkpoint volume V (C = V/100),
// explicit Daly period override.
ClassOnPlatform toy_class(std::int64_t q, double work, double ckpt_bytes,
                          double daly, double input_bytes = 0.0,
                          double output_bytes = 0.0,
                          double routine_bytes = 0.0,
                          double mtbf_seconds = 1e9) {
  ClassOnPlatform c;
  c.app.name = "toy";
  c.app.workload_share = 0.5;
  c.app.work_seconds = work;
  c.app.cores = q;
  c.app.checkpoint_fraction = 0.5;  // unused; volumes set directly below
  c.nodes = q;
  c.footprint_bytes = 100.0 * static_cast<double>(q);
  c.input_bytes = input_bytes;
  c.output_bytes = output_bytes;
  c.checkpoint_bytes = ckpt_bytes;
  c.routine_io_bytes = routine_bytes;
  c.checkpoint_seconds = ckpt_bytes / 100.0;
  c.recovery_seconds = c.checkpoint_seconds;
  c.mtbf = mtbf_seconds / static_cast<double>(q);
  c.daly_period = daly;
  return c;
}

Job job_of(const ClassOnPlatform& cls, JobId id, double work) {
  Job j;
  j.id = id;
  j.class_index = 0;
  j.nodes = cls.nodes;
  j.total_work = work;
  j.work_start = 0.0;
  j.input_bytes = cls.input_bytes;
  j.output_bytes = cls.output_bytes;
  j.checkpoint_bytes = cls.checkpoint_bytes;
  j.routine_io_bytes = cls.routine_io_bytes;
  j.priority = 0;
  j.root = id;
  return j;
}

SimulationConfig toy_config(const ClassOnPlatform& cls,
                            const StrategySpec& strategy,
                            double segment_end = 1e6,
                            double mtbf_seconds = 1e9) {
  SimulationConfig cfg;
  cfg.platform = toy_platform(mtbf_seconds);
  cfg.classes = {cls};
  cfg.strategy = strategy;
  cfg.segment_start = 0.0;
  cfg.segment_end = segment_end;
  cfg.horizon = segment_end;
  return cfg;
}

const StrategySpec& obl_daly() {
  static const StrategySpec s = oblivious_daly();
  return s;
}
const StrategySpec& ord_daly() {
  static const StrategySpec s = ordered_daly();
  return s;
}
const StrategySpec& nb_daly() {
  static const StrategySpec s = ordered_nb_daly();
  return s;
}
const StrategySpec& lw() {
  static const StrategySpec s = least_waste();
  return s;
}

// ---------------------------------------------------------------------------
// Checkpoint cadence in a failure-free, interference-free single-job run.
// ---------------------------------------------------------------------------

TEST(Simulation, DalyCadenceFailureFree) {
  // q = 10, work 1000 s, V = 500 B -> C = 5 s, P = 105 s: requests every
  // P - C = 100 s of compute; 9 commits (the 10th collides with completion),
  // job ends at 1000 + 9*5 = 1045 s.
  const auto cls = toy_class(10, 1000.0, 500.0, 105.0);
  const auto cfg = toy_config(cls, obl_daly());
  const auto result = simulate(cfg, {job_of(cls, 0, 1000.0)}, {});
  EXPECT_EQ(result.counters.jobs_completed, 1u);
  EXPECT_EQ(result.counters.checkpoints_completed, 9u);
  EXPECT_EQ(result.counters.failures_total, 0u);
  EXPECT_DOUBLE_EQ(result.accounting.total(TimeCategory::kUsefulCompute),
                   10000.0);
  EXPECT_DOUBLE_EQ(result.accounting.total(TimeCategory::kCheckpoint),
                   9.0 * 5.0 * 10.0);
  EXPECT_DOUBLE_EQ(result.accounting.total(TimeCategory::kBlockedWait), 0.0);
  EXPECT_DOUBLE_EQ(result.accounting.total(TimeCategory::kLostWork), 0.0);
  EXPECT_DOUBLE_EQ(result.wasted, 450.0);
  EXPECT_DOUBLE_EQ(result.useful, 10000.0);
}

TEST(Simulation, FixedCadenceUsesConfiguredPeriod) {
  // Fixed period 200 s, C = 5 s: requests every 195 s of compute -> commits
  // after 195, 390, ... work; 1000 s of work -> 5 checkpoints.
  const auto cls = toy_class(10, 1000.0, 500.0, 105.0);
  auto cfg = toy_config(cls, oblivious_fixed(/*period_seconds=*/200.0));
  const auto result = simulate(cfg, {job_of(cls, 0, 1000.0)}, {});
  EXPECT_EQ(result.counters.checkpoints_completed, 5u);
  EXPECT_EQ(result.counters.jobs_completed, 1u);
}

TEST(Simulation, DegenerateFixedPeriodBelowCommitNeverProgresses) {
  // P = 10 s < C = 20 s: request delay max(0, P - C) = 0 — the job
  // checkpoints back-to-back and never computes (the saturation regime that
  // drives the paper's flat ~80% waste for *-Fixed at low bandwidth).
  const auto cls = toy_class(10, 1000.0, 2000.0, 105.0);
  auto cfg = toy_config(cls, oblivious_fixed(/*period_seconds=*/10.0),
                        /*segment_end=*/2000.0);
  const auto result = simulate(cfg, {job_of(cls, 0, 1000.0)}, {});
  EXPECT_EQ(result.counters.jobs_completed, 0u);
  EXPECT_DOUBLE_EQ(result.accounting.total(TimeCategory::kUsefulCompute), 0.0);
  // The whole segment is checkpoint commits.
  EXPECT_NEAR(result.accounting.total(TimeCategory::kCheckpoint),
              2000.0 * 10.0, 10.0 * 25.0);
}

TEST(Simulation, CheckpointCycleBelowTheClockResolutionThrows) {
  // A zero period and a zero-time commit (what an infinite bandwidth gave)
  // would re-arm the checkpoint timer at the same instant forever; so would
  // a period and a commit that are finite but below the spacing of doubles
  // at the stop time. Both are refused before the run starts.
  const auto instant = toy_class(10, 1000.0, 0.0, 0.0);
  EXPECT_THROW(simulate(toy_config(instant, obl_daly()),
                        {job_of(instant, 0, 1000.0)}, {}),
               Error);
  const auto tiny = toy_class(10, 1000.0, 1e-200, 1e-100);
  try {
    simulate(toy_config(tiny, nb_daly()), {job_of(tiny, 0, 1000.0)}, {});
    FAIL() << "expected the cycle guard to throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("does not advance the clock"),
              std::string::npos)
        << e.what();
  }
  // Without checkpoints there is no cycle to check.
  auto cfg = toy_config(tiny, nb_daly());
  cfg.checkpoints_enabled = false;
  EXPECT_EQ(simulate(cfg, {job_of(tiny, 0, 1000.0)}, {})
                .counters.jobs_completed,
            1u);
}

TEST(Simulation, InputAndOutputAreUsefulIo) {
  // Input 200 B (2 s) + output 300 B (3 s), no checkpoints possible within
  // work 50 s < P - C.
  const auto cls = toy_class(10, 50.0, 500.0, 105.0, /*input=*/200.0,
                             /*output=*/300.0);
  const auto cfg = toy_config(cls, obl_daly());
  const auto result = simulate(cfg, {job_of(cls, 0, 50.0)}, {});
  EXPECT_EQ(result.counters.jobs_completed, 1u);
  EXPECT_EQ(result.counters.checkpoints_completed, 0u);
  EXPECT_DOUBLE_EQ(result.accounting.total(TimeCategory::kUsefulIo),
                   (2.0 + 3.0) * 10.0);
  EXPECT_DOUBLE_EQ(result.accounting.total(TimeCategory::kUsefulCompute),
                   500.0);
  EXPECT_DOUBLE_EQ(result.wasted, 0.0);
}

// ---------------------------------------------------------------------------
// Interference and waiting.
// ---------------------------------------------------------------------------

TEST(Simulation, ObliviousDilatesConcurrentInput) {
  // Two q=5 jobs read 500 B each concurrently: linear sharing doubles both
  // transfers (10 s instead of 5 s). Ideal part is useful, excess dilation.
  const auto cls = toy_class(5, 50.0, 500.0, 1e5, /*input=*/500.0);
  const auto cfg = toy_config(cls, obl_daly());
  const auto result =
      simulate(cfg, {job_of(cls, 0, 50.0), job_of(cls, 1, 50.0)}, {});
  EXPECT_EQ(result.counters.jobs_completed, 2u);
  EXPECT_DOUBLE_EQ(result.accounting.total(TimeCategory::kUsefulIo),
                   2.0 * 5.0 * 5.0);
  EXPECT_DOUBLE_EQ(result.accounting.total(TimeCategory::kIoDilation),
                   2.0 * 5.0 * 5.0);
  EXPECT_DOUBLE_EQ(result.accounting.total(TimeCategory::kBlockedWait), 0.0);
}

TEST(Simulation, OrderedSerializesInputWithBlockedWait) {
  // Same two jobs under Ordered: first reads 0..5 at full bandwidth, second
  // waits 5 s then reads 5..10. No dilation; 25 node-seconds of wait.
  const auto cls = toy_class(5, 50.0, 500.0, 1e5, /*input=*/500.0);
  const auto cfg = toy_config(cls, ord_daly());
  const auto result =
      simulate(cfg, {job_of(cls, 0, 50.0), job_of(cls, 1, 50.0)}, {});
  EXPECT_DOUBLE_EQ(result.accounting.total(TimeCategory::kUsefulIo),
                   2.0 * 5.0 * 5.0);
  EXPECT_DOUBLE_EQ(result.accounting.total(TimeCategory::kIoDilation), 0.0);
  EXPECT_DOUBLE_EQ(result.accounting.total(TimeCategory::kBlockedWait),
                   5.0 * 5.0);
}

TEST(Simulation, OrderedBlockingCheckpointWaitMeasured) {
  // A (q=5): work 200 s, request checkpoint at t=100 (P=105, C=5).
  // B (q=5): work 95 s, output 1000 B -> holds the channel 95..105.
  // A idles 100..105 (blocked), commits 105..110, resumes, finishes work at
  // 210, no second request (next at 205+... beyond work end at 210 - 5s left).
  const auto cls_a = toy_class(5, 200.0, 500.0, 105.0);
  auto cls_b = toy_class(5, 95.0, 500.0, 1e5);
  cls_b.output_bytes = 1000.0;
  SimulationConfig cfg = toy_config(cls_a, ord_daly());
  cfg.classes = {cls_a, cls_b};
  Job a = job_of(cls_a, 0, 200.0);
  Job b = job_of(cls_b, 1, 95.0);
  b.class_index = 1;
  b.output_bytes = 1000.0;
  const auto result = simulate(cfg, {a, b}, {});
  EXPECT_EQ(result.counters.jobs_completed, 2u);
  EXPECT_EQ(result.counters.checkpoints_completed, 1u);
  EXPECT_DOUBLE_EQ(result.accounting.total(TimeCategory::kBlockedWait),
                   5.0 * 5.0);
  EXPECT_DOUBLE_EQ(result.accounting.total(TimeCategory::kCheckpoint),
                   5.0 * 5.0);
}

TEST(Simulation, NonBlockingWaitCountsAsCompute) {
  // Same layout under Ordered-NB: A keeps computing 100..105 while waiting.
  // Work finishes at 205 + 5 (commit 105..110 pauses compute) = 210 -> the
  // wait added no idle time: useful compute is the full 200 s * 5 nodes and
  // blocked wait is zero.
  const auto cls_a = toy_class(5, 200.0, 500.0, 105.0);
  auto cls_b = toy_class(5, 95.0, 500.0, 1e5);
  cls_b.output_bytes = 1000.0;
  SimulationConfig cfg = toy_config(cls_a, nb_daly());
  cfg.classes = {cls_a, cls_b};
  Job a = job_of(cls_a, 0, 200.0);
  Job b = job_of(cls_b, 1, 95.0);
  b.class_index = 1;
  b.output_bytes = 1000.0;
  const auto result = simulate(cfg, {a, b}, {});
  EXPECT_EQ(result.counters.jobs_completed, 2u);
  EXPECT_EQ(result.counters.checkpoints_completed, 1u);
  EXPECT_DOUBLE_EQ(result.accounting.total(TimeCategory::kBlockedWait), 0.0);
  EXPECT_DOUBLE_EQ(result.accounting.total(TimeCategory::kUsefulCompute),
                   200.0 * 5.0 + 95.0 * 5.0);
}

TEST(Simulation, NbCheckpointCancelledWhenWorkFinishesFirst) {
  // A requests a checkpoint but completes its work before the token frees:
  // the pending request is withdrawn, no commit happens.
  // A: work 104 s, P = 105, C = 5 -> request at t=100, work done at 104.
  // B: output holds the channel 95..115 (2000 B).
  const auto cls_a = toy_class(5, 104.0, 500.0, 105.0);
  auto cls_b = toy_class(5, 95.0, 500.0, 1e5);
  cls_b.output_bytes = 2000.0;
  SimulationConfig cfg = toy_config(cls_a, nb_daly());
  cfg.classes = {cls_a, cls_b};
  Job a = job_of(cls_a, 0, 104.0);
  Job b = job_of(cls_b, 1, 95.0);
  b.class_index = 1;
  b.output_bytes = 2000.0;
  const auto result = simulate(cfg, {a, b}, {});
  EXPECT_EQ(result.counters.jobs_completed, 2u);
  EXPECT_EQ(result.counters.checkpoints_completed, 0u);
  EXPECT_EQ(result.counters.checkpoints_cancelled, 1u);
  EXPECT_EQ(result.counters.checkpoint_requests, 1u);
}

// ---------------------------------------------------------------------------
// Failures and restarts.
// ---------------------------------------------------------------------------

TEST(Simulation, FailureRestartsFromLastSnapshot) {
  // q = 10 (failure on any node kills the job). P = 105, C = 5:
  // commits at [100,105] (snap 100) and [205,210] (snap 200).
  // Failure at t = 250: work_pos = 240. Restart: recovery 5 s, lost work 40 s.
  const auto cls = toy_class(10, 1000.0, 500.0, 105.0);
  const auto cfg = toy_config(cls, obl_daly());
  const std::vector<Failure> failures = {{250.0, 3}};
  const auto result = simulate(cfg, {job_of(cls, 0, 1000.0)}, failures);
  EXPECT_EQ(result.counters.failures_on_jobs, 1u);
  EXPECT_EQ(result.counters.restarts_submitted, 1u);
  EXPECT_EQ(result.counters.jobs_completed, 1u);
  EXPECT_DOUBLE_EQ(result.accounting.total(TimeCategory::kRecovery),
                   5.0 * 10.0);
  EXPECT_DOUBLE_EQ(result.accounting.total(TimeCategory::kLostWork),
                   40.0 * 10.0);
  // All 1000 s of work are eventually counted useful exactly once.
  EXPECT_DOUBLE_EQ(result.accounting.total(TimeCategory::kUsefulCompute),
                   10000.0);
}

TEST(Simulation, FailureBeforeAnyCheckpointRestartsFromScratch) {
  // Failure at t = 50 < first commit: restart re-reads the original input
  // (counted as recovery — restart reads are resilience overhead) and redoes
  // all 50 s of work (lost).
  const auto cls = toy_class(10, 1000.0, 500.0, 105.0, /*input=*/200.0);
  const auto cfg = toy_config(cls, obl_daly());
  // Input takes 2 s; failure at 52 kills the job after 50 s of work.
  const std::vector<Failure> failures = {{52.0, 0}};
  const auto result = simulate(cfg, {job_of(cls, 0, 1000.0)}, failures);
  EXPECT_EQ(result.counters.restarts_submitted, 1u);
  EXPECT_EQ(result.counters.jobs_completed, 1u);
  // Restart input: 200 B -> 2 s * 10 nodes recovery.
  EXPECT_DOUBLE_EQ(result.accounting.total(TimeCategory::kRecovery),
                   2.0 * 10.0);
  EXPECT_DOUBLE_EQ(result.accounting.total(TimeCategory::kLostWork),
                   50.0 * 10.0);
}

TEST(Simulation, FailureDuringCommitInvalidatesIt) {
  // Failure at t = 102 (inside the first commit 100..105): the snapshot at
  // 100 is invalid; the job restarts from scratch.
  const auto cls = toy_class(10, 1000.0, 500.0, 105.0);
  const auto cfg = toy_config(cls, obl_daly());
  const std::vector<Failure> failures = {{102.0, 7}};
  const auto result = simulate(cfg, {job_of(cls, 0, 1000.0)}, failures);
  EXPECT_EQ(result.counters.checkpoints_aborted, 1u);
  EXPECT_EQ(result.counters.jobs_completed, 1u);
  // Zero-byte input: restart reads nothing; lost work = the full 100 s of
  // re-executed work (the torn commit is charged to the checkpoint bucket).
  EXPECT_DOUBLE_EQ(result.accounting.total(TimeCategory::kLostWork),
                   100.0 * 10.0);
  // Checkpoint waste: the torn commit's 2 elapsed seconds plus the restart's
  // nine full commits.
  EXPECT_DOUBLE_EQ(result.accounting.total(TimeCategory::kCheckpoint),
                   2.0 * 10.0 + 9.0 * 5.0 * 10.0);
}

TEST(Simulation, FailureDuringOutputRedoesTailFromSnapshot) {
  // Work 150 s, snapshot at 100; output 500 B spans 155..160; failure at 157.
  // Restart: recovery, redo 50 s (lost), then output again.
  const auto cls = toy_class(10, 150.0, 500.0, 105.0, /*input=*/0.0,
                             /*output=*/500.0);
  const auto cfg = toy_config(cls, obl_daly());
  const std::vector<Failure> failures = {{157.0, 1}};
  const auto result = simulate(cfg, {job_of(cls, 0, 150.0)}, failures);
  EXPECT_EQ(result.counters.jobs_completed, 1u);
  EXPECT_EQ(result.counters.restarts_submitted, 1u);
  // Torn output transfer: 2 s lost; redone work: 50 s lost.
  EXPECT_DOUBLE_EQ(result.accounting.total(TimeCategory::kLostWork),
                   (2.0 + 50.0) * 10.0);
  // Successful output counted useful exactly once.
  EXPECT_DOUBLE_EQ(result.accounting.total(TimeCategory::kUsefulIo),
                   5.0 * 10.0);
  EXPECT_DOUBLE_EQ(result.accounting.total(TimeCategory::kRecovery),
                   5.0 * 10.0);
}

TEST(Simulation, FailureOnIdleNodeIsHarmless) {
  // q = 5 job leaves nodes free; failures on unallocated nodes do nothing.
  const auto cls = toy_class(5, 100.0, 500.0, 1e5);
  const auto cfg = toy_config(cls, obl_daly());
  std::vector<Failure> failures;
  // The job owns 5 nodes (indices 0..4 by pool construction); strike 9.
  failures.push_back({50.0, 9});
  const auto result = simulate(cfg, {job_of(cls, 0, 100.0)}, failures);
  EXPECT_EQ(result.counters.failures_total, 1u);
  EXPECT_EQ(result.counters.failures_on_jobs, 0u);
  EXPECT_EQ(result.counters.restarts_submitted, 0u);
  EXPECT_EQ(result.counters.jobs_completed, 1u);
}

TEST(Simulation, RepeatedFailuresEventuallyComplete) {
  // Hammer the job with failures every 30 s for a while; it must still
  // finish once the failures stop (restart-of-restart path, recovery reads).
  const auto cls = toy_class(10, 300.0, 500.0, 105.0);
  const auto cfg = toy_config(cls, obl_daly(), /*segment_end=*/1e5);
  std::vector<Failure> failures;
  for (int i = 1; i <= 10; ++i) {
    failures.push_back({30.0 * i, static_cast<std::int64_t>(i % 10)});
  }
  const auto result = simulate(cfg, {job_of(cls, 0, 300.0)}, failures);
  EXPECT_EQ(result.counters.failures_on_jobs, 10u);
  EXPECT_EQ(result.counters.restarts_submitted, 10u);
  EXPECT_EQ(result.counters.jobs_completed, 1u);
  EXPECT_DOUBLE_EQ(result.accounting.total(TimeCategory::kUsefulCompute),
                   3000.0);
}

TEST(Simulation, RestartHasHighestPriority) {
  // Platform of 10; A (q=10) running, B (q=10) pending. A fails at 50: the
  // restart of A (priority 1) must outrank B (priority 0) for the free nodes.
  const auto cls = toy_class(10, 100.0, 500.0, 1e5);
  const auto cfg = toy_config(cls, obl_daly(), /*segment_end=*/1e4);
  const std::vector<Failure> failures = {{50.0, 2}};
  const auto result =
      simulate(cfg, {job_of(cls, 0, 100.0), job_of(cls, 1, 100.0)}, failures);
  // Both complete: A-restart first (lost 50 s), then B.
  EXPECT_EQ(result.counters.jobs_completed, 2u);
  EXPECT_DOUBLE_EQ(result.accounting.total(TimeCategory::kLostWork), 500.0);
  // Completion order check via total useful: 100 + 100 work, once each.
  EXPECT_DOUBLE_EQ(result.accounting.total(TimeCategory::kUsefulCompute),
                   2000.0);
}

// ---------------------------------------------------------------------------
// Routine (non-CR) I/O.
// ---------------------------------------------------------------------------

TEST(Simulation, RoutineIoChunksAreIssuedEvenly) {
  // 400 B of routine I/O in 4 chunks over 100 s of work: chunks of 100 B
  // (1 s each) at work positions 20, 40, 60, 80. No checkpoints (long P).
  const auto cls = toy_class(10, 100.0, 500.0, 1e5, 0.0, 0.0,
                             /*routine=*/400.0);
  auto cfg = toy_config(cls, obl_daly());
  cfg.routine_io_chunks = 4;
  const auto result = simulate(cfg, {job_of(cls, 0, 100.0)}, {});
  EXPECT_EQ(result.counters.jobs_completed, 1u);
  // 4 chunks * 1 s * 10 nodes of useful I/O.
  EXPECT_DOUBLE_EQ(result.accounting.total(TimeCategory::kUsefulIo), 40.0);
  EXPECT_DOUBLE_EQ(result.accounting.total(TimeCategory::kUsefulCompute),
                   1000.0);
  // io_requests: input + 4 chunks + output = 6.
  EXPECT_EQ(result.counters.io_requests, 6u);
}

TEST(Simulation, CheckpointDeferredDuringRoutineIo) {
  // The checkpoint timer fires while the job is inside a routine chunk; the
  // request must be issued right after the chunk completes, not dropped.
  // Work 100 s, P = 52, C = 2 (V = 200 B): request due at t = 50.
  // Routine chunk at work 50 (2 chunks): occupies 50..55 (500 B).
  const auto cls = toy_class(10, 100.0, 200.0, 52.0, 0.0, 0.0,
                             /*routine=*/1000.0);
  auto cfg = toy_config(cls, obl_daly());
  cfg.routine_io_chunks = 2;
  // Chunk positions: 100*(1/3) = 33.33, 100*(2/3) = 66.67. Request delay =
  // P - C = 50. Chunk 1 at t=33.3 (5 s), so timer at t=50 falls inside
  // compute; adjust: use request delay 30 via P=32.
  auto cls2 = toy_class(10, 100.0, 200.0, 32.0, 0.0, 0.0, 1000.0);
  cfg.classes = {cls2};
  // Timeline: compute 0..33.33, chunk 33.33..38.33, compute resumes; ckpt
  // timer fired at t=30 -> mid-compute, fine. Use a timer that lands in the
  // chunk instead: P - C = 35 -> P = 37.
  auto cls3 = toy_class(10, 100.0, 200.0, 37.0, 0.0, 0.0, 1000.0);
  cfg.classes = {cls3};
  const auto result = simulate(cfg, {job_of(cls3, 0, 100.0)}, {});
  // Timer at 35 inside chunk [33.33, 38.33] -> deferred to 38.33; commit
  // 38.33..40.33. The run must complete with both checkpoints and chunks.
  EXPECT_EQ(result.counters.jobs_completed, 1u);
  EXPECT_GE(result.counters.checkpoints_completed, 2u);
  EXPECT_EQ(result.counters.io_requests,
            1u + 2u + result.counters.checkpoint_requests + 1u);
}

// ---------------------------------------------------------------------------
// Baseline runs.
// ---------------------------------------------------------------------------

TEST(Simulation, BaselineHasNoWaste) {
  const auto cls = toy_class(5, 500.0, 500.0, 105.0, /*input=*/200.0,
                             /*output=*/300.0);
  const auto cfg = toy_config(cls, lw());
  const auto result = simulate_baseline(
      cfg, {job_of(cls, 0, 500.0), job_of(cls, 1, 500.0)});
  EXPECT_DOUBLE_EQ(result.wasted, 0.0);
  EXPECT_EQ(result.counters.checkpoints_completed, 0u);
  // Compute + ideal I/O for both jobs: 2 * (500*5 + (2+3)*5).
  EXPECT_DOUBLE_EQ(result.useful, 2.0 * (2500.0 + 25.0));
}

TEST(Simulation, BaselineIgnoresFailuresArgument) {
  const auto cls = toy_class(10, 100.0, 500.0, 105.0);
  const auto cfg = toy_config(cls, obl_daly());
  const auto result = simulate_baseline(cfg, {job_of(cls, 0, 100.0)});
  EXPECT_EQ(result.counters.failures_total, 0u);
  EXPECT_EQ(result.counters.jobs_completed, 1u);
}

// ---------------------------------------------------------------------------
// Segment clipping and horizon behaviour.
// ---------------------------------------------------------------------------

TEST(Simulation, SegmentClipsAccounting) {
  // Work 1000 s, segment [0, 500]: only the first half is measured.
  const auto cls = toy_class(10, 1000.0, 500.0, 1e5);
  auto cfg = toy_config(cls, obl_daly(), /*segment_end=*/500.0);
  const auto result = simulate(cfg, {job_of(cls, 0, 1000.0)}, {});
  EXPECT_EQ(result.counters.jobs_completed, 0u);  // still running at stop
  EXPECT_DOUBLE_EQ(result.accounting.total(TimeCategory::kUsefulCompute),
                   500.0 * 10.0);
  EXPECT_DOUBLE_EQ(result.stop_time, 500.0);
}

TEST(Simulation, UtilizationReflectsAllocation) {
  // One q=5 job for 100 s on a 10-node platform, segment [0, 200]:
  // utilisation = 5*100+... job ends at 100 -> (5*100)/(10*200) = 0.25.
  const auto cls = toy_class(5, 100.0, 500.0, 1e5);
  auto cfg = toy_config(cls, obl_daly(), /*segment_end=*/200.0);
  const auto result = simulate(cfg, {job_of(cls, 0, 100.0)}, {});
  EXPECT_NEAR(result.avg_utilization, 0.25, 1e-9);
}

void expect_same_bits(double actual, double expected, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual),
            std::bit_cast<std::uint64_t>(expected))
      << what << ": " << actual << " != " << expected;
}

void expect_identical(const SimulationResult& a, const SimulationResult& b) {
  const SimulationCounters& x = a.counters;
  const SimulationCounters& y = b.counters;
  EXPECT_EQ(x.failures_total, y.failures_total);
  EXPECT_EQ(x.failures_on_jobs, y.failures_on_jobs);
  EXPECT_EQ(x.checkpoint_requests, y.checkpoint_requests);
  EXPECT_EQ(x.checkpoints_completed, y.checkpoints_completed);
  EXPECT_EQ(x.checkpoints_aborted, y.checkpoints_aborted);
  EXPECT_EQ(x.checkpoints_cancelled, y.checkpoints_cancelled);
  EXPECT_EQ(x.jobs_started, y.jobs_started);
  EXPECT_EQ(x.jobs_completed, y.jobs_completed);
  EXPECT_EQ(x.restarts_submitted, y.restarts_submitted);
  EXPECT_EQ(x.io_requests, y.io_requests);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.events_scheduled, b.events_scheduled);
  expect_same_bits(a.useful, b.useful, "useful");
  expect_same_bits(a.wasted, b.wasted, "wasted");
  expect_same_bits(a.avg_utilization, b.avg_utilization, "utilization");
  expect_same_bits(a.energy.total(), b.energy.total(), "energy");
  for (int c = 0; c < static_cast<int>(TimeCategory::kCount); ++c) {
    const auto category = static_cast<TimeCategory>(c);
    expect_same_bits(a.accounting.total(category),
                     b.accounting.total(category), "category");
  }
}

TEST(Simulation, SparseJobIdsRunIdenticallyOnFreshAndReusedWorkspaces) {
  // Job ids are arbitrary non-negative integers and restarts take ids above
  // the largest one, so the runner's dense job index must grow on demand.
  // Eight one-node jobs live at once also make the owning hash map rehash
  // while the index points into it.
  const auto cls = toy_class(1, 400.0, 200.0, 60.0, /*input=*/50.0,
                             /*output=*/50.0, /*routine=*/100.0);
  const std::vector<JobId> ids = {7, 500, 4096, 9, 12000, 31, 77, 2048};
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    jobs.push_back(job_of(cls, ids[i], 400.0 + 10.0 * static_cast<double>(i)));
  }
  std::vector<Failure> failures;
  for (int k = 1; k <= 40; ++k) {
    failures.push_back({7.5 * k + 3.0, static_cast<std::int64_t>(k % 10)});
  }
  const std::vector<Job> dense = {job_of(cls, 0, 100.0),
                                  job_of(cls, 1, 120.0)};
  for (const StrategySpec* strategy : {&obl_daly(), &ord_daly(), &nb_daly(),
                                       &lw()}) {
    SCOPED_TRACE(strategy->name());
    const auto cfg = toy_config(cls, *strategy, /*segment_end=*/1e5);
    const auto fresh = simulate(cfg, jobs, failures);
    EXPECT_EQ(fresh.counters.jobs_completed, jobs.size());
    EXPECT_GT(fresh.counters.restarts_submitted, 0u);
    EXPECT_EQ(fresh.counters.jobs_started,
              jobs.size() + fresh.counters.restarts_submitted);

    SimWorkspace workspace;
    simulate(cfg, dense, failures, workspace);  // warm on other ids first
    const auto reused = simulate(cfg, jobs, failures, workspace);
    const auto again = simulate(cfg, jobs, failures, workspace);
    expect_identical(reused, fresh);
    expect_identical(again, fresh);
  }
}

}  // namespace
}  // namespace coopcr
