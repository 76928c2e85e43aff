// Deterministic fault-injection coverage: the FaultPlan grammar and knob
// errors, the inert seam (empty and never-triggered plans), and one pinned
// byte-identity test per recovery mechanism — respawn, elastic resize
// (scripted and signal-driven), heartbeat stall detection (fork and exec
// workers), frame drop/truncate/delay, journal tear and journal flip —
// each asserting the final report matches the fault-free in-process run
// byte for byte. The randomized closure over schedules lives in
// test_fault_soak.cpp.

#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "coopcr.hpp"

namespace coopcr {
namespace {

ScenarioBuilder tiny_base() {
  return ScenarioBuilder::cielo_apex(/*seed=*/99)
      .min_makespan(units::days(6))
      .segment(units::days(1), units::days(5));
}

exp::ExperimentSpec grid_spec(int replicas = 3) {
  exp::ExperimentSpec spec(tiny_base(), "fault_grid_3x2");
  MonteCarloOptions options;
  options.replicas = replicas;
  spec.pfs_bandwidth_axis({60, 80, 100})
      .node_mtbf_axis({2, 8})
      .strategies({oblivious_daly(), least_waste()})
      .options(options);
  return spec;
}

std::string csv_bytes(const exp::ExperimentReport& report) {
  std::ostringstream oss;
  report.write_csv(oss);
  return oss.str();
}

std::string json_bytes(const exp::ExperimentReport& report) {
  std::ostringstream oss;
  report.write_json(oss);
  return oss.str();
}

exp::ExperimentReport reference_report(const exp::ExperimentSpec& spec) {
  exp::SweepRunner runner(/*threads=*/1);
  return runner.run(spec);
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    journal_ = (std::filesystem::temp_directory_path() /
                ("coopcr_fault_test_" + std::to_string(::getpid()) + "_" +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name() +
                 ".journal"))
                   .string();
    std::filesystem::remove(journal_);
  }
  void TearDown() override { std::filesystem::remove(journal_); }

  std::string journal_;
};

// --- plan grammar -----------------------------------------------------------

TEST(FaultPlanParse, ParsesEveryActionKind) {
  const dist::FaultPlan plan = dist::FaultPlan::parse(
      "kill=1@4,stall=0@2,drop=2@3,trunc=0@5,delay=1@2:3,tear=6:32,"
      "flip=7:123,interrupt=9,resize=4@5",
      "--fault-plan");
  ASSERT_EQ(plan.actions().size(), 9u);
  EXPECT_EQ(plan.actions()[0].kind, dist::FaultKind::kKillWorker);
  EXPECT_EQ(plan.actions()[0].worker, 1);
  EXPECT_EQ(plan.actions()[0].after_units, 4);
  EXPECT_EQ(plan.actions()[1].kind, dist::FaultKind::kStallWorker);
  EXPECT_EQ(plan.actions()[1].worker, 0);
  EXPECT_EQ(plan.actions()[1].after_units, 2);
  EXPECT_TRUE(plan.stalls_workers());
  EXPECT_EQ(plan.actions()[2].kind, dist::FaultKind::kDropFrame);
  EXPECT_EQ(plan.actions()[2].frame, 3);
  EXPECT_EQ(plan.actions()[3].kind, dist::FaultKind::kTruncateFrame);
  EXPECT_EQ(plan.actions()[4].kind, dist::FaultKind::kDelayFrame);
  EXPECT_EQ(plan.actions()[4].delay_rounds, 3);
  EXPECT_EQ(plan.actions()[5].kind, dist::FaultKind::kTearJournal);
  EXPECT_EQ(plan.actions()[5].tear_bytes, 32);
  EXPECT_EQ(plan.actions()[6].kind, dist::FaultKind::kFlipJournalByte);
  EXPECT_EQ(plan.actions()[6].offset, 123u);
  EXPECT_EQ(plan.actions()[7].kind, dist::FaultKind::kInterrupt);
  EXPECT_EQ(plan.actions()[8].kind, dist::FaultKind::kResize);
  EXPECT_EQ(plan.actions()[8].shards, 4);
  EXPECT_TRUE(plan.touches_journal());
  EXPECT_FALSE(plan.empty());
  EXPECT_TRUE(dist::FaultPlan::parse("", "--fault-plan").empty());
  EXPECT_FALSE(
      dist::FaultPlan::parse("kill=0@1", "--fault-plan").touches_journal());
  EXPECT_FALSE(
      dist::FaultPlan::parse("kill=0@1", "--fault-plan").stalls_workers());
}

TEST(FaultPlanParse, MalformedActionsThrowNamingTheKnob) {
  const std::vector<std::string> bad = {
      "launch=0@1",    // unknown action
      "kill=0",        // missing @trigger
      "kill=x@1",      // non-numeric worker
      "kill=0@",       // empty trigger
      "stall=0@0",     // unit number must be >= 1
      "stall=0@2:500",  // the stall's old :MS duration is gone
      "drop=0@0",      // frame number must be >= 1
      "delay=0@2",     // missing :rounds
      "tear=5",        // missing :bytes
      "tear=5:0",      // bytes out of range
      "resize=0@3",    // zero shards
      "kill=0@1,,interrupt=2",  // empty segment
      ",kill=0@1",     // leading comma
      "kill=0@1,",     // trailing comma
  };
  for (const std::string& text : bad) {
    try {
      dist::FaultPlan::parse(text, "--fault-plan");
      FAIL() << "expected parse to refuse: " << text;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("--fault-plan"), std::string::npos)
          << "error for '" << text << "' must name the knob: " << e.what();
    }
  }
}

TEST(FaultPlanParse, SingleShotHooksFireExactlyOnce) {
  dist::FaultPlan plan;
  plan.interrupt(3).kill_worker(1, 2).stall_worker(0, 1).drop_frame(0, 2);
  EXPECT_TRUE(plan.take_due(1).empty());
  ASSERT_EQ(plan.take_due(3).size(), 2u);  // kill@2 and interrupt@3 both due
  EXPECT_TRUE(plan.take_due(3).empty());   // fired flags stick
  EXPECT_FALSE(plan.take_stall(1, 1));     // another worker's stall
  EXPECT_FALSE(plan.take_stall(0, 2));     // another unit's stall
  EXPECT_TRUE(plan.take_stall(0, 1));
  EXPECT_FALSE(plan.take_stall(0, 1));
  EXPECT_FALSE(plan.take_frame_fault(0, 1).fired);
  EXPECT_TRUE(plan.take_frame_fault(0, 2).fired);
  EXPECT_FALSE(plan.take_frame_fault(0, 2).fired);
}

// --- knob interactions (CLI-facing option validation) -----------------------

TEST(FaultKnobs, ResumeWithoutJournalNamesTheKnob) {
  dist::DistOptions options;
  options.shards = 2;
  options.resume = true;
  dist::DistSweepRunner runner(options);
  try {
    runner.run(grid_spec());
    FAIL() << "expected resume without journal to be refused";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--journal"), std::string::npos)
        << e.what();
  }
}

TEST(FaultKnobs, JournalFaultsWithoutJournalNameTheKnobs) {
  auto plan = std::make_shared<dist::FaultPlan>();
  plan->tear_journal(3, 16);
  dist::DistOptions options;
  options.shards = 2;
  options.fault_plan = plan;
  dist::DistSweepRunner runner(options);
  try {
    runner.run(grid_spec());
    FAIL() << "expected a journal-tearing plan without a journal to refuse";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--fault-plan"), std::string::npos) << what;
    EXPECT_NE(what.find("--journal"), std::string::npos) << what;
  }
}

TEST(FaultKnobs, StallWithoutHeartbeatNamesTheKnobs) {
  // A stopped worker is reaped by the heartbeat alone; without one the
  // run would hang, so it is refused before any worker is spawned.
  auto plan = std::make_shared<dist::FaultPlan>();
  plan->stall_worker(0, 2);
  dist::DistOptions options;
  options.shards = 2;
  options.fault_plan = plan;
  dist::DistSweepRunner runner(options);
  try {
    runner.run(grid_spec());
    FAIL() << "expected a stall plan without a heartbeat to refuse";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--fault-plan"), std::string::npos) << what;
    EXPECT_NE(what.find("--heartbeat-ms"), std::string::npos) << what;
    EXPECT_NE(what.find("COOPCR_HEARTBEAT_MS"), std::string::npos) << what;
  }
  EXPECT_FALSE(plan->actions()[0].fired);
}

TEST(FaultKnobs, NegativeBudgetsAreRefused) {
  dist::DistOptions negative_respawn;
  negative_respawn.max_respawns = -1;
  EXPECT_THROW(dist::DistSweepRunner{negative_respawn}, Error);
  dist::DistOptions negative_heartbeat;
  negative_heartbeat.heartbeat_ms = -5;
  EXPECT_THROW(dist::DistSweepRunner{negative_heartbeat}, Error);
}

// --- byte-identity under each recovery mechanism ----------------------------

TEST_F(FaultInjectionTest, InertPlansLeaveArtifactsIdenticalAndFireNothing) {
  const exp::ExperimentSpec spec = grid_spec();
  const exp::ExperimentReport reference = reference_report(spec);
  dist::DistOptions options;
  options.shards = 2;
  const exp::ExperimentReport without_plan =
      dist::DistSweepRunner(options).run(spec);
  EXPECT_EQ(csv_bytes(reference), csv_bytes(without_plan));
  EXPECT_EQ(json_bytes(reference), json_bytes(without_plan));

  // The hook seam is compiled in always. An empty plan (what an empty
  // --fault-plan parses to) and a plan whose every trigger lies past the
  // campaign's 18 units both run through every hook; neither may move a
  // byte or fire an action.
  auto empty = std::make_shared<dist::FaultPlan>(
      dist::FaultPlan::parse("", "--fault-plan"));
  auto unreachable = std::make_shared<dist::FaultPlan>();
  unreachable->kill_worker(0, 1000)
      .drop_frame(1, 1000)
      .delay_frame(0, 1000, 3)
      .interrupt(1000)
      .resize(4, 1000);
  for (const auto& plan : {empty, unreachable}) {
    options.fault_plan = plan;
    const exp::ExperimentReport seamed =
        dist::DistSweepRunner(options).run(spec);
    EXPECT_EQ(csv_bytes(without_plan), csv_bytes(seamed));
    EXPECT_EQ(json_bytes(without_plan), json_bytes(seamed));
  }
  EXPECT_TRUE(empty->empty());
  ASSERT_EQ(unreachable->actions().size(), 5u);
  for (const dist::FaultAction& action : unreachable->actions()) {
    EXPECT_FALSE(action.fired);
  }
}

TEST_F(FaultInjectionTest, RespawnReplacesEveryCasualtyByteIdentically) {
  const exp::ExperimentSpec spec = grid_spec();
  const exp::ExperimentReport reference = reference_report(spec);
  // Both initial workers are murdered mid-campaign; the respawn budget
  // rebuilds the fleet each time and the artifacts must not notice.
  auto plan = std::make_shared<dist::FaultPlan>();
  plan->kill_worker(0, 2).kill_worker(1, 5).kill_worker(2, 9);
  dist::DistOptions options;
  options.shards = 2;
  options.max_respawns = 3;
  options.fault_plan = plan;
  dist::DistSweepRunner runner(options);
  const exp::ExperimentReport survived = runner.run(spec);
  EXPECT_EQ(csv_bytes(reference), csv_bytes(survived));
  EXPECT_EQ(json_bytes(reference), json_bytes(survived));
  for (const dist::FaultAction& action : plan->actions()) {
    EXPECT_TRUE(action.fired);
  }
}

TEST_F(FaultInjectionTest, ScheduledElasticResizeIsByteIdentical) {
  const exp::ExperimentSpec spec = grid_spec();
  const exp::ExperimentReport reference = reference_report(spec);
  // Grow 1 → 4 early, shrink to 2 mid-run, then down to 1 for the tail —
  // the draining shrink path and the spawn grow path both execute.
  auto plan = std::make_shared<dist::FaultPlan>();
  plan->resize(4, 2).resize(2, 8).resize(1, 14);
  dist::DistOptions options;
  options.shards = 1;
  options.fault_plan = plan;
  dist::DistSweepRunner runner(options);
  const exp::ExperimentReport resized = runner.run(spec);
  EXPECT_EQ(csv_bytes(reference), csv_bytes(resized));
  EXPECT_EQ(json_bytes(reference), json_bytes(resized));
}

TEST_F(FaultInjectionTest, SignalResizeIsByteIdenticalAndSurvivesShrink) {
  const exp::ExperimentSpec spec = grid_spec();
  const exp::ExperimentReport reference = reference_report(spec);
  dist::DistOptions options;
  options.shards = 2;
  dist::DistSweepRunner runner(options);
  // Operator-style resize: grow twice, shrink once, from a helper thread
  // while the sweep runs. The timing is nondeterministic by nature; the
  // bytes must be identical regardless of when the signals land — including
  // after run() returns, so park the dispositions on SIG_IGN around it
  // (run() installs its own handlers for its own window).
  ::signal(SIGUSR1, SIG_IGN);
  ::signal(SIGUSR2, SIG_IGN);
  std::thread prodder([] {
    for (int i = 0; i < 2; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ::kill(::getpid(), SIGUSR1);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ::kill(::getpid(), SIGUSR2);
  });
  const exp::ExperimentReport resized = runner.run(spec);
  prodder.join();
  ::signal(SIGUSR1, SIG_DFL);
  ::signal(SIGUSR2, SIG_DFL);
  EXPECT_EQ(csv_bytes(reference), csv_bytes(resized));
  EXPECT_EQ(json_bytes(reference), json_bytes(resized));
}

TEST_F(FaultInjectionTest, HeartbeatKillsAStalledWorkerAndRecovers) {
  const exp::ExperimentSpec spec = grid_spec();
  const exp::ExperimentReport reference = reference_report(spec);
  // Worker 0 is SIGSTOPped as its second unit is dispatched and never
  // answers. The 150 ms heartbeat must kill it, re-run the unit elsewhere,
  // and finish with identical bytes.
  auto plan = std::make_shared<dist::FaultPlan>();
  plan->stall_worker(0, 2);
  dist::DistOptions options;
  options.shards = 2;
  options.heartbeat_ms = 150;
  options.max_respawns = 1;
  options.fault_plan = plan;
  dist::DistSweepRunner runner(options);
  const exp::ExperimentReport survived = runner.run(spec);
  EXPECT_EQ(csv_bytes(reference), csv_bytes(survived));
  EXPECT_EQ(json_bytes(reference), json_bytes(survived));
  EXPECT_TRUE(plan->actions()[0].fired);
}

TEST_F(FaultInjectionTest, HeartbeatKillsAStalledExecWorkerAndRecovers) {
  // The same stall against fork+exec workers: the coordinator stops a
  // process it did not fork from its own image, and the heartbeat reaps
  // it the same way. The worker is coopcr_sweep --worker, which rebuilds
  // the registry's demo spec; ctest runs next to that binary. One shard:
  // with two, a slow-starting exec worker 0 can see fewer than 2 of the
  // demo's units and never stall. The fork-mode test above covers a fleet.
  const char* bin_env = std::getenv("COOPCR_SWEEP_BIN");
  const std::string bin = bin_env ? bin_env : "./coopcr_sweep";
  if (!std::filesystem::exists(bin)) {
    GTEST_SKIP() << "coopcr_sweep binary not found at " << bin
                 << " — run under ctest from the build root or set "
                    "COOPCR_SWEEP_BIN";
  }
  const exp::ExperimentSpec spec = exp::build_named_spec("demo", 2);
  const exp::ExperimentReport reference = reference_report(spec);
  auto plan = std::make_shared<dist::FaultPlan>();
  plan->stall_worker(0, 2);
  dist::DistOptions options;
  options.shards = 1;
  options.heartbeat_ms = 300;
  options.max_respawns = 1;
  options.fault_plan = plan;
  options.worker_command = {bin, "--worker", "--spec", "demo", "--replicas",
                            "2"};
  dist::DistSweepRunner runner(options);
  const exp::ExperimentReport survived = runner.run(spec);
  EXPECT_EQ(csv_bytes(reference), csv_bytes(survived));
  EXPECT_EQ(json_bytes(reference), json_bytes(survived));
  EXPECT_TRUE(plan->actions()[0].fired);
}

TEST_F(FaultInjectionTest, DroppedTruncatedAndDelayedFramesAreSurvived) {
  const exp::ExperimentSpec spec = grid_spec();
  const exp::ExperimentReport reference = reference_report(spec);
  // Frame 1 is the worker's kHello, so frame 2 is its first result: drop
  // it on worker 0, truncate it on worker 1, and hold worker 2's third
  // frame back for 3 poll rounds. Dropped/truncated streams cost the
  // worker its life; the respawn budget restores the fleet.
  auto plan = std::make_shared<dist::FaultPlan>();
  plan->drop_frame(0, 2).truncate_frame(1, 2).delay_frame(2, 3, 3);
  dist::DistOptions options;
  options.shards = 3;
  options.max_respawns = 2;
  options.fault_plan = plan;
  dist::DistSweepRunner runner(options);
  const exp::ExperimentReport survived = runner.run(spec);
  EXPECT_EQ(csv_bytes(reference), csv_bytes(survived));
  EXPECT_EQ(json_bytes(reference), json_bytes(survived));
}

TEST_F(FaultInjectionTest, TornJournalResumesByteIdentically) {
  const exp::ExperimentSpec spec = grid_spec();
  const exp::ExperimentReport reference = reference_report(spec);
  auto plan = std::make_shared<dist::FaultPlan>();
  plan->tear_journal(5, 48).interrupt(12);
  dist::DistOptions options;
  options.shards = 2;
  options.journal = journal_;
  options.fault_plan = plan;
  // Attempt 1 tears the journal after 5 units and aborts; attempt 2
  // resumes past the truncated tail and aborts again at 12 fresh units;
  // attempt 3 finishes. The fired flags in the shared plan keep each fault
  // single-shot across the retries.
  int attempts = 0;
  exp::ExperimentReport final_report;
  for (;; ++attempts) {
    ASSERT_LT(attempts, 5);
    dist::DistOptions attempt_options = options;
    attempt_options.resume = std::filesystem::exists(journal_);
    dist::DistSweepRunner runner(attempt_options);
    try {
      final_report = runner.run(spec);
      break;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("resume"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_GE(attempts, 2);
  EXPECT_EQ(csv_bytes(reference), csv_bytes(final_report));
  EXPECT_EQ(json_bytes(reference), json_bytes(final_report));
}

TEST_F(FaultInjectionTest, FlippedJournalByteRefusesThenRecoversFresh) {
  const exp::ExperimentSpec spec = grid_spec();
  const exp::ExperimentReport reference = reference_report(spec);
  // Flip a byte inside the first record (the header occupies the first
  // ~56 bytes of this journal), then abort. The resume must refuse the
  // silently corrupted file, naming the offset; the recovery path is to
  // discard the journal and start over — which still converges to
  // byte-identical artifacts.
  auto plan = std::make_shared<dist::FaultPlan>();
  plan->flip_journal_byte(6, 100);
  dist::DistOptions options;
  options.shards = 2;
  options.journal = journal_;
  options.fault_plan = plan;
  {
    dist::DistSweepRunner runner(options);
    EXPECT_THROW(runner.run(spec), Error);
  }
  dist::DistOptions resume_options = options;
  resume_options.resume = true;
  try {
    dist::DistSweepRunner runner(resume_options);
    runner.run(spec);
    FAIL() << "expected the flipped journal to refuse to resume";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("corrupt mid-file"), std::string::npos) << what;
    EXPECT_NE(what.find("offset"), std::string::npos) << what;
  }
  std::filesystem::remove(journal_);
  dist::DistSweepRunner fresh(options);  // plan is spent — runs fault-free
  const exp::ExperimentReport recovered = fresh.run(spec);
  EXPECT_EQ(csv_bytes(reference), csv_bytes(recovered));
  EXPECT_EQ(json_bytes(reference), json_bytes(recovered));
}

}  // namespace
}  // namespace coopcr
