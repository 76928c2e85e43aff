// Randomized crash-recovery soak for the distributed sweep engine — the
// headline artifact of the fault-injection harness.
//
// A seeded generator produces hundreds of distinct fault schedules (worker
// kills, stalls past the heartbeat deadline, dropped/truncated/delayed wire
// frames, journal tears and bit flips, coordinator interrupts, elastic
// resizes, varying shard counts), and a recovery driver
// runs each schedule to completion the way an operator would: resume from
// the journal after a crash, discard the journal and start over when the
// resume refuses a corrupted file. Every schedule must converge to CSV and
// JSON artifacts byte-identical to the fault-free in-process run — the
// determinism contract under any failure history.
//
// Reproduce a CI failure locally with the seed echoed in the log:
//   COOPCR_SOAK_SEED=0x<seed> COOPCR_SOAK_SCHEDULES=<n> ./test_fault_soak
// COOPCR_SOAK_SCHEDULES scales both tests (default 200 fixed schedules);
// the FreshSeed test runs a small set on a per-run seed supplied by CI.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <iostream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "coopcr.hpp"

namespace coopcr {
namespace {

// 4 grid points x 2 strategies x 3 replicas = 24 units per sweep: enough
// room for multi-fault schedules, small enough to keep 200 schedules well
// under the 120 s CI budget.
exp::ExperimentSpec soak_spec() {
  ScenarioBuilder base = ScenarioBuilder::cielo_apex(/*seed=*/99)
                             .min_makespan(units::days(6))
                             .segment(units::days(1), units::days(5));
  exp::ExperimentSpec spec(base, "fault_soak_2x2");
  MonteCarloOptions options;
  options.replicas = 3;
  spec.pfs_bandwidth_axis({60, 100})
      .node_mtbf_axis({2, 8})
      .strategies({oblivious_daly(), least_waste()})
      .options(options);
  return spec;
}

constexpr int kTotalUnits = 24;

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

/// One generated soak schedule. The fault plan is kept as grammar text and
/// parsed through FaultPlan::parse, so the soak also exercises the
/// --fault-plan knob path on every schedule.
struct Schedule {
  int shards = 2;
  bool journaled = false;
  int respawns = 0;
  int heartbeat_ms = 0;
  std::string plan_text;
};

std::string describe(const Schedule& s) {
  std::ostringstream oss;
  oss << "shards=" << s.shards << " journal=" << (s.journaled ? "yes" : "no")
      << " respawn=" << s.respawns << " heartbeat=" << s.heartbeat_ms
      << " plan='" << s.plan_text << "'";
  return oss.str();
}

/// Deterministic schedule generator: the same (seed, index) always yields
/// the same schedule, so any soak failure is replayable from the logged
/// seed alone.
Schedule generate_schedule(std::mt19937_64& rng) {
  Schedule s;
  s.shards = 1 + static_cast<int>(rng() % 4);
  rng();  // former transport draw, kept so the pinned schedules stay the same
  const int n_actions = 1 + static_cast<int>(rng() % 4);
  int destructive = 0;     // faults that cost a worker its life
  int journal_wreckers = 0;  // tear/flip/interrupt — at most 2 per schedule
  bool stalled = false;      // at most one stall (each costs ~heartbeat ms)
  std::ostringstream plan;
  const auto emit = [&plan](const std::string& action) {
    if (plan.tellp() > 0) plan << ',';
    plan << action;
  };
  for (int i = 0; i < n_actions; ++i) {
    const int roll = static_cast<int>(rng() % 100);
    const int worker = static_cast<int>(rng() % (s.shards + 2));
    const int unit = 1 + static_cast<int>(rng() % kTotalUnits);
    const int frame = 2 + static_cast<int>(rng() % 4);
    if (roll < 25) {
      emit("kill=" + std::to_string(worker) + "@" + std::to_string(unit));
      ++destructive;
    } else if (roll < 40) {
      emit("drop=" + std::to_string(worker) + "@" + std::to_string(frame));
      ++destructive;
    } else if (roll < 50) {
      emit("trunc=" + std::to_string(worker) + "@" + std::to_string(frame));
      ++destructive;
    } else if (roll < 60) {
      const int rounds = 1 + static_cast<int>(rng() % 4);
      emit("delay=" + std::to_string(worker) + "@" + std::to_string(frame) +
           ":" + std::to_string(rounds));
    } else if (roll < 70) {
      if (stalled) continue;
      stalled = true;
      // A stopped worker never answers — only the heartbeat reaps it.
      emit("stall=" + std::to_string(worker % s.shards) + "@" +
           std::to_string(1 + static_cast<int>(rng() % 3)));
      ++destructive;
    } else if (roll < 80) {
      const int shards = 1 + static_cast<int>(rng() % 4);
      emit("resize=" + std::to_string(shards) + "@" + std::to_string(unit));
    } else if (roll < 88) {
      if (++journal_wreckers > 2) continue;
      emit("interrupt=" + std::to_string(unit));
      s.journaled = true;
    } else if (roll < 95) {
      if (++journal_wreckers > 2) continue;
      const int bytes = 1 + static_cast<int>(rng() % 40);
      emit("tear=" + std::to_string(unit) + ":" + std::to_string(bytes));
      s.journaled = true;
    } else {
      if (++journal_wreckers > 2) continue;
      // Offsets past the header (~56 bytes); some land mid-record (resume
      // refuses, journal is discarded), some past EOF (flip itself refuses
      // and the journal survives) — both recovery paths get exercised.
      const std::uint64_t offset = 56 + rng() % 600;
      emit("flip=" + std::to_string(unit) + ":" + std::to_string(offset));
      s.journaled = true;
    }
  }
  if (stalled) {
    s.heartbeat_ms = 150;
    // Heartbeats can also fell a healthy-but-slow worker on a loaded CI
    // box; with a journal every such surprise stays recoverable.
    s.journaled = true;
  }
  if (rng() % 3 == 0) s.journaled = true;
  s.respawns = destructive + 2;
  s.plan_text = plan.str();
  return s;
}

/// True when the resume path must give up on this journal file entirely —
/// silent mid-file corruption or an unreadable header. The operator move
/// (and the driver's) is to discard the file and start over.
bool journal_is_beyond_repair(const std::string& what) {
  return what.find("corrupt mid-file") != std::string::npos ||
         what.find("not a coopcr campaign journal") != std::string::npos ||
         what.find("journal header") != std::string::npos;
}

/// Run one schedule to completion, recovering the way an operator would:
/// resume after every crash, discard the journal when resume refuses it.
/// Throws (failing the test) if the schedule cannot converge.
exp::ExperimentReport run_schedule(const exp::ExperimentSpec& spec,
                                   const Schedule& s,
                                   const std::string& journal_path) {
  const auto plan = std::make_shared<dist::FaultPlan>(
      dist::FaultPlan::parse(s.plan_text, "--fault-plan"));
  std::filesystem::remove(journal_path);
  for (int attempt = 0; attempt < 12; ++attempt) {
    dist::DistOptions options;
    options.shards = s.shards;
    options.max_respawns = s.respawns;
    options.heartbeat_ms = s.heartbeat_ms;
    options.fault_plan = plan;
    if (s.journaled) {
      options.journal = journal_path;
      options.resume = std::filesystem::exists(journal_path);
    }
    try {
      dist::DistSweepRunner runner(options);
      exp::ExperimentReport report = runner.run(spec);
      std::filesystem::remove(journal_path);
      return report;
    } catch (const Error& e) {
      if (!s.journaled) throw;  // no recovery story without a journal
      if (journal_is_beyond_repair(e.what())) {
        std::filesystem::remove(journal_path);
      }
    }
  }
  throw Error("soak schedule did not converge in 12 attempts: " +
              describe(s));
}

class FaultSoakTest : public ::testing::Test {
 protected:
  void SetUp() override {
    journal_ = (std::filesystem::temp_directory_path() /
                ("coopcr_soak_" + std::to_string(::getpid()) + "_" +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name() +
                 ".journal"))
                   .string();
    std::filesystem::remove(journal_);
  }
  void TearDown() override { std::filesystem::remove(journal_); }

  void soak(std::uint64_t seed, int schedules) {
    const exp::ExperimentSpec spec = soak_spec();
    exp::SweepRunner reference_runner(/*threads=*/1);
    const exp::ExperimentReport reference = reference_runner.run(spec);
    const std::string want_csv = csv_bytes(reference);
    const std::string want_json = json_bytes(reference);
    std::mt19937_64 rng(seed);
    for (int i = 0; i < schedules; ++i) {
      const Schedule s = generate_schedule(rng);
      SCOPED_TRACE("seed=0x" + [&] {
        std::ostringstream oss;
        oss << std::hex << seed;
        return oss.str();
      }() + " schedule #" + std::to_string(i) + ": " + describe(s));
      const exp::ExperimentReport survived = run_schedule(spec, s, journal_);
      ASSERT_EQ(want_csv, csv_bytes(survived));
      ASSERT_EQ(want_json, json_bytes(survived));
    }
  }

  std::string journal_;
};

// The pinned regression set: a fixed seed, COOPCR_SOAK_SCHEDULES distinct
// schedules (default 200). Every run of this test explores the exact same
// fault histories, so a regression here bisects cleanly.
TEST_F(FaultSoakTest, FixedScheduleSet) {
  const int schedules = env::int_knob("COOPCR_SOAK_SCHEDULES", 200, 1);
  soak(/*seed=*/0x5eedc0de2018ull, schedules);
}

// Fresh exploration: CI supplies a new COOPCR_SOAK_SEED every run and
// echoes it into the log, so the schedule space keeps being probed and any
// failure is reproducible from the logged seed.
TEST_F(FaultSoakTest, FreshSeed) {
  const std::uint64_t seed = env::u64_knob("COOPCR_SOAK_SEED", 0x424242ull);
  const int schedules =
      std::max(1, env::int_knob("COOPCR_SOAK_SCHEDULES", 200, 1) / 8);
  std::cout << "fault soak fresh seed: 0x" << std::hex << seed << std::dec
            << " (" << schedules << " schedules)" << std::endl;
  soak(seed, schedules);
}

// One hand-written worst case pinned outside the generator: every fault
// class in a single campaign, including a mid-file flip whose refusal
// forces the discard-and-restart path.
TEST_F(FaultSoakTest, KitchenSinkScheduleConverges) {
  Schedule s;
  s.shards = 3;
  s.journaled = true;
  s.respawns = 6;
  s.heartbeat_ms = 150;
  s.plan_text =
      "kill=0@2,stall=1@2,drop=2@2,trunc=3@3,delay=0@3:2,"
      "resize=4@5,interrupt=8,tear=12:24,flip=16:100,kill=1@20";
  const exp::ExperimentSpec spec = soak_spec();
  exp::SweepRunner reference_runner(/*threads=*/1);
  const exp::ExperimentReport reference = reference_runner.run(spec);
  const exp::ExperimentReport survived = run_schedule(spec, s, journal_);
  EXPECT_EQ(csv_bytes(reference), csv_bytes(survived));
  EXPECT_EQ(json_bytes(reference), json_bytes(survived));
}

}  // namespace
}  // namespace coopcr
