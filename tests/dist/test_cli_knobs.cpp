// coopcr_sweep knob-interaction coverage: every bad flag/env combination
// must fail with a non-zero exit and an error that names the offending
// knob, through the real binary — the same COOPCR_CHECK seams the library
// tests exercise, but via argv and the COOPCR_* environment. coopcr_advisor
// shares the strict numeric flag parser and is checked for the same
// refusals.
//
// ctest runs from the build root, next to the coopcr_sweep and
// coopcr_advisor binaries; set COOPCR_SWEEP_BIN / COOPCR_ADVISOR_BIN to
// point elsewhere when running by hand.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

namespace coopcr {
namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

std::string sweep_binary() {
  if (const char* bin = std::getenv("COOPCR_SWEEP_BIN")) return bin;
  return "./coopcr_sweep";
}

std::string advisor_binary() {
  if (const char* bin = std::getenv("COOPCR_ADVISOR_BIN")) return bin;
  return "./coopcr_advisor";
}

CliResult run_cli(const std::string& args, const std::string& env = "",
                  const std::string& binary = sweep_binary()) {
  const std::string command = (env.empty() ? "" : "env " + env + " ") +
                              binary + " " + args + " 2>&1";
  CliResult result;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    result.output.append(buffer, n);
  }
  const int status = ::pclose(pipe);
  result.exit_code = (status >= 0 && WIFEXITED(status))
                         ? WEXITSTATUS(status)
                         : -1;
  return result;
}

class CliKnobsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!std::filesystem::exists(sweep_binary())) {
      GTEST_SKIP() << "coopcr_sweep binary not found at " << sweep_binary()
                   << " — run under ctest from the build root or set "
                      "COOPCR_SWEEP_BIN";
    }
  }

  /// Run a combination that must be refused, and assert the error names
  /// `knob`.
  void expect_refusal(const std::string& args, const std::string& knob,
                      const std::string& env = "",
                      const std::string& binary = sweep_binary()) {
    const CliResult result = run_cli(args, env, binary);
    EXPECT_NE(result.exit_code, 0)
        << "expected failure for: " << env << " " << args
        << "\noutput: " << result.output;
    EXPECT_NE(result.output.find(knob), std::string::npos)
        << "error for '" << env << " " << args << "' must name " << knob
        << ", got:\n"
        << result.output;
  }

  /// Run `args` with `--shards 0` and with `dist_args` on top, and assert
  /// both write byte-identical artifacts.
  void expect_same_artifacts(const std::string& args,
                             const std::string& dist_args) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() /
                         ("coopcr_cli_knobs_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    const std::string ref = (dir / "ref").string();
    const std::string dist = (dir / "dist").string();
    const CliResult reference = run_cli(args + " --shards 0 --out " + ref);
    ASSERT_EQ(reference.exit_code, 0) << reference.output;
    const CliResult distributed =
        run_cli(args + " " + dist_args + " --out " + dist);
    ASSERT_EQ(distributed.exit_code, 0) << distributed.output;
    for (const char* name : {"sweep_demo.csv", "sweep_demo.json"}) {
      std::ifstream a(fs::path(ref) / name, std::ios::binary);
      std::ifstream b(fs::path(dist) / name, std::ios::binary);
      ASSERT_TRUE(a.good() && b.good()) << name;
      const std::string bytes_a((std::istreambuf_iterator<char>(a)),
                                std::istreambuf_iterator<char>());
      const std::string bytes_b((std::istreambuf_iterator<char>(b)),
                                std::istreambuf_iterator<char>());
      EXPECT_EQ(bytes_a, bytes_b) << name;
    }
    fs::remove_all(dir);
  }
};

TEST_F(CliKnobsTest, ResumeWithoutJournalNamesTheJournalKnob) {
  expect_refusal("--spec demo --replicas 2 --shards 2 --resume", "--journal");
}

TEST_F(CliKnobsTest, DistOnlyKnobsAreRefusedAtShardsZero) {
  expect_refusal("--spec demo --replicas 2 --shards 0 --fault-plan kill=0@1",
                 "--shards");
  expect_refusal("--spec demo --replicas 2 --shards 0 --respawn 2",
                 "--shards");
  expect_refusal("--spec demo --replicas 2 --shards 0 --heartbeat-ms 100",
                 "--shards");
}

TEST_F(CliKnobsTest, BadKnobValuesNameTheirOwnKnob) {
  expect_refusal("--spec demo --replicas 2 --shards 2 --fault-plan launch=0@1",
                 "--fault-plan");
  expect_refusal("--spec demo --replicas 2 --shards 2 --fault-plan kill=0",
                 "--fault-plan");
  // A stopped worker is reaped by the heartbeat alone.
  expect_refusal("--spec demo --replicas 2 --shards 2 --fault-plan stall=0@1",
                 "--heartbeat-ms");
}

TEST_F(CliKnobsTest, RemovedFlagsAreUnknownArguments) {
  // Flags whose jobs --fault-plan now does (drop=, interrupt=, resize=)
  // must fail loudly, so an old script never runs something else.
  for (const char* flag : {"--kill-worker-after 1", "--max-units 3",
                           "--transport pipe", "--resize-at 2:3"}) {
    expect_refusal(std::string("--spec demo --replicas 2 --shards 2 ") + flag,
                   "unknown argument");
  }
}

TEST_F(CliKnobsTest, FaultedDistRunMatchesInProcessArtifactBytes) {
  // The positive interaction: respawn, an elastic resize, a scripted kill
  // and a dropped frame all through real argv — and the artifacts still
  // match the in-process run byte for byte.
  expect_same_artifacts("--spec demo --replicas 2",
                        "--shards 2 --respawn 3 --heartbeat-ms 5000 "
                        "--fault-plan resize=3@2,kill=0@1,drop=1@2");
}

TEST_F(CliKnobsTest, ExecWorkersRebuildTheSpecFromTheCoordinatorsFlags) {
  // Every flag the spec digest covers reaches an exec worker, because the
  // worker runs with the coordinator's own command line; a worker that
  // rebuilt a different spec would be refused by the digest check.
  expect_same_artifacts(
      "--spec demo --replicas 2 --antithetic --target-ci 0.05 "
      "--max-replicas 8 --contrast Oblivious-Daly --strata-bins 2",
      "--shards 2 --exec-workers");
}

TEST_F(CliKnobsTest, NumericFlagsAreParsedAsStrictlyAsEnvKnobs) {
  // Leading whitespace and non-finite numbers are refused by flag as by
  // env knob (COOPCR_TARGET_CI=inf always was), in both CLIs.
  for (const std::string& binary : {sweep_binary(), advisor_binary()}) {
    if (!std::filesystem::exists(binary)) {
      ADD_FAILURE() << binary << " not found";
      continue;
    }
    expect_refusal("--replicas ' 2'", "--replicas", "", binary);
    expect_refusal("--target-ci inf", "--target-ci", "", binary);
    expect_refusal("--target-ci nan", "--target-ci", "", binary);
    expect_refusal("--replicas 2x", "--replicas", "", binary);
    expect_refusal("--replicas", "--replicas needs a value", "", binary);
  }
  expect_refusal("--spec demo --shards 2", "COOPCR_TARGET_CI",
                 "COOPCR_TARGET_CI=inf");
  expect_refusal("--ingest . --backend quantum", "--backend", "",
                 advisor_binary());
}

TEST_F(CliKnobsTest, EnvKnobFailuresNameTheEnvVariable) {
  // The same knobs through the COOPCR_* environment must name the env
  // variable, not the flag — the operator set the env, not argv.
  expect_refusal("--spec demo --replicas 2 --shards 2", "COOPCR_FAULT_PLAN",
                 "COOPCR_FAULT_PLAN=launch=0@1");
  expect_refusal("--spec demo --replicas 2 --shards 2",
                 "COOPCR_HEARTBEAT_MS", "COOPCR_HEARTBEAT_MS=1o0");
  expect_refusal("--spec demo --replicas 2 --shards 2", "COOPCR_RESPAWN",
                 "COOPCR_RESPAWN=-1");
}

}  // namespace
}  // namespace coopcr
