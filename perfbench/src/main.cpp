// perfbench — the coopcr benchmark driver binary.
//
//   perfbench --workload sweep_fig1|advisor_mix --seed N
//             --seconds S --trace 0|1 [--work-dir DIR] [--inject-mismatch]
//
// Runs one workload for S seconds of measured work and prints, in order:
// human-readable notes (traced runs: the per-grid-point phase table and the
// self-time table), one {"context": ...} line with the run context, and as
// the last line the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// whose metrics are the end-to-end set (--trace 0) or the per-layer set
// (--trace 1). perfbench/run.py builds this binary and forwards to it.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.hpp"

namespace {

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] "
               "[--inject-mismatch]\n",
               message);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
      } else if (arg == "--work-dir") {
        opt.work_dir = value();
      } else if (arg == "--inject-mismatch") {
        opt.inject_mismatch = true;
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("malformed value for " + arg).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opt = parse(argc, argv);
  perfbench::Outcome out;
  try {
    std::filesystem::create_directories(opt.work_dir);
    if (opt.workload == "sweep_fig1") {
      out = perfbench::run_sweep_fig1(opt);
    } else if (opt.workload == "advisor_mix") {
      out = perfbench::run_advisor_mix(opt);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  for (const std::string& line : out.notes) std::printf("%s\n", line.c_str());
  const double error_rate =
      out.attempted ? static_cast<double>(out.failed) /
                          static_cast<double>(out.attempted)
                    : 1.0;
  out.context.add_number("error_rate", error_rate);
  out.context.add_string("loadavg_end", perfbench::load_average());
  out.context.add_string("workload", opt.workload);
  out.context.add_number("seed", static_cast<double>(opt.seed));
  out.context.add_number("trace", opt.trace ? 1 : 0);
  std::printf("{\"context\": %s}\n", out.context.to_json().c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      out.failed == 0 && out.attempted > 0 ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed),
      out.metrics.to_json().c_str());
  std::fflush(stdout);
  return 0;
}
