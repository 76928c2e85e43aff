// coopcr_sweep — distributed, resumable sweep campaigns from the command
// line.
//
// The CLI drives the exp::spec_registry of predefined experiments (a fast
// demo grid plus the paper's Figure 1 / Figure 2 sweeps) through either
// execution engine, selected purely via exp::ExecutorOptions and built
// behind the exp::SweepExecutor interface:
//
//   --shards 0   in-process exp::SweepRunner (the thread-pool reference)
//   --shards N   dist::DistSweepRunner with N worker processes
//
// Both paths produce byte-identical CSV/JSON artifacts — that equivalence
// is what the CI kill-resume smoke job diffs. With --journal the sweep is
// durable: kill it (or a worker) at any point and rerun with --resume to
// finish only the missing units.
//
//   args="--spec fig1 --replicas 20 --shards 4 --journal fig1.journal"
//   coopcr_sweep $args --out artifacts/
//   ...SIGKILL...
//   coopcr_sweep $args --resume --out artifacts/
//
// --exec-workers spawns workers by re-executing this binary with --worker
// and the coordinator's own flags (they rebuild the spec from that command
// line and the coordinator verifies the spec digest) instead of forking the
// coordinator's image —
// the mode a future multi-host launcher would use.
//
// Env knobs (flags win): COOPCR_SHARDS, COOPCR_JOURNAL, COOPCR_REPLICAS,
// COOPCR_CSV_DIR, COOPCR_RESPAWN, COOPCR_HEARTBEAT_MS, COOPCR_FAULT_PLAN.
//
// A running dist campaign resizes elastically on signals: SIGUSR1 grows the
// fleet by one worker, SIGUSR2 shrinks it by one (busy workers drain their
// in-flight unit first). Scripted resizes, worker kills and stalls, and
// coordinator interrupts all go through --fault-plan (resize=S@N, kill=W@N,
// stall=W@N, drop=W@F, interrupt=N). Every fault fires from the
// coordinator: a stall SIGSTOPs the worker as its N-th unit is dispatched,
// and --heartbeat-ms (required with a stall) reaps it.

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "coopcr.hpp"
#include "dist/wire.hpp"  // kWorkerInFd/kWorkerOutFd — below the facade

using namespace coopcr;

namespace {

void usage(std::ostream& os) {
  os << "usage: coopcr_sweep [options]\n"
        "  --spec NAME        experiment to run (--list-specs; default demo)\n"
        "  --replicas N       Monte Carlo replicas per grid point "
        "(COOPCR_REPLICAS; default 4)\n"
        "  --shards N         worker processes; 0 = in-process reference "
        "runner (COOPCR_SHARDS; default 2)\n"
        "  --journal PATH     durable campaign journal (COOPCR_JOURNAL)\n"
        "  --resume           replay --journal, run only the missing units\n"
        "  --out DIR          write <spec>.csv / <spec>.json artifacts "
        "(COOPCR_CSV_DIR)\n"
        "  --exec-workers     spawn workers by re-executing this binary\n"
        "  --antithetic       simulate replicas in antithetic pairs "
        "(COOPCR_ANTITHETIC; needs even --replicas)\n"
        "  --control-variate  closed-form control-variate estimator "
        "(COOPCR_CONTROL_VARIATE)\n"
        "  --target-ci W      sequential stopping: grow replicas until every "
        "95% CI is <= W, on any backend (COOPCR_TARGET_CI)\n"
        "  --max-replicas N   replica cap for --target-ci; 0 = 64x initial "
        "(COOPCR_MAX_REPLICAS)\n"
        "  --contrast NAME    paired strategy-contrast estimator vs reference "
        "strategy NAME (COOPCR_CONTRAST)\n"
        "  --strata-bins N    post-stratify estimates on N quantile bins of "
        "a workload feature (COOPCR_STRATA_BINS; 0 = off)\n"
        "  --strata-feature F stratification feature: work_total | work_jobs "
        "| work_max_share (COOPCR_STRATA_FEATURE)\n"
        "  --respawn N        budget for respawning dead workers "
        "(COOPCR_RESPAWN; default 0)\n"
        "  --heartbeat-ms N   kill workers silent past N ms with a unit in "
        "flight (COOPCR_HEARTBEAT_MS; 0 = off)\n"
        "  --fault-plan SPEC  scripted faults and resizes, e.g. "
        "kill=0@3,resize=4@5,interrupt=6 (COOPCR_FAULT_PLAN; see "
        "dist/fault_injection.hpp)\n"
        "  --list-specs       list registry specs and exit\n"
        "  --worker           internal: serve units on fds 3/4\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::string spec_name = "demo";
    int replicas = env::int_knob("COOPCR_REPLICAS", 4, 1);
    int shards = env::int_knob("COOPCR_SHARDS", 2, 0);
    std::string journal = env::string_knob("COOPCR_JOURNAL").value_or("");
    std::string out_dir;
    bool resume = false;
    bool exec_workers = false;
    bool worker_mode = false;
    bool antithetic = env::flag_knob("COOPCR_ANTITHETIC");
    bool control_variate = env::flag_knob("COOPCR_CONTROL_VARIATE");
    double target_ci = env::double_knob("COOPCR_TARGET_CI", 0.0, 0.0);
    int max_replicas = env::int_knob("COOPCR_MAX_REPLICAS", 0, 0);
    std::string contrast = env::string_knob("COOPCR_CONTRAST").value_or("");
    int strata_bins = env::int_knob("COOPCR_STRATA_BINS", 0, 0);
    std::string strata_feature =
        env::string_knob("COOPCR_STRATA_FEATURE").value_or("");
    int max_respawns = env::int_knob("COOPCR_RESPAWN", 0, 0);
    int heartbeat_ms = env::int_knob("COOPCR_HEARTBEAT_MS", 0, 0);
    std::string fault_plan_text =
        env::string_knob("COOPCR_FAULT_PLAN").value_or("");
    std::string fault_plan_knob = "COOPCR_FAULT_PLAN";

    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      // The value of a flag that takes one; consumes it.
      const auto value = [&]() -> std::string {
        COOPCR_CHECK(i + 1 < argc, arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--spec") {
        spec_name = value();
      } else if (arg == "--replicas") {
        replicas = env::parse_int(value(), arg, 1);
      } else if (arg == "--shards") {
        shards = env::parse_int(value(), arg, 0);
      } else if (arg == "--journal") {
        journal = value();
      } else if (arg == "--out") {
        out_dir = value();
      } else if (arg == "--resume") {
        resume = true;
      } else if (arg == "--exec-workers") {
        exec_workers = true;
      } else if (arg == "--antithetic") {
        antithetic = true;
      } else if (arg == "--control-variate") {
        control_variate = true;
      } else if (arg == "--target-ci") {
        target_ci = env::parse_double(value(), arg, 0.0);
      } else if (arg == "--max-replicas") {
        max_replicas = env::parse_int(value(), arg, 0);
      } else if (arg == "--contrast") {
        contrast = value();
      } else if (arg == "--strata-bins") {
        strata_bins = env::parse_int(value(), arg, 0);
      } else if (arg == "--strata-feature") {
        strata_feature = value();
      } else if (arg == "--respawn") {
        max_respawns = env::parse_int(value(), arg, 0);
      } else if (arg == "--heartbeat-ms") {
        heartbeat_ms = env::parse_int(value(), arg, 0);
      } else if (arg == "--fault-plan") {
        fault_plan_text = value();
        fault_plan_knob = "--fault-plan";
      } else if (arg == "--worker") {
        worker_mode = true;
      } else if (arg == "--list-specs") {
        for (const exp::NamedSpec& entry : exp::spec_registry()) {
          std::cout << entry.name << "\t" << entry.blurb << "\n";
        }
        return 0;
      } else if (arg == "--help" || arg == "-h") {
        usage(std::cout);
        return 0;
      } else {
        usage(std::cerr);
        throw Error("unknown argument: " + arg);
      }
    }

    // Registry specs stay pure functions of (name, replicas); the
    // variance-reduction knobs are overlaid afterwards — in worker mode too,
    // and *before* worker_serve, because the spec digest folds the pairing
    // options in and both sides must build the same campaign shape.
    exp::ExperimentSpec spec = exp::build_named_spec(spec_name, replicas);
    {
      MonteCarloOptions mc = spec.campaign_options();
      mc.antithetic = antithetic;
      mc.control_variate = control_variate;
      mc.target_ci_width = target_ci;
      mc.max_replicas = max_replicas;
      mc.contrast_reference = contrast;
      mc.strata_bins = strata_bins;
      if (!strata_feature.empty()) mc.strata_feature = strata_feature;
      spec.options(mc);
    }

    if (worker_mode) {
      // Exec-mode worker: rebuilt the spec above from the coordinator's
      // own flags; serve units on the fixed pipe fds until shutdown.
      dist::worker_serve(spec, dist::kWorkerInFd, dist::kWorkerOutFd);
      return 0;
    }

    if (!out_dir.empty()) {
      std::filesystem::create_directories(out_dir);
      ::setenv("COOPCR_CSV_DIR", out_dir.c_str(), 1);
    }

    std::cerr << "[coopcr_sweep] spec " << spec.name() << ": "
              << spec.grid_size() << " points x " << replicas
              << " replicas, engine "
              << (shards == 0 ? std::string("in-process")
                              : std::to_string(shards) + " shards")
              << (journal.empty() ? "" : ", journal " + journal)
              << (resume ? " (resume)" : "") << "\n";

    exp::ExecutorOptions options;
    if (shards == 0) {
      COOPCR_CHECK(!resume && journal.empty(),
                   "--journal/--resume require --shards >= 1");
      COOPCR_CHECK(max_respawns == 0 && heartbeat_ms == 0 &&
                       fault_plan_text.empty(),
                   "--respawn/--heartbeat-ms/--fault-plan require "
                   "--shards >= 1");
      options.backend = exp::ExecutorBackend::kInProcess;
      options.threads = env::int_knob("COOPCR_THREADS", 0, 0);
    } else {
      COOPCR_CHECK(!resume || !journal.empty(),
                   "--resume requires --journal (or COOPCR_JOURNAL)");
      options.backend = exp::ExecutorBackend::kDist;
      options.shards = shards;
      options.journal = journal;
      options.resume = resume;
      options.max_respawns = max_respawns;
      options.heartbeat_ms = heartbeat_ms;
      if (!fault_plan_text.empty()) {
        options.fault_plan = std::make_shared<dist::FaultPlan>(
            dist::FaultPlan::parse(fault_plan_text, fault_plan_knob));
      }
      if (exec_workers) {
        // The worker gets this command line and environment verbatim, so
        // it rebuilds the exact same spec; the flags only a coordinator
        // uses are parsed and then ignored, since worker mode returns
        // before it reads them.
        options.worker_command = {argv[0], "--worker"};
        options.worker_command.insert(options.worker_command.end(), argv + 1,
                                      argv + argc);
      }
    }
    std::unique_ptr<exp::SweepExecutor> executor =
        exp::make_sweep_executor(options);
    if (shards > 0) {
      executor->on_point(
          [](const exp::GridPoint& point, const MonteCarloReport&) {
            std::cerr << "[coopcr_sweep] " << point.label() << " done\n";
          });
    }
    exp::ExperimentReport report = executor->run(spec);

    // Human-readable summary on stdout; machine artifacts via --out.
    for (const auto& pr : report.points) {
      std::cout << pr.point.label();
      // Under sequential stopping each point may have grown to a different
      // replica count — surface it next to the label.
      if (pr.report.vr_enabled) {
        std::cout << " [replicas " << pr.report.replicas << "]";
      }
      std::cout << "\n";
      for (const auto& outcome : pr.report.outcomes) {
        std::cout << "  " << outcome.strategy.name()
                  << ": waste ratio mean = "
                  << TablePrinter::fmt(outcome.waste_ratio.mean(), 4) << "\n";
      }
    }
    if (const auto path = report.emit_csv()) {
      std::cout << "[csv] wrote " << *path << "\n";
    }
    if (const auto path = report.emit_json()) {
      std::cout << "[json] wrote " << *path << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "coopcr_sweep: " << e.what() << "\n";
    return 1;
  }
}
