// coopcr/exp/executor.hpp
//
// The backend-neutral sweep execution interface.
//
// SweepExecutor is the one contract every sweep engine implements:
// `run(spec) -> ExperimentReport`. Sequential stopping runs inside `run` on
// both backends. (Adaptive drivers whose next grid is data-dependent, such
// as fig3's lockstep bisection, hold an exp::SweepRunner and call its
// run_batch directly.)
// Two backends ship with the repo — exp::SweepRunner (shared thread pool,
// in-process) and dist::DistSweepRunner (multi-process shard workers with a
// durable journal) — and both produce byte-identical reports for the same
// spec, so callers select an engine by *options*, never by concrete type:
//
//   exp::ExecutorOptions options;
//   options.backend = exp::ExecutorBackend::kDist;
//   options.shards = 4;
//   auto executor = exp::make_sweep_executor(options);
//   exp::ExperimentReport report = executor->run(spec);
//
// cli/coopcr_sweep and the serve/ advisor's on-demand fallback campaigns
// are both built on this interface.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/monte_carlo.hpp"
#include "exp/experiment.hpp"
#include "exp/report.hpp"

namespace coopcr::dist {
class FaultPlan;  // dist/fault_injection.hpp — kept out of this header
}  // namespace coopcr::dist

namespace coopcr::exp {

/// Abstract sweep engine. Implementations must honour the determinism
/// contract: for the same expanded spec, reports are bit-identical across
/// backends, thread counts, shard counts and resume histories.
class SweepExecutor {
 public:
  virtual ~SweepExecutor() = default;

  /// Stable backend identifier, e.g. "in-process" or "dist".
  virtual std::string backend_name() const = 0;

  /// Expand `spec` and run the full grid.
  virtual ExperimentReport run(const ExperimentSpec& spec) = 0;

  /// Called after each grid point's report is reduced, in grid order.
  /// Cleared with nullptr.
  using PointCallback =
      std::function<void(const GridPoint&, const MonteCarloReport&)>;
  virtual SweepExecutor& on_point(PointCallback callback) = 0;
};

/// Which sweep engine make_sweep_executor builds.
enum class ExecutorBackend {
  kInProcess,  ///< exp::SweepRunner on a shared thread pool
  kDist,       ///< dist::DistSweepRunner across worker processes
};

/// The one options struct of both engines: backend selection plus every
/// knob. Fields that do not apply to the selected backend are ignored.
/// dist::DistOptions is this struct under its dist name.
struct ExecutorOptions {
  ExecutorBackend backend = ExecutorBackend::kInProcess;

  /// In-process: thread-pool size; 0 selects hardware concurrency.
  int threads = 0;

  /// Dist: worker process count. COOPCR_SHARDS is the conventional env
  /// knob (cli/coopcr_sweep.cpp); at most one worker per pending unit is
  /// actually spawned.
  int shards = 2;

  /// Dist: campaign journal path; empty disables journaling (the sweep is
  /// then not resumable). A fresh run refuses to overwrite an existing
  /// journal; set `resume` to continue it instead.
  std::string journal;

  /// Dist: replay `journal` before dispatching: completed units are
  /// installed from the journal and only the missing ones run. The journal
  /// header must match this spec's digest, dimensions and code version.
  bool resume = false;

  /// Dist: worker launch command (fork+exec). Empty forks the current
  /// process — the worker inherits the spec, which is why specs never need
  /// serialising. When set, the command must start a process that rebuilds
  /// the same spec and calls worker_serve on kWorkerInFd/kWorkerOutFd
  /// (coopcr_sweep --worker does); the coordinator verifies the worker's
  /// digest before dispatching.
  std::vector<std::string> worker_command;

  /// Dist: respawn budget: how many replacement workers may be spawned over
  /// the whole run to keep the fleet at target strength after deaths
  /// (including heartbeat kills and fault-plan casualties). 0 requeues a
  /// casualty's unit to the survivors without replacing it.
  int max_respawns = 0;

  /// Dist: > 0: a worker with a unit in flight that has been silent this
  /// many milliseconds is presumed hung, SIGKILLed, and its unit re-queued
  /// (respawning within budget). 0 disables the deadline, and then a fault
  /// plan that stalls a worker is refused.
  int heartbeat_ms = 0;

  /// Dist: scripted faults and fleet resizes (see dist/fault_injection.hpp):
  /// worker kills, frame drops, stalls (SIGSTOP at dispatch; needs
  /// heartbeat_ms), journal damage, coordinator interrupts (`interrupt=N`
  /// aborts after N fresh results) and elastic resizes (`resize=S@N`;
  /// shrinking drains busy workers, growing spawns immediately, and
  /// SIGUSR1/SIGUSR2 adjust the fleet by ±1 on top). The hook seam is
  /// always compiled in and inert when the plan is null or empty. Held by
  /// shared_ptr so fired single-shot actions stay fired across a resume
  /// retry loop — the soak's core trick. The CLI builds it from
  /// --fault-plan / COOPCR_FAULT_PLAN.
  std::shared_ptr<dist::FaultPlan> fault_plan;
};

/// Build the selected engine behind the SweepExecutor interface.
std::unique_ptr<SweepExecutor> make_sweep_executor(
    const ExecutorOptions& options = {});

}  // namespace coopcr::exp
