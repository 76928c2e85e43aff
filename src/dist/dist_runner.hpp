// coopcr/dist/dist_runner.hpp
//
// Multi-process sweep execution behind the exp::SweepExecutor interface:
// the coordinator half of the dist/ subsystem.
//
// DistSweepRunner expands an ExperimentSpec exactly like SweepRunner, but
// instead of scheduling (grid point × replica) tasks on a thread pool it
// shards them across a fleet of worker *processes* (fork of the current
// process by default, or fork+exec of a driver command) that pull units
// over the dist/wire.hpp protocol on a pair of pipes each, see
// dist/transport.hpp. Dynamic pull is built-in work stealing: a fast
// worker simply asks for more. Completed units are appended to a
// crash-safe campaign journal (dist/journal.hpp), so a SIGKILLed sweep
// resumes by replaying the journal and dispatching only the missing units.
//
// Determinism contract, extending the thread-invariance guarantee to
// processes and crashes: every unit writes a preassigned
// MonteCarloCampaign slot whose metrics are finished doubles, slots cross
// the wire and the journal bit-exactly, and reduction folds slots in
// (point, replica) order after all units complete. Reports are therefore
// byte-identical (CSV and JSON) across 1 thread-pool run, any shard count,
// any kill/respawn/resize history, and any resume point — pinned by
// tests/dist/test_dist_runner.cpp and universally quantified over
// scripted fault schedules by tests/dist/test_fault_soak.cpp.
//
// Fault model (docs/ARCHITECTURE.md "Failure model of the campaign
// engine"): a worker that dies mid-unit has its in-flight unit re-queued;
// with a respawn budget (max_respawns) the coordinator also replaces the
// casualty to keep the fleet at strength. A worker silent past
// heartbeat_ms with a unit in flight is presumed hung and killed (then
// respawned within budget). The fleet grows or shrinks mid-campaign via a
// scripted FaultPlan resize or SIGUSR1/SIGUSR2. The sweep only fails once
// no workers remain and the respawn budget is spent — and then the journal
// already holds every completed unit.

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dist/fault_injection.hpp"
#include "exp/executor.hpp"
#include "exp/experiment.hpp"
#include "exp/report.hpp"

namespace coopcr::dist {

/// Execution options for a distributed sweep: exp::ExecutorOptions, whose
/// dist fields document each knob (`backend` and `threads` are ignored).
using DistOptions = exp::ExecutorOptions;

class DistSweepRunner final : public exp::SweepExecutor {
 public:
  explicit DistSweepRunner(DistOptions options);

  std::string backend_name() const override { return "dist"; }

  /// Called after each grid point's report is reduced, in grid order —
  /// same contract as exp::SweepRunner::on_point.
  DistSweepRunner& on_point(PointCallback callback) override;

  /// Expand `spec` and run the full grid across the worker fleet. A spec
  /// with a target CI width runs its sequential-stopping rounds here, each
  /// round boundary journaled so a resume re-enters the interrupted round.
  /// Throws coopcr::Error on journal/digest mismatches, when every worker
  /// died with units outstanding and no respawn budget remains, when the
  /// spec requests keep_results (full SimulationResults never cross the
  /// process boundary), or when the fault plan needs a journal or a
  /// heartbeat the options do not set.
  exp::ExperimentReport run(const exp::ExperimentSpec& spec) override;

  /// Worker processes the last run() started: the first fleet plus every
  /// respawn and every worker a resize (scripted or signalled) added.
  int workers_started() const { return workers_started_; }

 private:
  DistOptions options_;
  PointCallback on_point_;
  int workers_started_ = 0;
};

}  // namespace coopcr::dist
