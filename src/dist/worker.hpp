// coopcr/dist/worker.hpp
//
// The worker half of the distributed sweep: a single process that serves
// (grid point × replica) work units over the dist/wire.hpp pull protocol.
//
// A worker is spawned by DistSweepRunner either as a fork of the
// coordinator (the spec is inherited) or via fork+exec of a driver binary
// that rebuilds the same spec from its own command line (coopcr_sweep
// --worker). Either way the worker expands the grid itself, announces the
// resulting spec digest in its kHello, and then loops: read kUnit, run the
// replica with MonteCarloCampaign::run_replica_task, ship the finished
// slot back as kResult. The coordinator refuses a digest that does not
// match its own grid, so an exec'd worker can never silently compute a
// different experiment.

#pragma once

#include <vector>

#include "exp/experiment.hpp"

namespace coopcr::dist {

/// Deterministic fault hooks a worker applies to itself, carried either
/// in-memory (fork mode) or via --stall flags (exec mode). DistSweepRunner
/// fills them at spawn from the FaultPlan's stall actions.
struct WorkerDirectives {
  /// Sleep `ms` milliseconds *before* sending result number
  /// `before_result` (1-based) — long enough sleeps trip the coordinator's
  /// heartbeat deadline (DistOptions::heartbeat_ms).
  struct Stall {
    int before_result = 0;
    int ms = 0;
  };
  std::vector<Stall> stalls;
};

/// Serve work units for `spec` on the given pipe fds until kShutdown or
/// EOF, applying `directives` at their trigger points. Returns normally on
/// shutdown; throws coopcr::Error on protocol violations.
void worker_serve(const exp::ExperimentSpec& spec, int in_fd, int out_fd,
                  const WorkerDirectives& directives);

}  // namespace coopcr::dist
