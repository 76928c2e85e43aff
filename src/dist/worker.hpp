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
// different experiment. Workers carry no fault logic: every scripted fault
// (dist/fault_injection.hpp) fires from the coordinator.

#pragma once

#include "exp/experiment.hpp"

namespace coopcr::dist {

/// Serve work units for `spec` on the given pipe fds until kShutdown or a
/// clean EOF. Returns normally on either; throws coopcr::Error on protocol
/// violations, including a stream that ends mid-frame.
void worker_serve(const exp::ExperimentSpec& spec, int in_fd, int out_fd);

}  // namespace coopcr::dist
