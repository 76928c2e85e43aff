// coopcr/core/simulation.hpp
//
// The full-platform discrete-event simulation (paper §5).
//
// One `Simulation` instance executes one set of initial conditions (job list
// + failure trace) under one strategy and produces segment-clipped node-time
// accounting. The Monte Carlo harness (core/monte_carlo) replicates this over
// many initial conditions; `run_baseline` produces the fault-free, CR-free,
// interference-free reference of §6.1 used as the waste-ratio denominator.
//
// Job lifecycle (§5 "Execution Simulation"):
//
//   scheduled → initial input (blocking; recovery read for restarts)
//             → [ compute ⇄ checkpoint / routine I/O ]*
//             → final output (blocking) → done
//
// A node failure kills the owning job; a restart job is resubmitted at the
// highest priority with the remaining work from the last snapshot and a
// recovery read as its input.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/accounting.hpp"
#include "core/config.hpp"
#include "platform/failure_model.hpp"
#include "workload/job.hpp"

namespace coopcr {

/// Event/job counters of one run (diagnostics and tests).
struct SimulationCounters {
  std::uint64_t failures_total = 0;    ///< failures fired by the trace
  std::uint64_t failures_on_jobs = 0;  ///< failures that killed a job
  std::uint64_t checkpoint_requests = 0;
  std::uint64_t checkpoints_completed = 0;
  std::uint64_t checkpoints_aborted = 0;   ///< failure during commit
  std::uint64_t checkpoints_cancelled = 0; ///< overtaken by job completion
  std::uint64_t jobs_started = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t restarts_submitted = 0;
  std::uint64_t io_requests = 0;
  // Tiered (burst-buffer) commit path; all zero under direct commits.
  std::uint64_t bb_absorbs = 0;           ///< checkpoints absorbed by the fast tier
  std::uint64_t bb_fallbacks = 0;         ///< tiered commits sent to the PFS (no space)
  std::uint64_t bb_drains_completed = 0;  ///< checkpoints durable on the PFS
  std::uint64_t bb_drains_aborted = 0;    ///< drains lost to a node failure
  std::uint64_t bb_drains_withdrawn = 0;  ///< drains dropped at job completion
  std::uint64_t bb_drains_superseded = 0; ///< pending drains replaced by a newer commit
};

/// Outcome of one simulation run.
struct SimulationResult {
  Accounting accounting;        ///< per-category unit-seconds in the segment
  SimulationCounters counters;
  /// Per-category joules, accumulated alongside the time accounting from the
  /// platform's PowerProfile (EnergyModel in core/accounting.hpp).
  EnergyBreakdown energy;
  double useful = 0.0;          ///< accounting.useful()
  double wasted = 0.0;          ///< accounting.wasted()
  double avg_utilization = 0.0; ///< mean allocated node fraction over segment
  double stop_time = 0.0;       ///< simulated time at which the run stopped
  std::uint64_t events = 0;     ///< engine events executed
  std::uint64_t events_scheduled = 0;  ///< events ever scheduled on the queue

  SimulationResult(sim::Time seg_start, sim::Time seg_end)
      : accounting(seg_start, seg_end) {}
};

namespace detail {
struct SimWorkspaceImpl;
}  // namespace detail

/// Reusable simulation substrate: the discrete-event engine (slab-backed
/// event queue) and the I/O subsystems, kept warm across runs so a
/// strategy×replica loop allocates only while the slabs grow to their
/// high-water mark — steady state schedules, admits and completes with zero
/// heap traffic. Reuse is behaviour-neutral: every component resets to a
/// pristine state (same ids, same event order), so results are bit-identical
/// to fresh construction. One workspace serves one thread at a time;
/// core/monte_carlo.cpp keeps one per worker task across its strategy loop.
class SimWorkspace {
 public:
  SimWorkspace();
  ~SimWorkspace();
  SimWorkspace(const SimWorkspace&) = delete;
  SimWorkspace& operator=(const SimWorkspace&) = delete;

  detail::SimWorkspaceImpl& impl() { return *impl_; }

 private:
  std::unique_ptr<detail::SimWorkspaceImpl> impl_;
};

/// Checkpoint cycles (the strategy's request delay, then a commit of C_i)
/// a job of `cls` runs before `stop_time`: stop_time / (delay + C_i). The
/// events of a run grow with it. Throws coopcr::Error when a cycle does not
/// advance the clock at `stop_time`: such a run would never end. Infinite
/// when `stop_time` is.
double checkpoint_cycles(const StrategySpec& strategy,
                         const ClassOnPlatform& cls, double stop_time);

/// Run one simulation. `jobs` is the shuffled arrival-ordered list; `failures`
/// the pre-drawn trace (times beyond the measured horizon are ignored).
SimulationResult simulate(const SimulationConfig& config,
                          const std::vector<Job>& jobs,
                          const std::vector<Failure>& failures);

/// Same run on a caller-owned workspace (bit-identical results, no per-run
/// substrate allocation once the workspace is warm).
SimulationResult simulate(const SimulationConfig& config,
                          const std::vector<Job>& jobs,
                          const std::vector<Failure>& failures,
                          SimWorkspace& workspace);

/// Fault-free, checkpoint-free, interference-free run over the same job list
/// (the baseline of §6.1). Returns the same result type; `useful` is the
/// waste-ratio denominator.
SimulationResult simulate_baseline(const SimulationConfig& config,
                                   const std::vector<Job>& jobs);

/// Workspace-reusing twin of simulate_baseline.
SimulationResult simulate_baseline(const SimulationConfig& config,
                                   const std::vector<Job>& jobs,
                                   SimWorkspace& workspace);

}  // namespace coopcr
