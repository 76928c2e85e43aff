// coopcr/dist/fault_injection.hpp
//
// Deterministic fault-injection harness for the distributed sweep engine.
//
// A FaultPlan is a scripted list of faults the coordinator fires at exact,
// reproducible trigger points while a sweep runs: SIGKILL worker k once n
// fresh results have landed, drop a specific inbound wire frame, SIGSTOP
// a worker as it is handed a unit (the heartbeat deadline then reaps it),
// tear or bit-flip the campaign journal, abort the coordinator mid-run, or
// resize the fleet. Every fault fires from the coordinator; workers carry
// no fault logic. Each fault has a recovery path of its own: a frame that
// arrives late is a slow unit, and a stream cut mid-frame is handled
// exactly like a dropped frame, so neither is a separate fault.
// DistOptions::fault_plan carries the plan into DistSweepRunner; the hook
// seam is compiled in always and inert when the plan is empty: an empty
// plan, or one whose triggers are never reached, gives artifacts
// byte-identical to a run without a plan and fires no action
// (tests/dist/test_fault_injection.cpp). Its wall-clock cost is not gated.
//
// Triggers are deterministic by construction: "after n units" counts fresh
// journaled results in the coordinator (a total order), "frame f" counts
// frames popped from one worker's stream and "unit n" counts units
// dispatched to one worker (per-worker total orders).
// The per-action fired flags live in the plan object itself, so a plan held
// in a shared_ptr survives an injected interrupt and does not re-fire on
// the resume attempt — which is exactly how tests/dist/test_fault_soak.cpp
// replays hundreds of kill/tear/interrupt schedules to completion and
// asserts the artifacts stay byte-identical to the fault-free run.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace coopcr::dist {

enum class FaultKind {
  kKillWorker,     ///< SIGKILL worker w once n fresh results landed
  kStallWorker,    ///< SIGSTOP worker w as its n-th unit is dispatched
  kDropFrame,      ///< discard worker w's f-th inbound frame, kill w
  kTearJournal,    ///< append a torn partial block, then abort the run
  kFlipJournalByte,  ///< XOR one journal byte at a chosen offset, then abort
  kInterrupt,      ///< abort the coordinator once n fresh results landed
  kResize,         ///< resize the worker fleet to s shards
  kSignal,         ///< raise SIGUSR1/SIGUSR2 in the coordinator
};

/// One scripted fault. Which fields matter depends on `kind`; `fired`
/// guarantees single-shot semantics across resume attempts.
struct FaultAction {
  FaultKind kind = FaultKind::kInterrupt;
  int worker = 0;       ///< target worker index, in spawn order
  /// Fresh-result trigger (0 fires before any result); for kStallWorker,
  /// the 1-based number of the unit dispatched to `worker`.
  int after_units = 0;
  int frame = 0;        ///< 1-based inbound frame number (kDropFrame)
  int tear_bytes = 0;    ///< kTearJournal garbage byte count
  std::uint64_t offset = 0;  ///< kFlipJournalByte file offset
  int shards = 0;            ///< kResize new fleet size
  int signal = 0;            ///< kSignal signal number
  bool fired = false;
};

/// A scripted, replayable fault schedule. Build fluently or parse from the
/// --fault-plan / COOPCR_FAULT_PLAN knob grammar (comma-separated):
///
///   kill=W@N        SIGKILL worker W after N fresh results
///   stall=W@N       SIGSTOP worker W as its N-th unit is dispatched; the
///                   heartbeat (DistOptions::heartbeat_ms, required) then
///                   SIGKILLs it and the unit re-runs elsewhere
///   drop=W@F        discard worker W's F-th inbound frame (worker is then
///                   killed — its stream is no longer trustworthy); frame 1
///                   is the kHello, so F = K+1 drops the K-th result
///   tear=N:B        after N fresh results, append B garbage bytes to the
///                   journal and abort (a torn-tail crash)
///   flip=N:OFF      after N fresh results, XOR the journal byte at file
///                   offset OFF and abort (silent corruption)
///   interrupt=N     abort the coordinator after N fresh results
///   resize=S@N      resize the fleet to S workers after N fresh results
class FaultPlan {
 public:
  FaultPlan& kill_worker(int worker, int after_units);
  FaultPlan& stall_worker(int worker, int unit);
  FaultPlan& drop_frame(int worker, int frame);
  FaultPlan& tear_journal(int after_units, int garbage_bytes);
  FaultPlan& flip_journal_byte(int after_units, std::uint64_t offset);
  FaultPlan& interrupt(int after_units);
  FaultPlan& resize(int shards, int after_units);

  /// Raise SIGUSR1 (grow by one) or SIGUSR2 (shrink by one) in the
  /// coordinator after `after_units` fresh results: an operator's resize
  /// signal on a deterministic trigger, so the signal path can be tested
  /// without racing a wall clock. Builder only; the knob grammar scripts
  /// resizes with resize=S@N.
  FaultPlan& raise_signal(int signal, int after_units);

  /// Parse the knob grammar above; throws coopcr::Error naming `knob` on
  /// any malformed action. Empty text parses to an empty (inert) plan.
  static FaultPlan parse(const std::string& text, const std::string& knob);

  bool empty() const { return actions_.size() == 0; }

  /// True when the plan tears or flips the journal — those actions need
  /// DistOptions::journal set, and the runner refuses them without one.
  bool touches_journal() const;

  /// True when the plan stalls a worker — a stopped worker is only ever
  /// reaped by the heartbeat, so the runner refuses a stall without
  /// DistOptions::heartbeat_ms.
  bool stalls_workers() const;

  // --- runtime hooks (called by DistSweepRunner) ---

  /// Pop every unfired unit-triggered action due at `fresh_results`
  /// (kill/tear/flip/interrupt/resize/signal); each is marked fired.
  std::vector<FaultAction> take_due(int fresh_results);

  /// Pop the unfired drop scripted for worker `worker`'s `frame`-th
  /// inbound frame, marking it fired. True when one matched.
  bool take_drop(int worker, int frame);

  /// Pop the unfired stall scripted for the `unit`-th unit dispatched to
  /// worker `worker`, marking it fired. True when one matched.
  bool take_stall(int worker, int unit);

  const std::vector<FaultAction>& actions() const { return actions_; }

 private:
  std::vector<FaultAction> actions_;
};

/// Append `garbage_bytes` of a deliberately torn partial block to the open
/// journal fd — the byte pattern decodes as an absurd length prefix, so
/// replay always treats it as a torn tail.
void append_torn_journal_tail(int fd, int garbage_bytes);

/// XOR the byte at `offset` in the journal file at `path` with 0xFF —
/// guaranteed corruption regardless of the original value. Throws
/// coopcr::Error when the file cannot be opened or `offset` is past EOF.
void flip_journal_byte_at(const std::string& path, std::uint64_t offset);

}  // namespace coopcr::dist
