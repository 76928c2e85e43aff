// coopcr/dist/transport.hpp
//
// Worker launch: how the coordinator's byte stream reaches a worker
// process.
//
// The wire protocol (dist/wire.hpp) only needs two file descriptors — one
// the coordinator writes kUnit/kShutdown into, one it reads kHello/kResult
// from — and exec-mode workers always serve on the fixed
// kWorkerInFd/kWorkerOutFd descriptors. Each worker gets two unidirectional
// pipes. spawn_worker absorbs the fork and fork+exec launch paths so
// DistSweepRunner never touches pipe(), fork() or dup2() directly.

#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

#include "exp/experiment.hpp"

namespace coopcr::dist {

/// How to launch one worker. `command` empty forks the current process
/// (the spec is inherited in memory); non-empty fork+execs the command with
/// its pipe ends landed on kWorkerInFd/kWorkerOutFd.
struct WorkerLaunch {
  const exp::ExperimentSpec* spec = nullptr;  ///< fork mode (required)
  std::vector<std::string> command;           ///< exec mode when non-empty
  /// Coordinator-side fds a forked child must close (the journal, other
  /// workers' pipe ends) — a child keeping a dead sibling's pipe alive
  /// would mask its EOF.
  std::vector<int> extra_close;
};

/// Coordinator-side endpoint of a launched worker.
struct WorkerEndpoint {
  pid_t pid = -1;
  int to_fd = -1;    ///< coordinator → worker
  int from_fd = -1;  ///< worker → coordinator
};

/// Launch one worker process. Throws coopcr::Error when the pipe, fork or
/// exec setup fails.
WorkerEndpoint spawn_worker(const WorkerLaunch& launch);

}  // namespace coopcr::dist
