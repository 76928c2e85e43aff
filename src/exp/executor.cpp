#include "exp/executor.hpp"

#include "dist/dist_runner.hpp"
#include "exp/sweep_runner.hpp"
#include "util/error.hpp"

namespace coopcr::exp {

std::unique_ptr<SweepExecutor> make_sweep_executor(
    const ExecutorOptions& options) {
  switch (options.backend) {
    case ExecutorBackend::kInProcess:
      return std::make_unique<SweepRunner>(options.threads);
    case ExecutorBackend::kDist:
      return std::make_unique<dist::DistSweepRunner>(options);
  }
  throw Error("unknown executor backend");
}

}  // namespace coopcr::exp
