#include "sim/engine.hpp"

#include "util/error.hpp"

namespace coopcr::sim {

bool Engine::cancel(EventId id) { return queue_.cancel(id); }

void Engine::advance_to(Time t) {
  COOPCR_ASSERT(t >= now_, "time must be monotone");
  now_ = t;
  queue_.set_now(t);
}

std::uint64_t Engine::run(Time horizon) {
  stop_requested_ = false;
  const bool bounded = horizon != kTimeNever;
  std::uint64_t n = 0;
  while (!queue_.empty() && !stop_requested_) {
    if (bounded && queue_.next_time() > horizon) break;
    auto fired = queue_.pop();
    advance_to(fired.time);
    fired.fn();
    ++n;
    ++executed_;
  }
  if (queue_.empty() && horizon != kTimeNever && now_ < horizon) {
    // Drained before the horizon: advance the clock so that now() reflects
    // the simulated span the caller asked for.
    advance_to(horizon);
  }
  return n;
}

std::uint64_t Engine::run_steps(std::uint64_t max_events) {
  stop_requested_ = false;
  std::uint64_t n = 0;
  while (n < max_events && !queue_.empty() && !stop_requested_) {
    auto fired = queue_.pop();
    advance_to(fired.time);
    fired.fn();
    ++n;
    ++executed_;
  }
  return n;
}

}  // namespace coopcr::sim
