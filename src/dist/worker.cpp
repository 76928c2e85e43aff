#include "dist/worker.hpp"

#include <time.h>

#include <cerrno>
#include <memory>
#include <vector>

#include "dist/journal.hpp"
#include "dist/wire.hpp"
#include "util/error.hpp"

namespace coopcr::dist {

namespace {

/// Sleep that survives EINTR — a stalled worker must stall for the full
/// scripted duration or the heartbeat test turns flaky.
void sleep_ms(int ms) {
  struct timespec ts;
  ts.tv_sec = ms / 1000;
  ts.tv_nsec = static_cast<long>(ms % 1000) * 1000000L;
  while (::nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

}  // namespace

void worker_serve(const exp::ExperimentSpec& spec, int in_fd, int out_fd,
                  const WorkerDirectives& directives) {
  // The worker expands the grid itself (fork mode inherits the spec; exec
  // mode rebuilt it from the command line) and proves which grid it holds
  // by announcing the digest.
  const std::vector<exp::GridPoint> points = spec.expand();
  std::vector<std::unique_ptr<MonteCarloCampaign>> campaigns;
  campaigns.reserve(points.size());
  MonteCarloOptions options = spec.campaign_options();
  options.keep_results = false;  // full results never cross the wire
  for (const exp::GridPoint& point : points) {
    campaigns.push_back(std::make_unique<MonteCarloCampaign>(
        point.scenario, spec.strategy_set(), options));
  }

  HelloMsg hello;
  hello.spec_digest = spec_digest(spec, points);
  write_frame(out_fd, MsgType::kHello, encode_hello(hello));

  int units_done = 0;
  for (;;) {
    const std::optional<Frame> frame = read_frame(in_fd);
    if (!frame) return;  // coordinator went away — nothing durable to lose
    if (frame->type == MsgType::kShutdown) return;
    COOPCR_CHECK(frame->type == MsgType::kUnit,
                 "worker expected kUnit, got frame type " +
                     std::to_string(static_cast<int>(frame->type)));
    const UnitMsg unit = decode_unit(frame->payload);
    COOPCR_CHECK(unit.point < campaigns.size(), "unit addresses grid point " +
                                                    std::to_string(unit.point) +
                                                    " outside the grid");
    MonteCarloCampaign& campaign = *campaigns[unit.point];
    // Sequential stopping dispatches units past the initial replica count:
    // grow the campaign on demand. Task t's RNG stream depends only on
    // (seed, t), so a worker that never saw the coordinator's extend rounds
    // still produces the bit-identical slot.
    if (static_cast<int>(unit.replica) >= campaign.tasks()) {
      const int needed = static_cast<int>(unit.replica) + 1;
      campaign.extend(campaign.options().antithetic ? 2 * needed : needed);
    }
    campaign.run_replica_task(static_cast<int>(unit.replica));
    ++units_done;
    for (const WorkerDirectives::Stall& stall : directives.stalls) {
      // Stall *before* sending: the coordinator sees a silent worker with a
      // unit in flight, which is what the heartbeat deadline detects. The
      // result itself is unaffected — if the worker survives the stall the
      // slot ships bit-identically, and if the heartbeat kills it first the
      // unit re-runs elsewhere to the same bits.
      if (stall.before_result == units_done) sleep_ms(stall.ms);
    }
    ResultMsg result;
    result.point = unit.point;
    result.replica = unit.replica;
    result.slot = campaign.slot(static_cast<int>(unit.replica));
    write_frame(out_fd, MsgType::kResult, encode_result(result));
  }
}

}  // namespace coopcr::dist
