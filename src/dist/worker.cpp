#include "dist/worker.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <vector>

#include "dist/journal.hpp"
#include "dist/wire.hpp"
#include "util/error.hpp"

namespace coopcr::dist {

void worker_serve(const exp::ExperimentSpec& spec, int in_fd, int out_fd) {
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

  FrameBuffer buffer;
  for (;;) {
    const std::optional<Frame> frame = buffer.next();
    if (!frame) {
      std::uint8_t chunk[4096];
      const ssize_t n = ::read(in_fd, chunk, sizeof(chunk));
      if (n < 0) {
        if (errno == EINTR) continue;
        COOPCR_CHECK(false, std::string("wire read failed: ") +
                                std::strerror(errno));
      }
      if (n == 0) {
        // The coordinator went away — nothing durable to lose.
        COOPCR_CHECK(!buffer.has_partial(),
                     "wire stream truncated mid-frame (peer died?)");
        return;
      }
      buffer.feed(chunk, static_cast<std::size_t>(n));
      continue;
    }
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
    ResultMsg result;
    result.point = unit.point;
    result.replica = unit.replica;
    result.slot = campaign.slot(static_cast<int>(unit.replica));
    write_frame(out_fd, MsgType::kResult, encode_result(result));
  }
}

}  // namespace coopcr::dist
