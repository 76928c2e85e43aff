// Unit tests for the processor-sharing channel: exact transfer times under
// the linear interference model (paper §2/§3.1 worked example), baseline
// no-interference mode, the adversarial degradation model, and aborts, plus
// a differential check of the cached per-flow rates against a from-scratch
// reference and a re-entrant completion sink.

#include "io/channel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "closure_sink.hpp"
#include "sim/engine.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace coopcr {
namespace {

TEST(Channel, SingleFlowFullBandwidth) {
  sim::Engine engine;
  ClosureSink sink;
  SharedChannel channel(engine, &sink, 100.0);  // 100 B/s
  double done_at = -1.0;
  channel.start(500.0, 4, sink.flow([&] { done_at = engine.now(); }));
  engine.run();
  EXPECT_DOUBLE_EQ(done_at, 5.0);
  EXPECT_DOUBLE_EQ(channel.bytes_transferred(), 500.0);
}

TEST(Channel, PaperTwoJobExample) {
  // §3.2: two simultaneous transfers of volume V under the linear model take
  // 2V/β each (both complete at the same instant).
  sim::Engine engine;
  ClosureSink sink;
  SharedChannel channel(engine, &sink, 100.0);
  std::vector<double> done;
  channel.start(500.0, 8, sink.flow([&] { done.push_back(engine.now()); }));
  channel.start(500.0, 8, sink.flow([&] { done.push_back(engine.now()); }));
  engine.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0], 10.0);
  EXPECT_DOUBLE_EQ(done[1], 10.0);
}

TEST(Channel, WeightedSharing) {
  // Weights 3:1 — the heavy flow gets 75 B/s, the light one 25 B/s.
  sim::Engine engine;
  ClosureSink sink;
  SharedChannel channel(engine, &sink, 100.0);
  std::map<std::string, double> done;
  channel.start(300.0, 3, sink.flow([&] { done["heavy"] = engine.now(); }));
  channel.start(300.0, 1, sink.flow([&] { done["light"] = engine.now(); }));
  engine.run();
  // Heavy: 300 B at 75 B/s = 4 s. Light: 100 B by t=4 (25 B/s), then full
  // bandwidth for the remaining 200 B -> 4 + 2 = 6 s.
  EXPECT_DOUBLE_EQ(done["heavy"], 4.0);
  EXPECT_DOUBLE_EQ(done["light"], 6.0);
}

TEST(Channel, StaggeredAdmissionRecomputesRates) {
  sim::Engine engine;
  ClosureSink sink;
  SharedChannel channel(engine, &sink, 100.0);
  double first_done = -1.0;
  double second_done = -1.0;
  channel.start(400.0, 1, sink.flow([&] { first_done = engine.now(); }));
  engine.at(2.0, [&] {
    channel.start(300.0, 1, sink.flow([&] { second_done = engine.now(); }));
  });
  engine.run();
  // First: 200 B alone (t=0..2), then 50 B/s. Remaining 200 B -> done at 6.
  EXPECT_DOUBLE_EQ(first_done, 6.0);
  // Second: 200 B at 50 B/s (t=2..6), then 100 B at full -> done at 7.
  EXPECT_DOUBLE_EQ(second_done, 7.0);
}

TEST(Channel, NoInterferenceModelIgnoresConcurrency) {
  sim::Engine engine;
  ClosureSink sink;
  SharedChannel channel(engine, &sink, 100.0, InterferenceModel::kNone);
  std::vector<double> done;
  channel.start(500.0, 2, sink.flow([&] { done.push_back(engine.now()); }));
  channel.start(200.0, 9, sink.flow([&] { done.push_back(engine.now()); }));
  engine.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0], 2.0);  // 200 B at full bandwidth
  EXPECT_DOUBLE_EQ(done[1], 5.0);  // 500 B at full bandwidth
}

TEST(Channel, DegradingModelShrinksAggregate) {
  // alpha = 1: two flows -> aggregate B/2, equal weights -> B/4 each.
  sim::Engine engine;
  ClosureSink sink;
  SharedChannel channel(engine, &sink, 100.0, InterferenceModel::kDegrading,
                        1.0);
  std::vector<double> done;
  channel.start(100.0, 1, sink.flow([&] { done.push_back(engine.now()); }));
  channel.start(100.0, 1, sink.flow([&] { done.push_back(engine.now()); }));
  engine.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0], 4.0);
  EXPECT_DOUBLE_EQ(done[1], 4.0);
}

TEST(Channel, AbortRemovesFlowAndSpeedsOthers) {
  sim::Engine engine;
  ClosureSink sink;
  SharedChannel channel(engine, &sink, 100.0);
  double done = -1.0;
  bool aborted_fired = false;
  const FlowId victim =
      channel.start(1000.0, 1, sink.flow([&] { aborted_fired = true; }));
  channel.start(300.0, 1, sink.flow([&] { done = engine.now(); }));
  engine.at(2.0, [&] { EXPECT_TRUE(channel.abort(victim)); });
  engine.run();
  // Survivor: 100 B shared (t=0..2), then full bandwidth for 200 B -> t=4.
  EXPECT_DOUBLE_EQ(done, 4.0);
  EXPECT_FALSE(aborted_fired);
  EXPECT_DOUBLE_EQ(channel.bytes_transferred(), 300.0);
}

TEST(Channel, AbortUnknownFlowReturnsFalse) {
  sim::Engine engine;
  ClosureSink sink;
  SharedChannel channel(engine, &sink, 100.0);
  EXPECT_FALSE(channel.abort(12345));
}

TEST(Channel, ZeroVolumeFlowCompletesImmediately) {
  sim::Engine engine;
  ClosureSink sink;
  SharedChannel channel(engine, &sink, 100.0);
  double done = -1.0;
  engine.at(3.0, [&] {
    channel.start(0.0, 1, sink.flow([&] { done = engine.now(); }));
  });
  engine.run();
  EXPECT_DOUBLE_EQ(done, 3.0);
}

TEST(Channel, RateAndRemainingQueries) {
  sim::Engine engine;
  ClosureSink sink;
  SharedChannel channel(engine, &sink, 100.0);
  const FlowId a = channel.start(400.0, 1, sink.flow());
  const FlowId b = channel.start(400.0, 3, sink.flow());
  EXPECT_DOUBLE_EQ(channel.rate_of(a), 25.0);
  EXPECT_DOUBLE_EQ(channel.rate_of(b), 75.0);
  EXPECT_DOUBLE_EQ(channel.remaining_of(a), 400.0);
  EXPECT_EQ(channel.active(), 2u);
  EXPECT_DOUBLE_EQ(channel.aggregate_rate(), 100.0);
  EXPECT_DOUBLE_EQ(channel.rate_of(999), 0.0);
}

TEST(Channel, BusyTimeTracksActivity) {
  sim::Engine engine;
  ClosureSink sink;
  SharedChannel channel(engine, &sink, 100.0);
  channel.start(200.0, 1, sink.flow());  // busy t=0..2
  engine.at(5.0, [&] {
    channel.start(100.0, 1, sink.flow());  // busy t=5..6
  });
  engine.run();
  EXPECT_NEAR(channel.busy_time(), 3.0, 1e-9);
}

TEST(Channel, LongHaulNumericalRobustness) {
  // Petabyte-scale volumes over multi-day spans with repeated rate changes:
  // all flows must complete without assertion failures (this regression-tests
  // the expected-completion mechanism against double rounding).
  sim::Engine engine;
  ClosureSink sink;
  SharedChannel channel(engine, &sink, units::gb_per_s(40));
  int completed = 0;
  for (int i = 0; i < 50; ++i) {
    engine.at(static_cast<double>(i) * 3601.0, [&, i] {
      channel.start(units::terabytes(5 + (i % 13)), 256 + i,
                    sink.flow([&] { ++completed; }));
    });
  }
  engine.run();
  EXPECT_EQ(completed, 50);
  EXPECT_EQ(channel.active(), 0u);
}

TEST(Channel, RejectsInvalidArguments) {
  sim::Engine engine;
  ClosureSink sink;
  EXPECT_THROW(SharedChannel(engine, &sink, 0.0), Error);
  EXPECT_THROW(
      SharedChannel(engine, &sink, 10.0, InterferenceModel::kLinear, -1.0),
      Error);
  EXPECT_THROW(SharedChannel(engine, nullptr, 100.0), Error);
  SharedChannel channel(engine, &sink, 100.0);
  EXPECT_THROW(channel.start(-1.0, 1, sink.flow()), Error);
  EXPECT_THROW(channel.start(1.0, 0, sink.flow()), Error);
}

TEST(Channel, SinkMayStartFlowsFromCompletion) {
  // Re-entrancy: on_flow_done starts enough flows on the notifying channel
  // to reallocate the flow slab, while more completions of the same event
  // are still to be reported. Every completion is reported once, in
  // admission order, and a flow finished in that event is no longer
  // abortable.
  sim::Engine engine;
  ClosureSink sink;
  SharedChannel channel(engine, &sink, 100.0);
  constexpr int kFirstWave = 4;
  constexpr int kSecondWave = 300;
  std::vector<FlowId> ids;
  std::vector<std::uint64_t> admitted;
  auto start = [&](double volume, ClosureSink::FlowFn on_done) {
    const std::uint64_t tag = sink.flow(std::move(on_done));
    ids.push_back(channel.start(volume, 1, tag));
    admitted.push_back(tag);
  };
  start(100.0, [&] {
    EXPECT_EQ(engine.now(), 4.0);
    for (int i = 0; i < kSecondWave; ++i) start(50.0, {});
    EXPECT_FALSE(channel.abort(ids[1]));  // finished in this very event
    EXPECT_EQ(channel.active(), static_cast<std::size_t>(kSecondWave));
  });
  for (int i = 1; i < kFirstWave; ++i) start(100.0, {});
  engine.run();
  EXPECT_NEAR(engine.now(), 4.0 + 50.0 * kSecondWave / 100.0, 1e-9);
  EXPECT_EQ(sink.tags(ClosureSink::Note::kFlowDone), admitted);
  EXPECT_EQ(channel.active(), 0u);
  EXPECT_DOUBLE_EQ(channel.bytes_transferred(),
                   100.0 * kFirstWave + 50.0 * kSecondWave);
}

/// From-scratch model of the channel: recomputes every flow's rate from the
/// current active set on each query and advances volumes in the same
/// floating-point steps as the channel does.
class ReferenceChannel {
 public:
  ReferenceChannel(double bandwidth, InterferenceModel model, double alpha)
      : bandwidth_(bandwidth), model_(model), alpha_(alpha) {}

  struct Flow {
    FlowId id;
    std::int64_t weight;
    double remaining;
  };

  double rate(std::int64_t weight) const {
    std::int64_t total = 0;
    for (const Flow& flow : flows_) total += flow.weight;
    const auto tw = static_cast<double>(total);
    switch (model_) {
      case InterferenceModel::kNone:
        return bandwidth_;
      case InterferenceModel::kLinear:
        return bandwidth_ * static_cast<double>(weight) / tw;
      case InterferenceModel::kDegrading: {
        const auto k = static_cast<double>(flows_.size());
        const double effective = bandwidth_ / (1.0 + alpha_ * (k - 1.0));
        return effective * static_cast<double>(weight) / tw;
      }
    }
    return 0.0;
  }

  void advance(double now) {
    const double dt = now - last_;
    if (dt > 0.0) {
      for (Flow& flow : flows_) {
        flow.remaining =
            std::max(0.0, flow.remaining - rate(flow.weight) * dt);
      }
    }
    last_ = now;
  }

  void add(FlowId id, std::int64_t weight, double volume) {
    flows_.push_back(Flow{id, weight, volume});
  }

  void remove(FlowId id) {
    flows_.erase(std::find_if(flows_.begin(), flows_.end(),
                              [id](const Flow& f) { return f.id == id; }));
  }

  /// Absolute time of the next completion event; kTimeNever when idle.
  double next_completion(double now) const {
    if (flows_.empty()) return sim::kTimeNever;
    double min_ttf = std::numeric_limits<double>::infinity();
    for (const Flow& flow : flows_) {
      min_ttf = std::min(min_ttf,
                         std::max(0.0, flow.remaining) / rate(flow.weight));
    }
    return now + min_ttf;
  }

  const std::vector<Flow>& flows() const { return flows_; }

 private:
  double bandwidth_;
  InterferenceModel model_;
  double alpha_;
  std::vector<Flow> flows_;
  double last_ = 0.0;
};

void run_cached_rate_differential(InterferenceModel model,
                                  std::uint64_t seed) {
  constexpr double kBandwidth = 7.3e9;
  constexpr double kAlpha = 0.37;
  sim::Engine engine;
  ClosureSink sink;
  SharedChannel channel(engine, &sink, kBandwidth, model, kAlpha);
  ReferenceChannel reference(kBandwidth, model, kAlpha);
  std::uint64_t x = seed;
  auto next = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 11;
  };
  auto uniform = [&next] {
    return static_cast<double>(next()) / static_cast<double>(1ull << 53);
  };
  std::size_t completions = 0;
  std::vector<FlowId> flow_of_tag;  // the sink issues tags 0, 1, 2, ...
  auto on_complete = [&](FlowId id) {
    reference.advance(engine.now());
    reference.remove(id);
    ++completions;
  };

  auto check = [&](int step) {
    SCOPED_TRACE(testing::Message() << "step " << step);
    ASSERT_EQ(channel.active(), reference.flows().size());
    double aggregate = 0.0;
    for (const auto& flow : reference.flows()) {
      const double rate = reference.rate(flow.weight);
      aggregate += rate;
      EXPECT_EQ(channel.rate_of(flow.id), rate);
      EXPECT_EQ(channel.remaining_of(flow.id), flow.remaining);
    }
    EXPECT_EQ(channel.aggregate_rate(), aggregate);
    EXPECT_EQ(engine.next_event_time(),
              reference.next_completion(engine.now()));
  };

  for (int step = 0; step < 600; ++step) {
    const auto op = next() % 100;
    if (op < 35 && !reference.flows().empty()) {
      // Let the channel fire its next completion event.
      engine.run_steps(1);
    } else {
      // Start or abort strictly before the next completion.
      const double horizon = reference.next_completion(engine.now());
      const double gap = horizon == sim::kTimeNever
                             ? 1.0 + 10.0 * uniform()
                             : (0.05 + 0.9 * uniform()) *
                                   (horizon - engine.now());
      const bool abort = op < 60;
      const std::uint64_t pick = next();
      const auto weight = static_cast<std::int64_t>(1 + next() % 4096);
      const double volume = 1e6 + 1e12 * uniform();
      bool done = false;
      engine.at(engine.now() + gap, [&] {
        reference.advance(engine.now());
        const auto& flows = reference.flows();
        if (abort && !flows.empty()) {
          const FlowId id = flows[pick % flows.size()].id;
          EXPECT_TRUE(channel.abort(id));
          reference.remove(id);
          EXPECT_FALSE(channel.abort(id));  // now a stale handle
        } else {
          const std::uint64_t tag = sink.flow(
              [&, n = flow_of_tag.size()] { on_complete(flow_of_tag[n]); });
          const FlowId id = channel.start(volume, weight, tag);
          flow_of_tag.push_back(id);
          reference.add(id, weight, volume);
        }
        done = true;
      });
      while (!done) engine.run_steps(1);
    }
    check(step);
    if (testing::Test::HasFatalFailure()) return;
  }
  engine.run();
  check(-1);
  EXPECT_EQ(channel.active(), 0u);
  EXPECT_GT(completions, 50u);
}

TEST(Channel, CachedRatesMatchFromScratchLinear) {
  run_cached_rate_differential(InterferenceModel::kLinear, 11);
  run_cached_rate_differential(InterferenceModel::kLinear, 12);
}

TEST(Channel, CachedRatesMatchFromScratchNone) {
  run_cached_rate_differential(InterferenceModel::kNone, 21);
}

TEST(Channel, CachedRatesMatchFromScratchDegrading) {
  run_cached_rate_differential(InterferenceModel::kDegrading, 31);
  run_cached_rate_differential(InterferenceModel::kDegrading, 32);
}

}  // namespace
}  // namespace coopcr
