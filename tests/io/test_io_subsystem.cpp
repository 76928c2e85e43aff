// Unit tests for the I/O admission layer: concurrent vs serial admission,
// FCFS token order, cancel/abort semantics, wait/transfer bookkeeping, and
// a sink that re-enters the subsystem from its notifications.

#include "io/io_subsystem.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "closure_sink.hpp"
#include "sim/engine.hpp"
#include "util/error.hpp"

namespace coopcr {
namespace {

IoRequest req(JobId job, IoKind kind, double volume, std::int64_t nodes) {
  IoRequest r;
  r.job = job;
  r.kind = kind;
  r.volume = volume;
  r.nodes = nodes;
  return r;
}

/// Records (id, time) of the starts and completions of the requests it
/// tags.
struct Probe {
  Probe(sim::Engine& engine_ref, ClosureSink& sink_ref)
      : engine(engine_ref), sink(sink_ref) {}

  sim::Engine& engine;
  ClosureSink& sink;
  std::vector<std::pair<RequestId, double>> starts;
  std::vector<std::pair<RequestId, double>> completes;

  std::uint64_t tag() {
    return sink.request(
        [this](RequestId id) { starts.emplace_back(id, engine.now()); },
        [this](RequestId id) { completes.emplace_back(id, engine.now()); });
  }
};

TEST(IoSubsystem, ConcurrentAdmitsImmediately) {
  sim::Engine engine;
  ClosureSink sink;
  IoSubsystem io(engine, &sink, 100.0, AdmissionMode::kConcurrent);
  Probe probe(engine, sink);
  io.submit(req(1, IoKind::kInput, 200.0, 1), probe.tag());
  io.submit(req(2, IoKind::kInput, 200.0, 1), probe.tag());
  ASSERT_EQ(probe.starts.size(), 2u);  // both started synchronously
  EXPECT_EQ(io.active_count(), 2u);
  engine.run();
  ASSERT_EQ(probe.completes.size(), 2u);
  // Linear sharing: each 200 B at 50 B/s -> both done at t=4.
  EXPECT_DOUBLE_EQ(probe.completes[0].second, 4.0);
  EXPECT_DOUBLE_EQ(probe.completes[1].second, 4.0);
}

TEST(IoSubsystem, SerialRunsOneAtATime) {
  sim::Engine engine;
  ClosureSink sink;
  IoSubsystem io(engine, &sink, 100.0, AdmissionMode::kSerial,
                 InterferenceModel::kLinear, 0.0,
                 std::make_unique<FcfsPolicy>());
  Probe probe(engine, sink);
  io.submit(req(1, IoKind::kInput, 200.0, 1), probe.tag());
  io.submit(req(2, IoKind::kInput, 300.0, 1), probe.tag());
  io.submit(req(3, IoKind::kInput, 100.0, 1), probe.tag());
  EXPECT_EQ(io.active_count(), 1u);
  EXPECT_EQ(io.pending_count(), 2u);
  engine.run();
  ASSERT_EQ(probe.completes.size(), 3u);
  // FCFS at full bandwidth: 2 s, then 3 s, then 1 s.
  EXPECT_DOUBLE_EQ(probe.completes[0].second, 2.0);
  EXPECT_DOUBLE_EQ(probe.completes[1].second, 5.0);
  EXPECT_DOUBLE_EQ(probe.completes[2].second, 6.0);
  // Waits: 0, 2, 5 -> total 7. Transfers: 2 + 3 + 1 = 6.
  EXPECT_DOUBLE_EQ(io.stats().total_wait_time, 7.0);
  EXPECT_DOUBLE_EQ(io.stats().total_transfer_time, 6.0);
}

TEST(IoSubsystem, SerialGrantTimesAreRecorded) {
  sim::Engine engine;
  ClosureSink sink;
  IoSubsystem io(engine, &sink, 100.0, AdmissionMode::kSerial,
                 InterferenceModel::kLinear, 0.0,
                 std::make_unique<FcfsPolicy>());
  Probe probe(engine, sink);
  const RequestId a =
      io.submit(req(1, IoKind::kInput, 200.0, 1), probe.tag());
  const RequestId b =
      io.submit(req(2, IoKind::kInput, 100.0, 1), probe.tag());
  EXPECT_TRUE(io.is_active(a));
  EXPECT_TRUE(io.is_pending(b));
  EXPECT_DOUBLE_EQ(io.submitted_at(b), 0.0);
  engine.run_steps(1);  // completes a, grants b
  EXPECT_TRUE(io.is_active(b));
  EXPECT_DOUBLE_EQ(io.started_at(b), 2.0);
}

TEST(IoSubsystem, CancelPendingWorks) {
  sim::Engine engine;
  ClosureSink sink;
  IoSubsystem io(engine, &sink, 100.0, AdmissionMode::kSerial,
                 InterferenceModel::kLinear, 0.0,
                 std::make_unique<FcfsPolicy>());
  Probe probe(engine, sink);
  io.submit(req(1, IoKind::kInput, 200.0, 1), probe.tag());
  const RequestId b =
      io.submit(req(2, IoKind::kCheckpoint, 100.0, 1), probe.tag());
  EXPECT_TRUE(io.cancel(b));
  EXPECT_EQ(io.pending_count(), 0u);
  engine.run();
  EXPECT_EQ(probe.completes.size(), 1u);
  EXPECT_EQ(io.stats().cancelled, 1u);
}

TEST(IoSubsystem, CancelActiveFails) {
  sim::Engine engine;
  ClosureSink sink;
  IoSubsystem io(engine, &sink, 100.0, AdmissionMode::kSerial,
                 InterferenceModel::kLinear, 0.0,
                 std::make_unique<FcfsPolicy>());
  Probe probe(engine, sink);
  const RequestId a =
      io.submit(req(1, IoKind::kInput, 200.0, 1), probe.tag());
  EXPECT_FALSE(io.cancel(a));
  engine.run();
  EXPECT_EQ(probe.completes.size(), 1u);
}

TEST(IoSubsystem, AbortActiveFreesTokenForNext) {
  sim::Engine engine;
  ClosureSink sink;
  IoSubsystem io(engine, &sink, 100.0, AdmissionMode::kSerial,
                 InterferenceModel::kLinear, 0.0,
                 std::make_unique<FcfsPolicy>());
  Probe probe(engine, sink);
  const RequestId a =
      io.submit(req(1, IoKind::kInput, 1000.0, 1), probe.tag());
  io.submit(req(2, IoKind::kInput, 100.0, 1), probe.tag());
  engine.at(1.0, [&] { EXPECT_TRUE(io.abort(a)); });
  engine.run();
  ASSERT_EQ(probe.completes.size(), 1u);
  // b granted at t=1, transfers 1 s at full bandwidth.
  EXPECT_DOUBLE_EQ(probe.completes[0].second, 2.0);
  EXPECT_EQ(io.stats().aborted, 1u);
}

TEST(IoSubsystem, AbortPendingWorks) {
  sim::Engine engine;
  ClosureSink sink;
  IoSubsystem io(engine, &sink, 100.0, AdmissionMode::kSerial,
                 InterferenceModel::kLinear, 0.0,
                 std::make_unique<FcfsPolicy>());
  Probe probe(engine, sink);
  io.submit(req(1, IoKind::kInput, 200.0, 1), probe.tag());
  const RequestId b =
      io.submit(req(2, IoKind::kInput, 100.0, 1), probe.tag());
  EXPECT_TRUE(io.abort(b));
  engine.run();
  EXPECT_EQ(probe.completes.size(), 1u);
}

TEST(IoSubsystem, AbortUnknownReturnsFalse) {
  sim::Engine engine;
  ClosureSink sink;
  IoSubsystem io(engine, &sink, 100.0, AdmissionMode::kConcurrent);
  EXPECT_FALSE(io.abort(999));
  EXPECT_FALSE(io.cancel(999));
}

TEST(IoSubsystem, CompletionCallbackCanSubmitFollowUp) {
  // Regression test for re-entrancy: a completion handler submits a new
  // request on the same subsystem.
  sim::Engine engine;
  ClosureSink sink;
  IoSubsystem io(engine, &sink, 100.0, AdmissionMode::kSerial,
                 InterferenceModel::kLinear, 0.0,
                 std::make_unique<FcfsPolicy>());
  std::vector<double> completes;
  const std::uint64_t second = sink.request(
      {}, [&](RequestId) { completes.push_back(engine.now()); });
  const std::uint64_t first = sink.request({}, [&](RequestId) {
    completes.push_back(engine.now());
    io.submit(req(2, IoKind::kOutput, 300.0, 1), second);
  });
  io.submit(req(1, IoKind::kInput, 200.0, 1), first);
  engine.run();
  ASSERT_EQ(completes.size(), 2u);
  EXPECT_DOUBLE_EQ(completes[0], 2.0);
  EXPECT_DOUBLE_EQ(completes[1], 5.0);
}

/// Re-entrancy: the first request's start notification submits enough
/// requests to reallocate the record slab (and, under concurrent admission,
/// where each is granted at once, the flow slab), then aborts the request
/// itself, as the simulator does with a checkpoint whose job finished in the
/// instant its token arrived. Every notification fires once, in admission
/// order, and the aborted request never completes.
void run_reentrant_start(AdmissionMode mode) {
  sim::Engine engine;
  ClosureSink sink;
  std::unique_ptr<TokenPolicy> policy;
  if (mode == AdmissionMode::kSerial) policy = std::make_unique<FcfsPolicy>();
  IoSubsystem io(engine, &sink, 100.0, mode, InterferenceModel::kLinear, 0.0,
                 std::move(policy));
  constexpr int kBatch = 256;
  std::vector<std::uint64_t> admitted;
  std::vector<std::uint64_t> batch;
  const std::uint64_t first = sink.request(
      [&](RequestId id) {
        for (int i = 0; i < kBatch; ++i) {
          const std::uint64_t tag = sink.request();
          admitted.push_back(tag);
          batch.push_back(tag);
          io.submit(req(2 + i, IoKind::kOutput, 100.0, 1), tag);
        }
        EXPECT_TRUE(io.is_active(id));
        EXPECT_TRUE(io.abort(id));
        EXPECT_FALSE(io.is_active(id));
      },
      [](RequestId) { ADD_FAILURE() << "aborted request completed"; });
  admitted.push_back(first);
  const RequestId first_id =
      io.submit(req(1, IoKind::kCheckpoint, 100.0, 1), first);
  EXPECT_FALSE(io.is_active(first_id));
  engine.run();
  EXPECT_EQ(sink.tags(ClosureSink::Note::kRequestStart), admitted);
  EXPECT_EQ(sink.tags(ClosureSink::Note::kRequestComplete), batch);
  EXPECT_EQ(sink.log().size(), admitted.size() + batch.size());
  EXPECT_EQ(io.stats().submitted, static_cast<std::uint64_t>(kBatch + 1));
  EXPECT_EQ(io.stats().completed, static_cast<std::uint64_t>(kBatch));
  EXPECT_EQ(io.stats().aborted, 1u);
  EXPECT_EQ(io.active_count(), 0u);
  EXPECT_EQ(io.pending_count(), 0u);
  // Serial: one second each, back to back. Concurrent: all share the
  // channel from t = 0 and finish together.
  EXPECT_NEAR(engine.now(), static_cast<double>(kBatch), 1e-9);
}

TEST(IoSubsystem, SinkReentersFromStartConcurrent) {
  run_reentrant_start(AdmissionMode::kConcurrent);
}

TEST(IoSubsystem, SinkReentersFromStartSerial) {
  run_reentrant_start(AdmissionMode::kSerial);
}

TEST(IoSubsystem, SerialNeedsPolicy) {
  sim::Engine engine;
  ClosureSink sink;
  EXPECT_THROW(IoSubsystem(engine, &sink, 100.0, AdmissionMode::kSerial),
               Error);
}

TEST(IoSubsystem, NeedsSink) {
  sim::Engine engine;
  ClosureSink sink;
  EXPECT_THROW(IoSubsystem(engine, nullptr, 100.0, AdmissionMode::kConcurrent),
               Error);
  IoSubsystem io(engine, &sink, 100.0, AdmissionMode::kConcurrent);
  EXPECT_THROW(io.reset(nullptr, 100.0, AdmissionMode::kConcurrent,
                        InterferenceModel::kLinear, 0.0, nullptr),
               Error);
}

TEST(IoSubsystem, RejectsMalformedRequests) {
  sim::Engine engine;
  ClosureSink sink;
  IoSubsystem io(engine, &sink, 100.0, AdmissionMode::kConcurrent);
  EXPECT_THROW(io.submit(req(1, IoKind::kInput, -1.0, 1), sink.request()),
               Error);
  EXPECT_THROW(io.submit(req(1, IoKind::kInput, 1.0, 0), sink.request()),
               Error);
}

TEST(IoSubsystem, StatsCountSubmissions) {
  sim::Engine engine;
  ClosureSink sink;
  IoSubsystem io(engine, &sink, 100.0, AdmissionMode::kConcurrent);
  Probe probe(engine, sink);
  io.submit(req(1, IoKind::kInput, 100.0, 1), probe.tag());
  io.submit(req(2, IoKind::kInput, 100.0, 1), probe.tag());
  engine.run();
  EXPECT_EQ(io.stats().submitted, 2u);
  EXPECT_EQ(io.stats().completed, 2u);
}

TEST(IoKindHelpers, NamesAndBlocking) {
  EXPECT_EQ(to_string(IoKind::kInput), "input");
  EXPECT_EQ(to_string(IoKind::kOutput), "output");
  EXPECT_EQ(to_string(IoKind::kRecovery), "recovery");
  EXPECT_EQ(to_string(IoKind::kCheckpoint), "checkpoint");
  EXPECT_EQ(to_string(IoKind::kRoutine), "routine");
  EXPECT_TRUE(is_inherently_blocking(IoKind::kInput));
  EXPECT_FALSE(is_inherently_blocking(IoKind::kCheckpoint));
}

}  // namespace
}  // namespace coopcr
