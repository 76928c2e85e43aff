// Test-side notification sink for SharedChannel and IoSubsystem: each flow
// or request registers closures under a fresh tag, and notifications are
// dispatched to them by tag. Every notification is also logged in arrival
// order, and a tag notified twice (or never registered) fails the test.

#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "io/channel.hpp"
#include "io/io_subsystem.hpp"

namespace coopcr {

class ClosureSink final : public FlowSink, public RequestSink {
 public:
  using FlowFn = std::function<void()>;
  using RequestFn = std::function<void(RequestId)>;

  enum class Note { kFlowDone, kRequestStart, kRequestComplete };
  struct Entry {
    Note note;
    std::uint64_t tag;
  };

  /// Tag for a flow whose completion runs `on_done` (may be empty).
  std::uint64_t flow(FlowFn on_done = {}) {
    flows_.push_back(Flow{std::move(on_done), 0});
    return flows_.size() - 1;
  }

  /// Tag for a request whose start/completion run the closures (either may
  /// be empty).
  std::uint64_t request(RequestFn on_start = {}, RequestFn on_complete = {}) {
    requests_.push_back(Request{std::move(on_start), std::move(on_complete),
                                0, 0});
    return requests_.size() - 1;
  }

  /// Every notification received, in order.
  const std::vector<Entry>& log() const { return log_; }

  /// Tags of one kind of notification, in arrival order.
  std::vector<std::uint64_t> tags(Note note) const {
    std::vector<std::uint64_t> out;
    for (const Entry& e : log_) {
      if (e.note == note) out.push_back(e.tag);
    }
    return out;
  }

  void on_flow_done(std::uint64_t tag) override {
    log_.push_back(Entry{Note::kFlowDone, tag});
    ASSERT_LT(tag, flows_.size()) << "unregistered flow tag";
    EXPECT_EQ(flows_[tag].fired++, 0) << "flow " << tag << " done twice";
    // Copy: the closure may register more flows and grow the table.
    const FlowFn fn = flows_[tag].on_done;
    if (fn) fn();
  }

  void on_request_start(std::uint64_t tag, RequestId id) override {
    log_.push_back(Entry{Note::kRequestStart, tag});
    ASSERT_LT(tag, requests_.size()) << "unregistered request tag";
    EXPECT_EQ(requests_[tag].started++, 0)
        << "request " << tag << " started twice";
    const RequestFn fn = requests_[tag].on_start;
    if (fn) fn(id);
  }

  void on_request_complete(std::uint64_t tag, RequestId id) override {
    log_.push_back(Entry{Note::kRequestComplete, tag});
    ASSERT_LT(tag, requests_.size()) << "unregistered request tag";
    EXPECT_EQ(requests_[tag].completed++, 0)
        << "request " << tag << " completed twice";
    const RequestFn fn = requests_[tag].on_complete;
    if (fn) fn(id);
  }

 private:
  struct Flow {
    FlowFn on_done;
    int fired;
  };
  struct Request {
    RequestFn on_start;
    RequestFn on_complete;
    int started;
    int completed;
  };

  std::vector<Flow> flows_;
  std::vector<Request> requests_;
  std::vector<Entry> log_;
};

}  // namespace coopcr
