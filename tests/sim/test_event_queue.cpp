// Unit tests for the cancellable event queue: ordering, cancellation,
// determinism, and callbacks surviving slab growth.

#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace coopcr::sim {
namespace {

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.next_time(), kTimeNever);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  while (!q.empty()) {
    auto fired = q.pop();
    fired.fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelRemovesEvent) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule(1.0, [&] { fired = true; });
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, DoubleCancelIsNoop) {
  EventQueue q;
  const EventId id = q.schedule(1.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelFiredEventIsNoop) {
  EventQueue q;
  const EventId id = q.schedule(1.0, [] {});
  q.pop().fn();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId early = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  q.cancel(early);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelMiddleOfTies) {
  EventQueue q;
  std::vector<int> order;
  const EventId a = q.schedule(1.0, [&] { order.push_back(0); });
  const EventId b = q.schedule(1.0, [&] { order.push_back(1); });
  const EventId c = q.schedule(1.0, [&] { order.push_back(2); });
  (void)a;
  (void)c;
  q.cancel(b);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
}

TEST(EventQueue, RejectsSchedulingInThePast) {
  EventQueue q;
  q.set_now(10.0);
  EXPECT_THROW(q.schedule(9.9, [] {}), Error);
  EXPECT_NO_THROW(q.schedule(10.0, [] {}));
}

TEST(EventQueue, RejectsNonFiniteTime) {
  EventQueue q;
  EXPECT_THROW(q.schedule(kTimeNever, [] {}), Error);
  EXPECT_THROW(q.schedule(std::numeric_limits<double>::quiet_NaN(), [] {}),
               Error);
}

TEST(EventQueue, RejectsEmptyCallback) {
  // Refused before a slot is taken.
  EventQueue q;
  q.schedule(1.0, [] {});
  const std::size_t slots = q.slab_slots();
  EXPECT_THROW(q.schedule(2.0, EventFn{}), Error);
  EXPECT_EQ(q.slab_slots(), slots);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.total_scheduled(), 1u);
  // A non-empty EventFn is moved into its slot.
  bool fired = false;
  EventFn fn = [&fired] { fired = true; };
  q.schedule(3.0, std::move(fn));
  EXPECT_FALSE(static_cast<bool>(fn));  // NOLINT(bugprone-use-after-move)
  while (!q.empty()) q.pop().fn();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.pop(), Error);
}

TEST(EventQueue, TotalScheduledCounts) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) q.schedule(1.0, [] {});
  EXPECT_EQ(q.total_scheduled(), 5u);
}

// --- slab / stale-handle semantics ------------------------------------------

TEST(EventQueue, IdsAreMonotoneInScheduleOrder) {
  EventQueue q;
  EventId last = kInvalidEventId;
  for (int i = 0; i < 100; ++i) {
    const EventId id = q.schedule(static_cast<Time>(100 - i), [] {});
    EXPECT_GT(id, last);
    last = id;
  }
}

TEST(EventQueue, StaleHandleCancelIsNoopAfterSlotReuse) {
  EventQueue q;
  const EventId a = q.schedule(1.0, [] {});
  ASSERT_TRUE(q.cancel(a));
  // The freed slot is recycled for b, but with a fresh id: the stale handle
  // must not be able to kill the new occupant.
  bool b_fired = false;
  const EventId b = q.schedule(2.0, [&] { b_fired = true; });
  EXPECT_NE(a, b);
  EXPECT_FALSE(q.cancel(a));
  EXPECT_EQ(q.size(), 1u);
  q.pop().fn();
  EXPECT_TRUE(b_fired);
}

TEST(EventQueue, StaleHandleCancelAfterFireIsNoop) {
  EventQueue q;
  const EventId a = q.schedule(1.0, [] {});
  q.pop().fn();
  bool b_fired = false;
  q.schedule(2.0, [&] { b_fired = true; });
  EXPECT_FALSE(q.cancel(a));  // a's slot now belongs to b
  q.pop().fn();
  EXPECT_TRUE(b_fired);
}

TEST(EventQueue, CancelReclaimsTheCallbackImmediately) {
  // The callback (and its captures) must be destroyed at cancel() time, not
  // lazily when the entry would have been popped.
  EventQueue q;
  auto probe = std::make_shared<int>(42);
  std::weak_ptr<int> watch = probe;
  const EventId id = q.schedule(1e9, [probe] { (void)*probe; });
  probe.reset();
  EXPECT_FALSE(watch.expired());  // alive inside the queue
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(watch.expired());  // reclaimed at cancel, queue still nonempty?
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelledSlotsAreReusedNotLeaked) {
  // Regression for the seed's unbounded growth: events scheduled past the
  // horizon and cancelled (never popped) must recycle their slab slot.
  EventQueue q;
  for (int i = 0; i < 10000; ++i) {
    const EventId id =
        q.schedule(1e12 + static_cast<Time>(i), [] {});  // far future
    ASSERT_TRUE(q.cancel(id));
  }
  EXPECT_TRUE(q.empty());
  // One live slot's worth of slab, not ten thousand.
  EXPECT_LE(q.slab_slots(), 2u);
  // Stale bookkeeping is compacted away, not accumulated.
  EXPECT_LE(q.stale_items(), 128u);
}

TEST(EventQueue, CancelHeavyLongHorizonStaysBounded) {
  // A long-horizon run keeping a bounded live set while churning through
  // schedule+cancel cycles: slab and stale bookkeeping must stay
  // proportional to the live population, never to the total churn.
  EventQueue q;
  std::vector<EventId> live;
  std::uint64_t x = 99;
  Time base = 0.0;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 64; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      live.push_back(
          q.schedule(base + 1.0 + static_cast<double>(x >> 50), [] {}));
    }
    // Cancel most of them (horizon-crossed checkpoint timers), pop a few.
    for (std::size_t i = 0; i + 1 < live.size(); i += 2) {
      q.cancel(live[i]);
    }
    live.clear();
    for (int i = 0; i < 8 && !q.empty(); ++i) {
      auto fired = q.pop();
      base = fired.time;
      q.set_now(base);
    }
  }
  // Slab tracks the live high-water mark (~ final live set + one round's
  // burst), not the 12800 events churned through the queue.
  EXPECT_LE(q.slab_slots(), q.size() + 256u);
  EXPECT_LE(q.stale_items(), q.size() + 128u);
}

TEST(EventQueue, ClearRestartsIdsLikeAFreshQueue) {
  EventQueue q;
  std::vector<EventId> first;
  for (int i = 0; i < 5; ++i) {
    first.push_back(q.schedule(1.0 + i, [] {}));
  }
  q.pop().fn();
  q.cancel(first[3]);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.total_scheduled(), 0u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(q.schedule(1.0 + i, [] {}), first[static_cast<std::size_t>(i)]);
  }
}

TEST(EventQueue, InterleavedCancelStressOrdering) {
  EventQueue q;
  std::uint64_t x = 7;
  std::vector<EventId> ids;
  for (int i = 0; i < 3000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    ids.push_back(q.schedule(static_cast<double>(x >> 40), [] {}));
  }
  for (std::size_t i = 0; i < ids.size(); i += 3) q.cancel(ids[i]);
  double last = -1.0;
  std::size_t popped = 0;
  while (!q.empty()) {
    auto fired = q.pop();
    EXPECT_GE(fired.time, last);
    last = fired.time;
    ++popped;
  }
  EXPECT_EQ(popped, 2000u);
}

TEST(EventQueue, ManyEventsStressOrdering) {
  EventQueue q;
  // Pseudo-random times; verify non-decreasing pop order.
  std::uint64_t x = 12345;
  for (int i = 0; i < 5000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const double t = static_cast<double>(x >> 40);
    q.schedule(t, [] {});
  }
  double last = -1.0;
  while (!q.empty()) {
    auto fired = q.pop();
    EXPECT_GE(fired.time, last);
    last = fired.time;
  }
}

TEST(EventQueue, SlabGrowthKeepsEveryLiveCallback) {
  // >= 10^5 pending events force many reallocations of the slot vector while
  // callbacks are stored in it; interleaved cancels recycle slots meanwhile.
  // Every live event must pop exactly once, in strict (time, id) order, and
  // callbacks with managed captures must be neither leaked nor duplicated.
  constexpr int kEvents = 130000;
  EventQueue q;
  std::vector<int> fired(kEvents, 0);
  std::vector<EventId> ids(kEvents, kInvalidEventId);
  std::vector<bool> cancelled(kEvents, false);
  auto probe = std::make_shared<int>(0);
  std::uint64_t x = 99;
  int live = 0;
  for (int i = 0; i < kEvents; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    // Coarse times: many exact ties, broken by id.
    const double t = static_cast<double>(x >> 50);
    int* slot = &fired[static_cast<std::size_t>(i)];
    if (i % 10 == 0) {
      ids[static_cast<std::size_t>(i)] =
          q.schedule(t, [slot, probe] { ++*slot; });
    } else {
      ids[static_cast<std::size_t>(i)] = q.schedule(t, [slot] { ++*slot; });
    }
    ++live;
    if (i % 5 == 4) {
      const auto victim = static_cast<std::size_t>(i / 2);
      if (!cancelled[victim]) {
        EXPECT_TRUE(q.cancel(ids[victim]));
        cancelled[victim] = true;
        --live;
      }
    }
  }
  ASSERT_GE(q.size(), 100000u);
  EXPECT_EQ(q.size(), static_cast<std::size_t>(live));
  EXPECT_LT(q.slab_slots(), static_cast<std::size_t>(kEvents));
  long managed = 0;  // live events whose callback holds `probe`
  for (int i = 0; i < kEvents; i += 10) {
    if (!cancelled[static_cast<std::size_t>(i)]) ++managed;
  }
  EXPECT_EQ(probe.use_count(), managed + 1);

  double last_time = -1.0;
  EventId last_id = kInvalidEventId;
  int popped = 0;
  while (!q.empty()) {
    auto event = q.pop();
    const bool ordered = event.time > last_time ||
                         (event.time == last_time && event.id > last_id);
    ASSERT_TRUE(ordered) << "pop " << popped << " out of (time, id) order";
    last_time = event.time;
    last_id = event.id;
    event.fn();
    ++popped;
  }
  EXPECT_EQ(popped, live);
  for (int i = 0; i < kEvents; ++i) {
    const auto k = static_cast<std::size_t>(i);
    ASSERT_EQ(fired[k], cancelled[k] ? 0 : 1) << "event " << i;
  }
  EXPECT_EQ(probe.use_count(), 1);
}

TEST(EventQueue, MatchesAnOrderedSetReference) {
  // Differential run against std::set on (time, id). Most times cluster at
  // now and just after it, so inserts into the serving window land at every
  // depth from its back; others fall in later days or far ahead. Phases
  // that grow the population, cancel most of it and drain it force
  // rebuilds in both directions while cancels and pops interleave.
  // Callbacks mix trivially copyable, non-trivially-copyable (shared_ptr)
  // and boxed (oversized) captures, all built in their slots; each one
  // reports which event it belongs to when it runs.
  EventQueue q;
  std::set<std::pair<Time, EventId>> ref;
  std::vector<std::pair<Time, EventId>> scheduled;  // by schedule order
  auto probe = std::make_shared<int>(0);
  long shared_live = 0;
  std::vector<bool> holds_probe;
  std::size_t ran = scheduled.size();  // serial of the last callback run
  std::uint64_t x = 2024;
  const auto next = [&x](std::uint64_t n) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return (x >> 33) % n;
  };
  Time now = 0.0;
  const auto pick_time = [&]() -> Time {
    switch (next(8)) {
      case 0:
      case 1:
        return now;  // ties with now: the very back of the window
      case 2:
      case 3:
      case 4:
        return now + 1e-3 * static_cast<double>(next(32));  // just after
      case 5:
      case 6:
        return now + static_cast<double>(next(1000)) / 7.0;  // later days
      default:
        return now + 1e4 + static_cast<double>(next(100000));  // far ahead
    }
  };
  const auto schedule_one = [&] {
    const Time t = pick_time();
    const std::size_t serial = scheduled.size();
    EventId id = kInvalidEventId;
    switch (serial % 3) {
      case 0:
        id = q.schedule(t, [&ran, serial] { ran = serial; });
        break;
      case 1:
        id = q.schedule(t, [&ran, serial, probe] {
          ran = serial + static_cast<std::size_t>(*probe);
        });
        ++shared_live;
        break;
      default: {
        std::array<std::size_t, 12> big{};  // over the inline capacity
        big[11] = serial;
        id = q.schedule(t, [&ran, big] { ran = big[11]; });
        break;
      }
    }
    holds_probe.push_back(serial % 3 == 1);
    scheduled.emplace_back(t, id);
    ref.emplace(t, id);
  };
  const auto serial_of = [&](EventId id) {
    for (std::size_t s = scheduled.size(); s-- > 0;) {
      if (scheduled[s].second == id) return s;
    }
    return scheduled.size();
  };
  const auto pop_one = [&] {
    ASSERT_FALSE(ref.empty());
    ASSERT_EQ(q.next_time(), ref.begin()->first);
    auto fired = q.pop();
    ASSERT_EQ(std::make_pair(fired.time, fired.id), *ref.begin());
    ref.erase(ref.begin());
    now = fired.time;
    q.set_now(now);
    fired.fn();
    const std::size_t serial = serial_of(fired.id);
    ASSERT_EQ(ran, serial);
    if (holds_probe[serial]) --shared_live;
  };
  const auto cancel_one = [&] {
    if (scheduled.empty()) return;
    // Mostly recent handles (likely live), sometimes any (likely stale).
    const std::size_t n = scheduled.size();
    const std::size_t serial =
        next(4) == 0 ? next(n) : n - 1 - next(std::min<std::size_t>(n, 64));
    const auto& [t, id] = scheduled[serial];
    const bool live = ref.erase({t, id}) == 1;
    ASSERT_EQ(q.cancel(id), live) << "serial " << serial;
    if (live && holds_probe[serial]) --shared_live;
  };
  // {schedule, cancel} percentages per phase; pops take the rest.
  const int phases[][2] = {{70, 10}, {30, 60}, {60, 10}, {10, 20},
                           {70, 25}, {20, 10}, {50, 25}, {5, 5}};
  for (const auto& [p_schedule, p_cancel] : phases) {
    for (int step = 0; step < 4000; ++step) {
      const auto r = static_cast<int>(next(100));
      if (r < p_schedule) {
        schedule_one();
      } else if (r < p_schedule + p_cancel) {
        cancel_one();
      } else if (!ref.empty()) {
        pop_one();
      }
      if (::testing::Test::HasFatalFailure()) return;
      ASSERT_EQ(q.size(), ref.size());
      ASSERT_EQ(probe.use_count(), shared_live + 1);
    }
  }
  while (!ref.empty()) {
    pop_one();
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(probe.use_count(), 1);
  EXPECT_EQ(q.total_scheduled(), scheduled.size());
}

}  // namespace
}  // namespace coopcr::sim
