// Unit tests for the small-buffer move-only callable backing the event
// queue: inline storage for small captures, heap fallback for large ones,
// move semantics that transfer (never duplicate) the capture state, and the
// byte-copy relocation of trivially copyable captures.

#include "sim/inline_fn.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace coopcr::sim {
namespace {

using Fn = InlineFunction<int(), 48>;

TEST(InlineFunction, DefaultIsEmpty) {
  Fn fn;
  EXPECT_FALSE(static_cast<bool>(fn));
  Fn null_fn = nullptr;
  EXPECT_FALSE(static_cast<bool>(null_fn));
}

TEST(InlineFunction, InvokesSmallCapture) {
  int x = 41;
  Fn fn = [&x] { return x + 1; };
  ASSERT_TRUE(static_cast<bool>(fn));
  EXPECT_EQ(fn(), 42);
}

TEST(InlineFunction, MoveTransfersTheCallable) {
  auto counter = std::make_shared<int>(0);
  Fn fn = [counter] { return ++*counter; };
  EXPECT_EQ(counter.use_count(), 2);
  Fn moved = std::move(fn);
  // Moved, not copied: still exactly one stored reference.
  EXPECT_EQ(counter.use_count(), 2);
  EXPECT_FALSE(static_cast<bool>(fn));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(moved));
  EXPECT_EQ(moved(), 1);
}

TEST(InlineFunction, DestroyReleasesCaptures) {
  auto probe = std::make_shared<int>(0);
  std::weak_ptr<int> watch = probe;
  {
    Fn fn = [probe] { return *probe; };
    probe.reset();
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

TEST(InlineFunction, NullAssignmentReleasesCaptures) {
  auto probe = std::make_shared<int>(0);
  std::weak_ptr<int> watch = probe;
  Fn fn = [probe] { return *probe; };
  probe.reset();
  fn = nullptr;
  EXPECT_FALSE(static_cast<bool>(fn));
  EXPECT_TRUE(watch.expired());
}

TEST(InlineFunction, LargeCapturesFallBackToTheHeap) {
  // A capture bigger than the inline capacity still works (boxed).
  std::array<double, 16> big{};  // 128 bytes > 48
  big[0] = 1.5;
  big[15] = 2.5;
  Fn fn = [big] { return static_cast<int>(big[0] + big[15]); };
  EXPECT_EQ(fn(), 4);
  Fn moved = std::move(fn);
  EXPECT_EQ(moved(), 4);
}

TEST(InlineFunction, LargeCaptureDestructionReleasesState) {
  auto probe = std::make_shared<int>(7);
  std::weak_ptr<int> watch = probe;
  std::array<char, 100> pad{};
  {
    Fn fn = [probe, pad] { return *probe + pad[0]; };
    probe.reset();
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

TEST(InlineFunction, MoveAssignmentReplacesExisting) {
  auto a = std::make_shared<int>(1);
  auto b = std::make_shared<int>(2);
  std::weak_ptr<int> watch_a = a;
  Fn fn = [a] { return *a; };
  a.reset();
  Fn other = [b] { return *b; };
  fn = std::move(other);
  EXPECT_TRUE(watch_a.expired());  // previous callable destroyed
  EXPECT_EQ(fn(), 2);
}

TEST(InlineFunction, ArgumentsArePassedThrough) {
  InlineFunction<int(int, int), 48> add = [](int x, int y) { return x + y; };
  EXPECT_EQ(add(20, 22), 42);
}

TEST(InlineFunction, SelfMoveAssignIsSafe) {
  Fn fn = [] { return 5; };
  Fn& alias = fn;
  fn = std::move(alias);
  EXPECT_EQ(fn(), 5);
}

TEST(InlineFunction, TriviallyCopyableCaptureSurvivesRepeatedMoves) {
  // The engine's capture shape: a pointer plus scalars, relocated by a
  // plain byte copy.
  int fired = 0;
  int* counter = &fired;
  const long jid = 4096;
  const double target = 2.5;
  auto body = [counter, jid, target] {
    ++*counter;
    return static_cast<int>(jid) + static_cast<int>(target * 2.0);
  };
  static_assert(std::is_trivially_copyable_v<decltype(body)>);
  Fn fn = body;
  for (int i = 0; i < 16; ++i) {
    Fn next = std::move(fn);
    EXPECT_FALSE(static_cast<bool>(fn));  // NOLINT(bugprone-use-after-move)
    fn = std::move(next);
  }
  // Vector growth relocates every stored function several times.
  std::vector<Fn> slab;
  slab.push_back(std::move(fn));
  for (int i = 0; i < 1000; ++i) slab.emplace_back([] { return 0; });
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(slab.front()(), 4101);
  EXPECT_EQ(fired, 1);
}

/// Counts live instances: every construction (copy or move) adds one, every
/// destruction removes one.
struct LiveCounter {
  explicit LiveCounter(int* live) : live(live) { ++*live; }
  LiveCounter(const LiveCounter& other) noexcept : live(other.live) {
    ++*live;
  }
  LiveCounter(LiveCounter&& other) noexcept : live(other.live) { ++*live; }
  LiveCounter& operator=(const LiveCounter&) = delete;
  ~LiveCounter() { --*live; }
  int* live;
};

TEST(InlineFunction, NonTrivialInlineCaptureIsDestroyedExactlyOnce) {
  auto shared = std::make_shared<int>(3);
  int live = 0;
  {
    Fn fn;
    Fn other;
    {
      std::string label = "checkpoint";
      auto labelled = [shared, label] {
        return *shared + static_cast<int>(label.size());
      };
      auto counted = [shared, counter = LiveCounter(&live)] {
        return *shared;
      };
      static_assert(sizeof(labelled) <= Fn::inline_capacity());
      static_assert(sizeof(counted) <= Fn::inline_capacity());
      static_assert(!std::is_trivially_copyable_v<decltype(labelled)>);
      fn = std::move(labelled);
      other = std::move(counted);
    }
    EXPECT_EQ(live, 1);
    EXPECT_EQ(shared.use_count(), 3);
    for (int i = 0; i < 8; ++i) {
      Fn next = std::move(fn);
      Fn next_other = std::move(other);
      EXPECT_EQ(live, 1);
      EXPECT_EQ(shared.use_count(), 3);
      fn = std::move(next);
      other = std::move(next_other);
    }
    std::vector<Fn> slab;
    slab.push_back(std::move(fn));
    slab.push_back(std::move(other));
    for (int i = 0; i < 100; ++i) slab.emplace_back([] { return 0; });
    EXPECT_EQ(live, 1);
    EXPECT_EQ(shared.use_count(), 3);
    EXPECT_EQ(slab[0](), 13);
    EXPECT_EQ(slab[1](), 3);
    slab[0] = nullptr;
    EXPECT_EQ(shared.use_count(), 2);
    EXPECT_EQ(live, 1);
    // The counted capture goes with the vector's destruction.
  }
  EXPECT_EQ(live, 0);
  EXPECT_EQ(shared.use_count(), 1);
}

TEST(InlineFunction, BoxedCaptureIsDestroyedExactlyOnce) {
  auto shared = std::make_shared<int>(1);
  int live = 0;
  std::array<char, 100> pad{};
  {
    Fn fn = [shared, pad, counter = LiveCounter(&live)] {
      return *shared + pad[0];
    };
    EXPECT_EQ(live, 1);
    Fn moved = std::move(fn);
    Fn assigned;
    assigned = std::move(moved);
    EXPECT_EQ(live, 1);
    EXPECT_EQ(shared.use_count(), 2);
    EXPECT_EQ(assigned(), 1);
  }
  EXPECT_EQ(live, 0);
  EXPECT_EQ(shared.use_count(), 1);
}

TEST(InlineFunction, MovedFromFunctionIsEmpty) {
  int x = 1;
  auto shared = std::make_shared<int>(2);
  std::array<double, 16> big{};
  Fn trivial = [&x] { return x; };
  Fn managed = [shared] { return *shared; };
  Fn boxed = [big] { return static_cast<int>(big[0]); };
  Fn a = std::move(trivial);
  Fn b = std::move(managed);
  Fn c;
  c = std::move(boxed);
  // NOLINTBEGIN(bugprone-use-after-move)
  EXPECT_FALSE(static_cast<bool>(trivial));
  EXPECT_FALSE(static_cast<bool>(managed));
  EXPECT_FALSE(static_cast<bool>(boxed));
  // NOLINTEND(bugprone-use-after-move)
  EXPECT_EQ(a() + b() + c(), 3);
  // Moving an empty function yields an empty function.
  Fn empty = std::move(trivial);
  EXPECT_FALSE(static_cast<bool>(empty));
}

TEST(InlineFunction, EmplaceReplacesTheHeldCallable) {
  auto old_state = std::make_shared<int>(1);
  auto new_state = std::make_shared<int>(2);
  std::array<double, 16> big{};
  big[0] = 3.0;
  Fn fn = [old_state] { return *old_state; };
  fn.emplace([new_state] { return *new_state; });
  EXPECT_EQ(old_state.use_count(), 1);  // the previous capture is destroyed
  EXPECT_EQ(new_state.use_count(), 2);  // the new one is held, not copied
  EXPECT_EQ(fn(), 2);
  fn.emplace([big] { return static_cast<int>(big[0]); });  // boxed
  EXPECT_EQ(new_state.use_count(), 1);
  EXPECT_EQ(fn(), 3);
  Fn other = [] { return 4; };
  fn.emplace(std::move(other));  // an InlineFunction is moved in
  EXPECT_FALSE(static_cast<bool>(other));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(fn(), 4);
}

}  // namespace
}  // namespace coopcr::sim
