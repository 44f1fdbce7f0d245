// Unit tests for the discrete-event engine.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "reference_simulator.h"
#include "simcore/simulator.h"

namespace cosched {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now().sec(), 0.0);
}

TEST(Simulator, ExecutesEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime::seconds(3), [&] { order.push_back(3); });
  sim.schedule_at(SimTime::seconds(1), [&] { order.push_back(1); });
  sim.schedule_at(SimTime::seconds(2), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now().sec(), 3.0);
}

TEST(Simulator, LivePendingCountExcludesTombstones) {
  Simulator sim;
  auto h1 = sim.schedule_at(SimTime::seconds(1), [] {});
  auto h2 = sim.schedule_at(SimTime::seconds(2), [] {});
  auto h3 = sim.schedule_at(SimTime::seconds(3), [] {});
  EXPECT_EQ(sim.events_pending(), 3u);
  EXPECT_EQ(sim.events_pending_raw(), 3u);

  // Cancelling leaves a tombstone in the queue but drops the live count.
  h2.cancel();
  EXPECT_EQ(sim.events_pending(), 2u);
  EXPECT_EQ(sim.events_pending_raw(), 3u);

  // Double-cancel must not decrement twice.
  h2.cancel();
  EXPECT_EQ(sim.events_pending(), 2u);

  EXPECT_TRUE(sim.step());  // t=1 fires
  EXPECT_EQ(sim.events_pending(), 1u);
  EXPECT_EQ(sim.events_pending_raw(), 2u);  // tombstone still queued

  EXPECT_TRUE(sim.step());  // skips the t=2 tombstone, fires t=3
  EXPECT_DOUBLE_EQ(sim.now().sec(), 3.0);
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_EQ(sim.events_pending_raw(), 0u);

  // Cancelling after the queue drained stays a no-op.
  h1.cancel();
  h3.cancel();
  EXPECT_EQ(sim.events_pending(), 0u);
}

TEST(Simulator, LivePendingCountTracksExecution) {
  Simulator sim;
  sim.schedule_at(SimTime::seconds(1), [&] {
    EXPECT_EQ(sim.events_pending(), 1u);  // self already popped
    sim.schedule_after(Duration::seconds(1), [] {});
  });
  sim.schedule_at(SimTime::seconds(5), [] {});
  EXPECT_EQ(sim.events_pending(), 2u);
  sim.run();
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_EQ(sim.events_pending_raw(), 0u);
}

TEST(Simulator, SelfCancelDuringExecutionDoesNotCorruptLiveCount) {
  // An action cancelling its own handle (the EPS fabric does this when it
  // settles a completion event) must not double-decrement the live count.
  Simulator sim;
  auto handle = std::make_shared<EventHandle>();
  *handle = sim.schedule_at(SimTime::seconds(1), [handle] {
    handle->cancel();  // no-op: the event is already being consumed
    handle->cancel();
  });
  sim.schedule_at(SimTime::seconds(2), [] {});
  sim.run();
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_EQ(sim.events_pending_raw(), 0u);
}

TEST(Simulator, SameTimestampFiresInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(SimTime::seconds(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  std::vector<int> expected(10);
  for (int i = 0; i < 10; ++i) expected[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(order, expected);
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  double fired_at = -1;
  sim.schedule_at(SimTime::seconds(2), [&] {
    sim.schedule_after(Duration::seconds(3),
                       [&] { fired_at = sim.now().sec(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(Simulator, RejectsPastEvents) {
  Simulator sim;
  sim.schedule_at(SimTime::seconds(5), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(SimTime::seconds(1), [] {}), CheckFailure);
}

TEST(Simulator, RejectsInfiniteTime) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_at(SimTime::infinity(), [] {}), CheckFailure);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  EventHandle h = sim.schedule_at(SimTime::seconds(1), [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelIsIdempotentAndSafeAfterFire) {
  Simulator sim;
  int count = 0;
  EventHandle h = sim.schedule_at(SimTime::seconds(1), [&] { ++count; });
  sim.run();
  EXPECT_EQ(count, 1);
  h.cancel();  // no-op
  h.cancel();
  EXPECT_FALSE(h.pending());
}

TEST(Simulator, DefaultHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash
}

TEST(Simulator, EventsMayScheduleFurtherEvents) {
  Simulator sim;
  int chain = 0;
  std::function<void()> step = [&] {
    ++chain;
    if (chain < 5) sim.schedule_after(Duration::seconds(1), step);
  };
  sim.schedule_at(SimTime::seconds(0), step);
  sim.run();
  EXPECT_EQ(chain, 5);
  EXPECT_DOUBLE_EQ(sim.now().sec(), 4.0);
}

TEST(Simulator, RunUntilStopsAtDeadlineInclusive) {
  Simulator sim;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    sim.schedule_at(SimTime::seconds(t), [&fired, t] { fired.push_back(t); });
  }
  sim.run_until(SimTime::seconds(3));
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0, 3.0}));
  sim.run();
  EXPECT_EQ(fired.size(), 4u);
}

TEST(Simulator, RunUntilAdvancesClockToDeadline) {
  Simulator sim;
  sim.schedule_at(SimTime::seconds(1), [] {});
  sim.schedule_at(SimTime::seconds(5), [] {});
  // The clock reaches the deadline though no event is due there...
  sim.run_until(SimTime::seconds(3));
  EXPECT_DOUBLE_EQ(sim.now().sec(), 3.0);
  // ...and events scheduled relative to it count from the deadline.
  double fired_at = -1.0;
  sim.schedule_after(Duration::seconds(1),
                     [&sim, &fired_at] { fired_at = sim.now().sec(); });
  sim.run_until(SimTime::seconds(10));
  EXPECT_DOUBLE_EQ(fired_at, 4.0);
  EXPECT_DOUBLE_EQ(sim.now().sec(), 10.0);
  // An empty queue still moves the clock; an earlier deadline never
  // moves it back.
  sim.run_until(SimTime::seconds(12));
  EXPECT_DOUBLE_EQ(sim.now().sec(), 12.0);
  sim.run_until(SimTime::seconds(11));
  EXPECT_DOUBLE_EQ(sim.now().sec(), 12.0);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
  sim.schedule_at(SimTime::seconds(1), [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, StepSkipsCancelledEvents) {
  Simulator sim;
  bool second_fired = false;
  EventHandle h = sim.schedule_at(SimTime::seconds(1), [] { FAIL(); });
  sim.schedule_at(SimTime::seconds(2), [&] { second_fired = true; });
  h.cancel();
  EXPECT_TRUE(sim.step());
  EXPECT_TRUE(second_fired);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) {
    sim.schedule_at(SimTime::seconds(i), [] {});
  }
  sim.run();
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(Simulator, ZeroDelayEventFiresAtCurrentTime) {
  Simulator sim;
  std::vector<std::string> order;
  sim.schedule_at(SimTime::seconds(1), [&] {
    order.push_back("outer");
    sim.schedule_after(Duration::zero(), [&] { order.push_back("inner"); });
  });
  sim.schedule_at(SimTime::seconds(1), [&] { order.push_back("sibling"); });
  sim.run();
  // The zero-delay event fires after already-queued same-time events.
  EXPECT_EQ(order,
            (std::vector<std::string>{"outer", "sibling", "inner"}));
}

TEST(Simulator, MassCancellationTriggersCompaction) {
  Simulator sim;
  std::vector<EventHandle> handles;
  std::vector<int> fired;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(
        sim.schedule_at(SimTime::seconds(i), [&fired, i] {
          fired.push_back(i);
        }));
  }
  // Cancel the tail 51: the 51st cancel tips `tombstones * 2 > heap size`
  // (102 > 100) and the sweep drops every stale entry at once.
  for (int i = 49; i < 100; ++i) handles[static_cast<std::size_t>(i)].cancel();
  EXPECT_GE(sim.queue_compactions(), 1u);
  EXPECT_EQ(sim.events_pending(), 49u);
  EXPECT_EQ(sim.events_pending_raw(), sim.events_pending());
  sim.run();
  ASSERT_EQ(fired.size(), 49u);
  for (std::size_t i = 0; i < fired.size(); ++i) {
    // Survivors still fire in timestamp order after the re-heapify.
    EXPECT_EQ(fired[i], static_cast<int>(i));
  }
}

TEST(Simulator, RecycledSlotDoesNotResurrectOldHandle) {
  Simulator sim;
  int first = 0;
  int second = 0;
  EventHandle stale = sim.schedule_at(SimTime::seconds(1), [&] { ++first; });
  sim.run();  // fires and frees the slot
  EXPECT_EQ(first, 1);
  EXPECT_FALSE(stale.pending());
  // The next schedule reuses the freed slot with a bumped generation: the
  // old handle must stay inert and must not cancel the new event.
  EventHandle fresh = sim.schedule_after(Duration::seconds(1),
                                         [&] { ++second; });
  stale.cancel();
  EXPECT_TRUE(fresh.pending());
  sim.run();
  EXPECT_EQ(second, 1);
}

TEST(Simulator, HandleOutlivesSimulatorSafely) {
  EventHandle h;
  {
    Simulator sim;
    h = sim.schedule_at(SimTime::seconds(1), [] {});
    EXPECT_TRUE(h.pending());
  }
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not touch freed memory
}

TEST(Simulator, CancelInsideOwnActionIsNoOp) {
  Simulator sim;
  int fired = 0;
  EventHandle h;
  h = sim.schedule_at(SimTime::seconds(1), [&] {
    ++fired;
    h.cancel();  // the EPS replan path cancels its own handle mid-action
  });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.events_pending(), 0u);
  // The slot freed by firing must be reusable afterwards.
  sim.schedule_after(Duration::seconds(1), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventAction, HoldsAClosureOfTheInlineSizeAndDestroysItOnce) {
  auto token = std::make_shared<int>(0);
  {
    // A shared_ptr, a pointer and an int64: 32 bytes, the inline size, and
    // not trivially copyable, so moves and destruction go through the
    // closure's own operations.
    int* a = token.get();
    std::int64_t b = 5;
    EventAction action([token, a, b] { *a += static_cast<int>(b); });
    EXPECT_EQ(token.use_count(), 2);
    EventAction moved(std::move(action));
    EXPECT_EQ(token.use_count(), 2);  // moved, not copied
    moved();
    EXPECT_EQ(*token, 5);
  }
  EXPECT_EQ(token.use_count(), 1);

  // A cancelled or fired event releases its captures.
  Simulator sim;
  EventHandle cancelled = sim.schedule_at(SimTime::seconds(1), [token] {});
  sim.schedule_at(SimTime::seconds(2), [token] {});
  EXPECT_EQ(token.use_count(), 3);
  cancelled.cancel();
  EXPECT_EQ(token.use_count(), 2);
  sim.run();
  EXPECT_EQ(token.use_count(), 1);
}

// ----- the zero-delay lane against the single-heap reference -------------

/// A random script run on one engine. What an event does when it fires
/// (children to schedule, handles to cancel) is a pure function of the
/// script seed and the event's id, and ids are handed out in scheduling
/// order, so two engines that agree on the firing order do the same things.
template <typename Sim>
class ScriptRun {
 public:
  explicit ScriptRun(std::uint64_t seed) : seed_(seed) {}

  /// Schedule a new event `0.5 * (draw % 4)` s from now: a zero-delay
  /// event for a quarter of the draws, ties between timed events for most
  /// of the rest.
  void schedule(std::uint64_t draw) {
    const std::int64_t id = static_cast<std::int64_t>(handles_.size());
    const Duration delay =
        Duration::seconds(0.5 * static_cast<double>(draw % 4));
    handles_.push_back(sim.schedule_after(delay, [this, id] { fire(id); }));
  }

  /// Cancel an event chosen by `draw`: queued, fired or already cancelled.
  void cancel(std::uint64_t draw) {
    if (handles_.empty()) return;
    handles_[draw % handles_.size()].cancel();
  }

  Sim sim;
  std::vector<std::int64_t> fired;

 private:
  void fire(std::int64_t id) {
    fired.push_back(id);
    SplitMix64 mix(seed_ * 0x9e3779b97f4a7c15ULL +
                   static_cast<std::uint64_t>(id));
    const std::uint64_t children = mix.next() % 8;  // 0, 1 or 2; mean 0.75
    const std::uint64_t n = children < 4 ? 0 : children < 7 ? 1 : 2;
    for (std::uint64_t i = 0; i < n; ++i) schedule(mix.next());
    const std::uint64_t what = mix.next() % 6;
    if (what == 0) cancel(mix.next());
    // A self-cancel: a no-op, since a firing event is already consumed.
    if (what == 1) handles_[static_cast<std::size_t>(id)].cancel();
    // Cancel a child scheduled a moment ago.
    if (what == 2 && n > 0) handles_.back().cancel();
  }

  using Handle =
      decltype(std::declval<Sim&>().schedule_at(SimTime::zero(), [] {}));
  std::uint64_t seed_;
  std::vector<Handle> handles_;
};

/// A burst of up to `n` zero-delay events at one instant. Event k schedules
/// one child, a second when k % 3 == 0, and cancels event k + 3 when
/// k % 5 == 0, so the queued frontier stays much shorter than the consumed
/// prefix. Returns the firing order.
template <typename Sim>
std::vector<std::int64_t> zero_delay_burst(std::int64_t n) {
  Sim sim;
  using Handle =
      decltype(std::declval<Sim&>().schedule_at(SimTime::zero(), [] {}));
  std::vector<Handle> handles;
  std::vector<std::int64_t> fired;
  std::function<void(std::int64_t)> fire;
  auto spawn = [&] {
    const auto id = static_cast<std::int64_t>(handles.size());
    if (id >= n) return;
    handles.push_back(
        sim.schedule_after(Duration::zero(), [&fire, id] { fire(id); }));
  };
  fire = [&](std::int64_t k) {
    fired.push_back(k);
    spawn();
    if (k % 3 == 0) spawn();
    const auto victim = static_cast<std::size_t>(k + 3);
    if (k % 5 == 0 && victim < handles.size()) handles[victim].cancel();
  };
  sim.schedule_at(SimTime::seconds(1), spawn);
  sim.run();
  EXPECT_EQ(sim.events_pending_raw(), 0u);
  return fired;
}

TEST(SimulatorLane, LongZeroDelayBurstKeepsItsOrderAcrossLaneTrims) {
  // Tens of thousands of lane entries at one instant: consumed entries are
  // swept out of the lane's storage mid-burst, and compactions run too.
  const std::vector<std::int64_t> lane = zero_delay_burst<Simulator>(40000);
  EXPECT_EQ(lane, zero_delay_burst<oracle::ReferenceSimulator>(40000));
  EXPECT_GT(lane.size(), 1000u);
}

TEST(SimulatorLane, MatchesTheSingleHeapReferenceOnRandomScripts) {
  std::size_t compactions = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ScriptRun<Simulator> lane(seed);
    ScriptRun<oracle::ReferenceSimulator> ref(seed);
    Rng rng(seed);
    // Cancel-heavy scripts pile tombstones into both queues.
    const std::int64_t cancel_weight = rng.uniform_int(1, 4);
    for (int op = 0; op < 400; ++op) {
      const std::int64_t pick = rng.uniform_int(0, 9 + cancel_weight);
      const std::uint64_t draw = rng.next_u64();
      if (pick < 3) {
        lane.schedule(draw);
        ref.schedule(draw);
      } else if (pick < 6) {
        ASSERT_EQ(lane.sim.step(), ref.sim.step());
      } else if (pick < 8) {
        // Deadlines on a quarter-second grid, some before now().
        const SimTime deadline =
            lane.sim.now() +
            Duration::seconds(0.25 * (static_cast<double>(draw % 9) - 2.0));
        if (deadline >= SimTime::zero()) {
          lane.sim.run_until(deadline);
          ref.sim.run_until(deadline);
        }
      } else {
        lane.cancel(draw);
        ref.cancel(draw);
      }
      ASSERT_EQ(lane.fired, ref.fired) << "op " << op;
      ASSERT_EQ(lane.sim.now(), ref.sim.now()) << "op " << op;
      ASSERT_EQ(lane.sim.events_pending(), ref.sim.events_pending())
          << "op " << op;
      ASSERT_EQ(lane.sim.events_pending_raw(), ref.sim.events_pending_raw())
          << "op " << op;
      ASSERT_EQ(lane.sim.queue_compactions(), ref.sim.queue_compactions())
          << "op " << op;
      ASSERT_TRUE(lane.sim.queue_consistent()) << "op " << op;
    }
    lane.sim.run();
    ref.sim.run();
    ASSERT_EQ(lane.fired, ref.fired);
    ASSERT_EQ(lane.sim.now(), ref.sim.now());
    ASSERT_EQ(lane.sim.events_executed(), ref.sim.events_executed());
    ASSERT_EQ(lane.sim.events_pending_raw(), 0u);
    compactions += lane.sim.queue_compactions();
  }
  // Vacuity guard: the scripts must reach compaction.
  EXPECT_GT(compactions, 0u);
}

}  // namespace
}  // namespace cosched
