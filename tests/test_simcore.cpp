// Unit tests for the discrete-event engine.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
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

}  // namespace
}  // namespace cosched
