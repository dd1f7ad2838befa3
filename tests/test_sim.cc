// Tests for the discrete-event simulator.
#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.h"

namespace mfhttp {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, SameTimeFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    sim.schedule_at(5, [&order, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  TimeMs fired_at = -1;
  sim.schedule_at(100, [&] {
    sim.schedule_after(50, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, 150);
}

TEST(Simulator, EventSchedulingDuringEventAtSameTime) {
  // An event scheduled at the current time from within an event runs after
  // the current one, same turn.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(10, [&] {
    order.push_back(1);
    sim.schedule_after(0, [&] { order.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  auto id = sim.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(sim.pending(id));
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.pending(id));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelTwiceReturnsFalse) {
  Simulator sim;
  auto id = sim.schedule_at(10, [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, CancelAfterFireReturnsFalse) {
  Simulator sim;
  auto id = sim.schedule_at(10, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, CancelFromWithinEvent) {
  Simulator sim;
  bool second_fired = false;
  Simulator::EventId second = Simulator::kInvalidEvent;
  second = sim.schedule_at(20, [&] { second_fired = true; });
  sim.schedule_at(10, [&] { sim.cancel(second); });
  sim.run();
  EXPECT_FALSE(second_fired);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
  sim.schedule_at(1, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<TimeMs> fired;
  for (TimeMs t : {10, 20, 30, 40})
    sim.schedule_at(t, [&fired, &sim] { fired.push_back(sim.now()); });
  sim.run_until(25);
  EXPECT_EQ(fired, (std::vector<TimeMs>{10, 20}));
  EXPECT_EQ(sim.now(), 25);
  EXPECT_EQ(sim.pending_count(), 2u);
  sim.run_until(100);
  EXPECT_EQ(fired.size(), 4u);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, RunUntilIncludesDeadlineEvents) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(25, [&] { fired = true; });
  sim.run_until(25);
  EXPECT_TRUE(fired);
}

TEST(Simulator, RunUntilAdvancesClockWithoutEvents) {
  Simulator sim;
  sim.run_until(1234);
  EXPECT_EQ(sim.now(), 1234);
}

TEST(Simulator, CascadedEvents) {
  // Each event schedules the next; clock walks forward deterministically.
  Simulator sim;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 100) sim.schedule_after(7, tick);
  };
  sim.schedule_at(0, tick);
  sim.run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(sim.now(), 99 * 7);
}

TEST(Simulator, StaleIdStaysDeadAfterSlotReuse) {
  // A fired or cancelled event's slot is reused by the next schedule; the old
  // id must not alias the new event.
  Simulator sim;
  auto fired_id = sim.schedule_at(1, [] {});
  sim.run();
  int fired_after_fire = 0;
  auto reuse_fired = sim.schedule_at(2, [&] { ++fired_after_fire; });
  EXPECT_FALSE(sim.pending(fired_id));
  EXPECT_FALSE(sim.cancel(fired_id));
  EXPECT_TRUE(sim.pending(reuse_fired));

  auto cancelled_id = sim.schedule_at(3, [] { FAIL() << "cancelled event ran"; });
  EXPECT_TRUE(sim.cancel(cancelled_id));
  int fired_after_cancel = 0;
  auto reuse_cancelled = sim.schedule_at(4, [&] { ++fired_after_cancel; });
  EXPECT_FALSE(sim.pending(cancelled_id));
  EXPECT_FALSE(sim.cancel(cancelled_id));
  EXPECT_TRUE(sim.pending(reuse_cancelled));
  EXPECT_NE(reuse_cancelled, cancelled_id);

  sim.run();
  EXPECT_EQ(fired_after_fire, 1);
  EXPECT_EQ(fired_after_cancel, 1);
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(Simulator, PendingCountExactAcrossScheduleCancelFire) {
  Simulator sim;
  std::vector<Simulator::EventId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(sim.schedule_at(10 + i, [] {}));
    EXPECT_EQ(sim.pending_count(), ids.size());
  }
  EXPECT_TRUE(sim.cancel(ids[2]));
  EXPECT_TRUE(sim.cancel(ids[5]));
  EXPECT_FALSE(sim.cancel(ids[5]));
  EXPECT_EQ(sim.pending_count(), 6u);
  // The first live event fires; the cancelled ones never count again.
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(sim.pending_count(), 5u);
  sim.schedule_at(11, [] {});  // reuses a freed slot
  EXPECT_EQ(sim.pending_count(), 6u);
  sim.run_until(13);
  EXPECT_EQ(sim.pending_count(), 3u);
  sim.run();
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(Simulator, CancellingOwnIdFromInsideCallbackReturnsFalse) {
  Simulator sim;
  Simulator::EventId self = Simulator::kInvalidEvent;
  bool cancel_result = true;
  bool pending_inside = true;
  self = sim.schedule_at(5, [&] {
    pending_inside = sim.pending(self);
    cancel_result = sim.cancel(self);
  });
  sim.run();
  EXPECT_FALSE(pending_inside);
  EXPECT_FALSE(cancel_result);
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(Simulator, ManyEventsStressOrder) {
  Simulator sim;
  TimeMs last = -1;
  bool monotone = true;
  for (int i = 0; i < 10'000; ++i) {
    TimeMs t = (i * 7919) % 10'000;  // scrambled times
    sim.schedule_at(t, [&, t] {
      if (sim.now() < last) monotone = false;
      last = sim.now();
      EXPECT_EQ(sim.now(), t);
    });
  }
  sim.run();
  EXPECT_TRUE(monotone);
}

}  // namespace
}  // namespace mfhttp
