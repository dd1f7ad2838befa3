// Tests for the discrete-event simulator.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "util/rng.h"

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

// ---------- Calendar queue vs. a (time, seq) binary heap ----------

// The queue the calendar replaced: one binary heap ordered by (time, seq),
// cancelled entries skipped when they reach the top. It is the reference
// the differential test holds the Simulator's firing order to.
class HeapQueue {
 public:
  using EventId = std::uint64_t;

  TimeMs now() const { return now_; }
  std::size_t pending_count() const { return live_.size(); }

  EventId schedule_at(TimeMs time_ms, std::function<void()> cb) {
    const EventId id = next_seq_++;
    live_.emplace(id, std::move(cb));
    heap_.push({time_ms, id});
    return id;
  }
  bool cancel(EventId id) { return live_.erase(id) > 0; }

  bool step() {
    while (!heap_.empty()) {
      const auto [time, id] = heap_.top();
      heap_.pop();
      auto it = live_.find(id);
      if (it == live_.end()) continue;
      std::function<void()> cb = std::move(it->second);
      live_.erase(it);
      now_ = time;
      cb();
      return true;
    }
    return false;
  }
  void run() {
    while (step()) {
    }
  }
  void run_until(TimeMs deadline_ms) {
    while (!heap_.empty()) {
      if (!live_.count(heap_.top().second)) {
        heap_.pop();
        continue;
      }
      if (heap_.top().first > deadline_ms) break;
      step();
    }
    now_ = deadline_ms;
  }

 private:
  using Entry = std::pair<TimeMs, EventId>;  // seq doubles as the id
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::unordered_map<EventId, std::function<void()>> live_;
  TimeMs now_ = 0;
  EventId next_seq_ = 1;
};

// One seeded script of schedules, cancels, steps and deadlines, run against
// a queue. Events are numbered by label in scheduling order; the trace
// records every firing, cancel result, step result and pending count, and
// the script's own draws follow the trace, so two queues that fire in the
// same order consume the same draws.
template <class Queue>
class QueueScript {
 public:
  using Trace = std::vector<std::array<std::int64_t, 3>>;
  static constexpr TimeMs kW = Simulator::kWindowMs;

  QueueScript(std::uint64_t seed, int ops) : rng_(seed), ops_(ops) {}

  Trace run() {
    for (int op = 0; op < ops_; ++op) {
      switch (rng_.uniform_int(0, 9)) {
        case 0: case 1: case 2:
          record('s', q_.step());
          break;
        case 3: case 4: {
          // A deadline between events, then events at the deadline itself.
          const TimeMs deadline = q_.now() + gap();
          q_.run_until(deadline);
          record('u', q_.now());
          const int at_deadline = static_cast<int>(rng_.uniform_int(0, 2));
          for (int i = 0; i < at_deadline; ++i) schedule(0);
          break;
        }
        case 5: case 6: {
          // A burst: several events at one time, in or past the window.
          const TimeMs delay = this->delay();
          const int burst = static_cast<int>(rng_.uniform_int(1, 5));
          for (int i = 0; i < burst; ++i) schedule(delay);
          break;
        }
        case 7:
          cancel_random();
          break;
        case 8:
          cancel_far();
          break;
        default:
          schedule(delay());
          break;
      }
      record('n', static_cast<std::int64_t>(q_.pending_count()));
    }
    q_.run();
    record('e', q_.now());
    return std::move(trace_);
  }

  int idle_jumps() const { return idle_jumps_; }
  int far_scheduled() const { return far_scheduled_; }
  int moved_then_cancelled() const { return moved_then_cancelled_; }
  int self_cancels() const { return self_cancels_; }

 private:
  struct Event {
    typename Queue::EventId id;
    TimeMs scheduled_at;
    TimeMs due;
    bool far_cancel_tried = false;
  };

  TimeMs delay() {
    switch (rng_.uniform_int(0, 9)) {
      case 0: case 1: return 0;                           // at now
      case 2: case 3: return rng_.uniform_int(1, 5);
      case 4: return rng_.uniform_int(6, kW - 2);
      case 5: return kW - 1 + rng_.uniform_int(0, 2);     // window boundary
      case 6: return 2 * kW - 1 + rng_.uniform_int(0, 2); // next boundary
      case 7: case 8: return rng_.uniform_int(kW + 2, 4 * kW);
      default: return rng_.uniform_int(10 * kW, 200 * kW);  // long idle jump
    }
  }
  TimeMs gap() {
    switch (rng_.uniform_int(0, 3)) {
      case 0: return rng_.uniform_int(0, 3);
      case 1: return rng_.uniform_int(0, 2 * kW);
      case 2: return kW + rng_.uniform_int(-1, 1);
      default: return rng_.uniform_int(10 * kW, 100 * kW);
    }
  }

  void schedule(TimeMs delay) {
    const auto label = static_cast<int>(events_.size());
    const TimeMs due = q_.now() + delay;
    if (delay >= kW) ++far_scheduled_;
    events_.push_back(
        {q_.schedule_at(due, [this, label] { fire(label); }), q_.now(), due});
  }

  void fire(int label) {
    if (q_.now() - last_fired_ > kW) ++idle_jumps_;
    last_fired_ = q_.now();
    trace_.push_back({'f', q_.now(), label});
    const int roll = static_cast<int>(rng_.uniform_int(0, 9));
    if (roll == 0) {
      record('c', q_.cancel(events_[static_cast<std::size_t>(label)].id));  // itself
      ++self_cancels_;
    } else if (roll <= 2) {
      cancel_random();
    }
    // 0.8 children per event on average: busy stretches die out, so the
    // script also reaches idle jumps and a final drain.
    const std::int64_t draw = rng_.uniform_int(0, 4);
    const int children = draw < 2 ? 0 : (draw < 4 ? 1 : 2);
    for (int i = 0; i < children; ++i) schedule(delay());
  }

  void cancel_random() {
    if (events_.empty()) return;
    const auto label = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(events_.size()) - 1));
    record('c', q_.cancel(events_[label].id));
  }

  // Cancels the latest event that was scheduled past the window's end and
  // is due inside it now: the calendar has moved it out of the heap.
  void cancel_far() {
    const std::size_t oldest = events_.size() > 256 ? events_.size() - 256 : 0;
    for (std::size_t i = events_.size(); i-- > oldest;) {
      Event& e = events_[i];
      if (e.due - e.scheduled_at < kW || e.due < q_.now() || e.due >= q_.now() + kW ||
          e.far_cancel_tried)
        continue;
      e.far_cancel_tried = true;
      const bool cancelled = q_.cancel(e.id);
      record('c', cancelled);
      moved_then_cancelled_ += cancelled ? 1 : 0;
      return;
    }
  }

  void record(char kind, std::int64_t value) { trace_.push_back({kind, value, 0}); }

  Rng rng_;
  int ops_;
  Queue q_;
  std::vector<Event> events_;
  Trace trace_;
  TimeMs last_fired_ = 0;
  int idle_jumps_ = 0;
  int far_scheduled_ = 0;
  int moved_then_cancelled_ = 0;
  int self_cancels_ = 0;
};

TEST(SimulatorCalendar, FiresInTheSameOrderAsABinaryHeap) {
  int idle_jumps = 0, far_scheduled = 0, moved_then_cancelled = 0, self_cancels = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    QueueScript<Simulator> calendar(seed, 4'000);
    QueueScript<HeapQueue> heap(seed, 4'000);
    const auto got = calendar.run();
    const auto want = heap.run();
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(got[i], want[i]) << "seed " << seed << ", trace entry " << i;
    idle_jumps += calendar.idle_jumps();
    far_scheduled += calendar.far_scheduled();
    moved_then_cancelled += calendar.moved_then_cancelled();
    self_cancels += calendar.self_cancels();
  }
  // The scripts reached every case the calendar adds.
  EXPECT_GT(idle_jumps, 100);
  EXPECT_GT(far_scheduled, 1'000);
  EXPECT_GT(moved_then_cancelled, 100);
  EXPECT_GT(self_cancels, 100);
}

TEST(SimulatorCalendar, WindowBoundaryEventsKeepSchedulingOrder) {
  // The last bucket, the first time past it (the heap) and a direct
  // schedule into the same time once the window covers it: FIFO by seq.
  Simulator sim;
  constexpr TimeMs kW = Simulator::kWindowMs;
  std::vector<int> order;
  sim.schedule_at(kW - 1, [&] { order.push_back(1); });
  sim.schedule_at(kW, [&] { order.push_back(2); });
  sim.schedule_at(kW, [&] { order.push_back(3); });
  sim.schedule_at(1, [&] {
    order.push_back(0);
    sim.schedule_at(kW, [&] { order.push_back(4); });  // now inside the window
  });
  sim.run_until(kW - 1);
  EXPECT_EQ(sim.now(), kW - 1);
  sim.schedule_at(kW, [&] { order.push_back(5); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(SimulatorCalendar, RunUntilBeforeAFarEventLeavesItInPlace) {
  // The deadline falls in an idle stretch before a far event: the clock
  // stops at the deadline, and an event scheduled there fires first.
  Simulator sim;
  constexpr TimeMs kW = Simulator::kWindowMs;
  std::vector<TimeMs> fired;
  sim.schedule_at(10 * kW, [&] { fired.push_back(sim.now()); });
  sim.run_until(3 * kW + 5);
  EXPECT_EQ(sim.now(), 3 * kW + 5);
  EXPECT_TRUE(fired.empty());
  sim.schedule_at(3 * kW + 5, [&] { fired.push_back(sim.now()); });
  sim.schedule_at(10 * kW, [&] { fired.push_back(-sim.now()); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<TimeMs>{3 * kW + 5, 10 * kW, -10 * kW}));
}

}  // namespace
}  // namespace mfhttp
