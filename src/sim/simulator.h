// Single-threaded discrete-event simulator.
//
// Everything time-dependent in the reproduction — link transmission, proxy
// scheduling, scroll animation sampling, player buffering — runs as events
// on this engine, so experiments are exactly reproducible and can simulate
// minutes of wall-clock in milliseconds.
//
// Events at the same timestamp fire in scheduling order (FIFO), which keeps
// causality intuitive: an event scheduled by another event at the same time
// runs after it.
//
// Callbacks live in a slab of reusable slots, so a warm simulator schedules
// and fires events without touching the heap (when the callback fits
// std::function's small buffer). An EventId names a slot and the slot's
// generation at scheduling time; firing or cancelling bumps the generation,
// so an old id never aliases a later event in the same slot. DESIGN.md §18.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "util/check.h"
#include "util/types.h"

namespace mfhttp {

class Simulator {
 public:
  using Callback = std::function<void()>;
  // (generation << 32) | slot. Generations start at 1, so no live id is 0.
  using EventId = std::uint64_t;
  static constexpr EventId kInvalidEvent = 0;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimeMs now() const { return now_; }

  // Schedule at an absolute simulated time (>= now).
  EventId schedule_at(TimeMs time_ms, Callback cb);

  // Schedule after a relative delay (>= 0).
  EventId schedule_after(TimeMs delay_ms, Callback cb) {
    return schedule_at(now_ + delay_ms, std::move(cb));
  }

  // Cancel a pending event. Returns false if already fired or cancelled
  // (including an event cancelling itself from inside its own callback).
  bool cancel(EventId id);

  bool pending(EventId id) const {
    const std::uint64_t slot = id & 0xffffffffu;
    return slot < slots_.size() && slots_[slot].generation == (id >> 32);
  }
  std::size_t pending_count() const { return slots_.size() - free_.size(); }

  // Run the next event; returns false when the queue is empty.
  bool step();

  // Run events until the queue is empty.
  void run();

  // Run all events with time <= deadline, then advance the clock to exactly
  // the deadline (even if no event fired there).
  void run_until(TimeMs deadline_ms);

 private:
  struct QueueEntry {
    TimeMs time;
    std::uint64_t seq;
    EventId id;
    bool operator>(const QueueEntry& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };

  struct Slot {
    Callback cb;
    std::uint32_t generation = 1;
  };

  // Empties a live slot onto the free list; returns its callback.
  Callback release(EventId id);

  TimeMs now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> queue_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  // reusable slot indices, LIFO
};

}  // namespace mfhttp
