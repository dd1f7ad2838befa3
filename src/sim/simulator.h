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
//
// The queue is a calendar: one FIFO bucket per millisecond for a window of
// kWindowMs milliseconds starting at or before now(), and a binary heap
// ordered by (time, seq) for events at or beyond the window's end. When the
// window moves forward it first moves the heap events it now covers into
// their buckets, in heap order, so a bucket always holds its heap arrivals
// ahead of the events scheduled into it directly — later, with a larger seq
// — and events fire in exactly (time, seq) order. DESIGN.md §23.2.
#pragma once

#include <array>
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
  // Calendar window length; a power of two, so a time's bucket is its low bits.
  static constexpr TimeMs kWindowMs = 256;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimeMs now() const { return now_; }

  // Room for `events` pending events at once: scheduling up to that many
  // grows none of the queue's tables. Call while nothing is pending.
  void reserve(std::size_t events);

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
  static constexpr std::size_t kBuckets = static_cast<std::size_t>(kWindowMs);
  static constexpr std::uint32_t kNil = 0xffffffffu;

  static constexpr std::size_t bucket_of(TimeMs time) {
    return static_cast<std::size_t>(time) & (kBuckets - 1);
  }

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

  // One bucket entry; a cancelled event's node stays until it reaches the
  // front of its bucket and is skipped, as its heap entry would be.
  struct Node {
    EventId id;
    std::uint32_t next;  // next node in the bucket, or in the free list
  };
  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  // Empties a live slot onto the free list; returns its callback.
  Callback release(EventId id);

  void push_bucket(TimeMs time, EventId id);
  // Unlinks the front node of `time`'s bucket; returns its event id.
  EventId pop_bucket(TimeMs time);
  // Offset from base_ of the first non-empty bucket; needs in_window_ > 0.
  TimeMs first_occupied_offset() const;
  // Time of the earliest live event, dropping cancelled entries ahead of
  // it; false when none is left. Never moves the window.
  bool next_time(TimeMs* time);
  // Start the window at `time` (>= base_, with no bucket before it in
  // use), moving the heap events it now covers into their buckets.
  void advance_to(TimeMs time);
  // Fire the earliest live event, which next_time() put at `time`.
  void fire(TimeMs time);

  TimeMs now_ = 0;
  std::uint64_t next_seq_ = 1;
  // Buckets cover [base_, base_ + kWindowMs); base_ <= now_.
  TimeMs base_ = 0;
  std::array<Bucket, kBuckets> ring_{};
  std::array<std::uint64_t, kBuckets / 64> occupied_{};  // non-empty buckets
  std::size_t in_window_ = 0;                            // nodes in ring_
  std::vector<Node> nodes_;                               // shared node pool
  std::uint32_t free_node_ = kNil;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> far_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  // reusable slot indices, LIFO
};

}  // namespace mfhttp
