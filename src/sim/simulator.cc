#include "sim/simulator.h"

#include <bit>
#include <utility>

namespace mfhttp {

void Simulator::reserve(std::size_t events) {
  MFHTTP_CHECK(far_.empty());
  std::vector<QueueEntry> heap;
  heap.reserve(events);
  far_ = decltype(far_)(std::greater<>(), std::move(heap));
  slots_.reserve(events);
  free_.reserve(events);
  nodes_.reserve(events);
}

Simulator::EventId Simulator::schedule_at(TimeMs time_ms, Callback cb) {
  MFHTTP_CHECK_MSG(time_ms >= now_, "cannot schedule events in the past");
  MFHTTP_CHECK(cb != nullptr);
  std::uint32_t slot;
  if (free_.empty()) {
    MFHTTP_CHECK(slots_.size() < 0xffffffffu);
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  slots_[slot].cb = std::move(cb);
  const EventId id = (EventId{slots_[slot].generation} << 32) | slot;
  if (time_ms < base_ + kWindowMs)
    push_bucket(time_ms, id);
  else
    far_.push({time_ms, next_seq_++, id});
  return id;
}

Simulator::Callback Simulator::release(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  Slot& s = slots_[slot];
  Callback cb = std::exchange(s.cb, nullptr);
  if (++s.generation == 0) s.generation = 1;  // 0 would let slot 0 mint id 0
  free_.push_back(slot);
  return cb;
}

bool Simulator::cancel(EventId id) {
  if (!pending(id)) return false;
  // The slot is free before the closure dies, so a destructor that
  // re-enters the simulator sees consistent state.
  release(id);
  return true;
}

void Simulator::push_bucket(TimeMs time, EventId id) {
  std::uint32_t n = free_node_;
  if (n == kNil) {
    MFHTTP_CHECK(nodes_.size() < kNil);
    n = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back({id, kNil});
  } else {
    free_node_ = nodes_[n].next;
    nodes_[n] = {id, kNil};
  }
  const std::size_t b = bucket_of(time);
  Bucket& bucket = ring_[b];
  if (bucket.tail == kNil) {
    bucket.head = n;
    occupied_[b / 64] |= std::uint64_t{1} << (b % 64);
  } else {
    nodes_[bucket.tail].next = n;
  }
  bucket.tail = n;
  ++in_window_;
}

Simulator::EventId Simulator::pop_bucket(TimeMs time) {
  const std::size_t b = bucket_of(time);
  Bucket& bucket = ring_[b];
  const std::uint32_t n = bucket.head;
  Node& node = nodes_[n];
  bucket.head = node.next;
  if (bucket.head == kNil) {
    bucket.tail = kNil;
    occupied_[b / 64] &= ~(std::uint64_t{1} << (b % 64));
  }
  node.next = free_node_;
  free_node_ = n;
  --in_window_;
  return node.id;
}

TimeMs Simulator::first_occupied_offset() const {
  constexpr std::size_t kWords = kBuckets / 64;
  const std::size_t start = bucket_of(base_);
  const std::size_t first_word = start / 64;
  // The first word is visited twice: its bits at or after `start`, and
  // after the wrap its bits before `start`.
  for (std::size_t k = 0; k <= kWords; ++k) {
    const std::size_t w = (first_word + k) % kWords;
    std::uint64_t bits = occupied_[w];
    if (k == 0) bits &= ~std::uint64_t{0} << (start % 64);
    if (k == kWords) bits &= (std::uint64_t{1} << (start % 64)) - 1;
    if (bits != 0) {
      const std::size_t b = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      return static_cast<TimeMs>((b - start) & (kBuckets - 1));
    }
  }
  MFHTTP_CHECK_MSG(false, "calendar window is empty");
  return 0;
}

bool Simulator::next_time(TimeMs* time) {
  while (in_window_ > 0) {
    const TimeMs t = base_ + first_occupied_offset();
    if (pending(nodes_[ring_[bucket_of(t)].head].id)) {
      *time = t;
      return true;
    }
    pop_bucket(t);  // cancelled
  }
  while (!far_.empty()) {
    const QueueEntry& entry = far_.top();
    if (pending(entry.id)) {
      *time = entry.time;
      return true;
    }
    far_.pop();  // cancelled
  }
  return false;
}

void Simulator::advance_to(TimeMs time) {
  MFHTTP_DCHECK(time >= base_);
  if (time == base_) return;
  base_ = time;
  const TimeMs end = base_ + kWindowMs;
  while (!far_.empty() && far_.top().time < end) {
    const QueueEntry entry = far_.top();
    far_.pop();
    if (pending(entry.id)) push_bucket(entry.time, entry.id);
  }
}

void Simulator::fire(TimeMs time) {
  // The window jumps straight to `time`: every bucket before it is empty,
  // and when the ring is empty the event is the heap's top.
  advance_to(time);
  Callback cb = release(pop_bucket(time));
  MFHTTP_DCHECK(time >= now_);
  now_ = time;
  cb();
}

bool Simulator::step() {
  TimeMs time;
  if (!next_time(&time)) return false;
  fire(time);
  return true;
}

void Simulator::run() {
  while (step()) {
  }
}

void Simulator::run_until(TimeMs deadline_ms) {
  MFHTTP_CHECK(deadline_ms >= now_);
  TimeMs time;
  while (next_time(&time) && time <= deadline_ms) fire(time);
  now_ = deadline_ms;
  // Every bucket before the deadline is empty now, so the window may start
  // there; it never starts past now().
  advance_to(deadline_ms);
}

}  // namespace mfhttp
