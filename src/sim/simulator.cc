#include "sim/simulator.h"

#include <utility>

namespace mfhttp {

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
  queue_.push({time_ms, next_seq_++, id});
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

bool Simulator::step() {
  while (!queue_.empty()) {
    const QueueEntry entry = queue_.top();
    queue_.pop();
    if (!pending(entry.id)) continue;  // cancelled
    Callback cb = release(entry.id);
    MFHTTP_DCHECK(entry.time >= now_);
    now_ = entry.time;
    cb();
    return true;
  }
  return false;
}

void Simulator::run() {
  while (step()) {
  }
}

void Simulator::run_until(TimeMs deadline_ms) {
  MFHTTP_CHECK(deadline_ms >= now_);
  while (!queue_.empty()) {
    const QueueEntry& entry = queue_.top();
    if (!pending(entry.id)) {
      queue_.pop();
      continue;
    }
    if (entry.time > deadline_ms) break;
    step();
  }
  now_ = deadline_ms;
}

}  // namespace mfhttp
