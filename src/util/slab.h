// Slab of reusable records addressed by generation-checked ids — the scheme
// the Simulator uses for its callbacks (DESIGN.md §18.1), as one type for
// every per-request record table: the proxy's pending fetches, the origin's
// in-flight fetches and a link's transfers (DESIGN.md §21).
//
// An Id names a slot and the slot's generation when the record was
// inserted: (generation << 32) | slot. Erasing bumps the generation, so an
// old id never aliases a later record in the same slot, and 0 is never a
// live id. Generations wrap below 2^30, so ids stay below 2^62: a wrapper
// may mint its own ids from 2^62 up without meeting the slab's (FaultyLink
// does for its shadow transfers). Slots live in a deque, so a record's
// address is stable for its whole life even while later inserts grow the
// slab.
//
// Records stay constructed in their slots. erase() calls the record's
// reset(), which drops what the record holds (its callbacks in particular)
// and puts back every field a later insert reads before writing; it keeps
// string and vector capacity, so a warm slab inserts and erases without
// touching the heap. Not thread-safe: each slab belongs to one event loop.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

namespace mfhttp {

template <class T>
class Slab {
 public:
  using Id = std::uint64_t;
  static constexpr Id kInvalid = 0;

  // Claims a slot holding a reset record.
  Id insert() {
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    slots_[slot].live = true;
    return (Id{slots_[slot].generation} << 32) | slot;
  }

  // The live record `id` names, or nullptr once it was erased.
  T* find(Id id) {
    const std::uint64_t slot = id & 0xffffffffu;
    if (slot >= slots_.size()) return nullptr;
    Slot& s = slots_[slot];
    return s.live && s.generation == (id >> 32) ? &s.value : nullptr;
  }
  const T* find(Id id) const { return const_cast<Slab*>(this)->find(id); }
  bool contains(Id id) const { return find(id) != nullptr; }

  // Resets the record and frees its slot; false if `id` is not live.
  bool erase(Id id) {
    if (find(id) == nullptr) return false;
    const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
    Slot& s = slots_[slot];
    s.live = false;
    if (++s.generation == kGenerationLimit) s.generation = 1;  // never 0
    s.value.reset();
    free_.push_back(slot);
    return true;
  }

  std::size_t size() const { return slots_.size() - free_.size(); }
  bool empty() const { return size() == 0; }

  // Calls f(id, record) for every live record, in slot order (not insertion
  // order). f must not insert into or erase from the slab.
  template <class F>
  void for_each(F&& f) {
    for (std::size_t i = 0; i < slots_.size(); ++i)
      if (slots_[i].live) f((Id{slots_[i].generation} << 32) | i, slots_[i].value);
  }
  template <class F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < slots_.size(); ++i)
      if (slots_[i].live)
        f((Id{slots_[i].generation} << 32) | i,
          static_cast<const T&>(slots_[i].value));
  }

 private:
  static constexpr std::uint32_t kGenerationLimit = std::uint32_t{1} << 30;

  struct Slot {
    T value;
    std::uint32_t generation = 1;
    bool live = false;
  };

  std::deque<Slot> slots_;
  std::vector<std::uint32_t> free_;  // reusable slot indices, LIFO
};

}  // namespace mfhttp
