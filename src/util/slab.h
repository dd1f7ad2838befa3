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
// does for its shadow transfers). Slots live in fixed chunks of kChunkSlots,
// allocated once each and never moved, so a record's address is stable for
// its whole life even while later inserts grow the slab, and a slab of n
// slots costs ceil(n / kChunkSlots) allocations (DESIGN.md §24).
//
// Records stay constructed in their slots. A slot is constructed the first
// time it is claimed; erase() calls the record's reset(), which drops what
// the record holds (its callbacks in particular) and puts back every field
// a later insert reads before writing; it keeps string and vector capacity,
// so a warm slab inserts and erases without touching the heap. Not
// thread-safe: each slab belongs to one event loop.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace mfhttp {

template <class T>
class Slab {
 public:
  using Id = std::uint64_t;
  static constexpr Id kInvalid = 0;
  static constexpr std::size_t kChunkSlots = 64;

  Slab() = default;
  Slab(const Slab&) = delete;  // records are constructed in place
  Slab& operator=(const Slab&) = delete;
  ~Slab() {
    for (std::size_t i = 0; i < slots_; ++i) slot(i).~Slot();
  }

  // Claims a slot holding a reset record.
  Id insert() {
    std::uint32_t index;
    if (free_.empty()) {
      index = static_cast<std::uint32_t>(slots_);
      if (slots_ == chunks_.size() * kChunkSlots) add_chunk();
      ::new (static_cast<void*>(&cell(index))) Slot();
      ++slots_;
    } else {
      index = free_.back();
      free_.pop_back();
    }
    Slot& s = slot(index);
    s.live = true;
    return (Id{s.generation} << 32) | index;
  }

  // Room for `records` records: their chunks are allocated now, so inserts
  // up to that many allocate nothing but what their records construct.
  void reserve(std::size_t records) {
    while (chunks_.size() * kChunkSlots < records) add_chunk();
  }

  // The live record `id` names, or nullptr once it was erased.
  T* find(Id id) {
    const std::uint64_t index = id & 0xffffffffu;
    if (index >= slots_) return nullptr;
    Slot& s = slot(index);
    return s.live && s.generation == (id >> 32) ? &s.value : nullptr;
  }
  const T* find(Id id) const { return const_cast<Slab*>(this)->find(id); }
  bool contains(Id id) const { return find(id) != nullptr; }

  // Resets the record and frees its slot; false if `id` is not live.
  bool erase(Id id) {
    if (find(id) == nullptr) return false;
    const auto index = static_cast<std::uint32_t>(id & 0xffffffffu);
    Slot& s = slot(index);
    s.live = false;
    if (++s.generation == kGenerationLimit) s.generation = 1;  // never 0
    s.value.reset();
    free_.push_back(index);
    return true;
  }

  std::size_t size() const { return slots_ - free_.size(); }
  bool empty() const { return size() == 0; }

  // Calls f(id, record) for every live record, in slot order (not insertion
  // order). f must not insert into or erase from the slab.
  template <class F>
  void for_each(F&& f) {
    for (std::size_t i = 0; i < slots_; ++i) {
      Slot& s = slot(i);
      if (s.live) f((Id{s.generation} << 32) | i, s.value);
    }
  }
  template <class F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < slots_; ++i) {
      const Slot& s = const_cast<Slab*>(this)->slot(i);
      if (s.live) f((Id{s.generation} << 32) | i, static_cast<const T&>(s.value));
    }
  }

 private:
  static constexpr std::uint32_t kGenerationLimit = std::uint32_t{1} << 30;

  struct Slot {
    T value;
    std::uint32_t generation = 1;
    bool live = false;
  };
  // Raw storage for one slot; constructed in place when first claimed.
  struct Cell {
    alignas(Slot) std::byte bytes[sizeof(Slot)];
  };

  // A chunk of unconstructed slots, with room on the free list for them
  // (grown geometrically, like the chunk table).
  void add_chunk() {
    chunks_.push_back(std::make_unique_for_overwrite<Cell[]>(kChunkSlots));
    const std::size_t slots = chunks_.size() * kChunkSlots;
    if (free_.capacity() < slots) free_.reserve(std::max(slots, 2 * free_.capacity()));
  }

  Cell& cell(std::size_t index) {
    return chunks_[index / kChunkSlots][index % kChunkSlots];
  }
  Slot& slot(std::size_t index) {
    return *std::launder(reinterpret_cast<Slot*>(&cell(index)));
  }

  std::vector<std::unique_ptr<Cell[]>> chunks_;
  std::size_t slots_ = 0;            // slots constructed, in claim order
  std::vector<std::uint32_t> free_;  // reusable slot indices, LIFO
};

}  // namespace mfhttp
