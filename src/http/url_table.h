// Canonical URL interner: each distinct canonical URL string maps to one
// dense UrlId (0, 1, 2, ... in first-intern order), so every layer behind
// the proxy's front door keys its state by a small integer instead of
// hashing and comparing the URL text again (DESIGN.md §21).
//
// The text lives in fixed 4 KiB blocks that are never moved or freed before
// the table, so url(id) views stay valid as long as the table does, whatever
// is interned later.
//
// Thread-safety: intern() of a new URL mutates the table and must be
// externally synchronized. Once freeze() has been called the table is
// read-only: find(), url() and intern() of a URL already present touch no
// shared state and may run on any number of threads at once — the sharded
// front door fills one table with its whole URL universe and shares it
// across shard workers without a lock. intern() of a URL a frozen table
// does not hold is a contract violation and aborts.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string_view>
#include <vector>

namespace mfhttp {

using UrlId = std::uint32_t;
inline constexpr UrlId kNoUrl = std::numeric_limits<UrlId>::max();

class UrlTable {
 public:
  UrlTable() = default;
  UrlTable(const UrlTable&) = delete;
  UrlTable& operator=(const UrlTable&) = delete;
  // Moving keeps every url(id) view valid: the text blocks do not move.
  UrlTable(UrlTable&&) = default;
  UrlTable& operator=(UrlTable&&) = default;

  // Id of `url`, adding it when absent (allocates only then).
  UrlId intern(std::string_view url);

  // Room for `urls` URLs in all, so interning up to that many grows nothing
  // but the text blocks.
  void reserve(std::size_t urls);

  // Id of `url`, or kNoUrl when absent; never allocates or mutates.
  UrlId find(std::string_view url) const;

  // The interned text of `id` (stable for the table's life).
  std::string_view url(UrlId id) const { return urls_[id]; }

  std::size_t size() const { return urls_.size(); }

  // Make the table read-only (see the thread-safety note above).
  void freeze() { frozen_ = true; }
  bool frozen() const { return frozen_; }

 private:
  static constexpr std::size_t kBlockBytes = 4096;

  // Open addressing over id slots; kNoUrl marks an empty slot.
  std::size_t slot_of(std::string_view url, std::size_t hash) const;
  void grow();
  // Re-seat every id in a table of `slots` slots, a power of two; the id
  // vectors get room for the most ids that load factor allows.
  void rehash(std::size_t slots);
  // A stable copy of `url` in the current text block.
  std::string_view store(std::string_view url);

  std::vector<std::unique_ptr<char[]>> blocks_;  // URL text, never moved
  std::size_t block_size_ = 0;                   // bytes in the last block
  std::size_t block_left_ = 0;                   // free bytes in the last block
  std::vector<std::string_view> urls_;           // by id, into blocks_
  std::vector<std::uint32_t> hashes_;  // by id (low bits), so growing never rehashes
  std::vector<UrlId> slots_;
  bool frozen_ = false;
};

}  // namespace mfhttp
