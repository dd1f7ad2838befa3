// Case-insensitive HTTP header collection preserving insertion order.
//
// Hot-path representation (DESIGN.md §17, §21): the first kInlineCapacity
// entries live in a fixed in-object array — a mobile request/response
// carries a handful of headers, so the common map never touches the heap
// for its spine. Every entry carries the HeaderId of its name
// (http/header_names.h), fixed when it is added: code that names a header
// by id adds, finds and removes it by comparing that one byte, and only a
// name given as text — foreign wire bytes — is case-folded and interned,
// once, on add. A well-known name in its canonical spelling is stored as
// the id alone; other spellings and novel names ride std::string, whose
// small-buffer optimization keeps typical short fields allocation-free.
//
// The read side — get_view() / contains() / content_length() / iteration —
// never allocates, whatever the contents. The zero-steady-state-allocation
// contract for proxied requests is asserted by tests/test_header_alloc.cc
// with a counting global allocator and tracked per PR by bench/micro_matrix.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "http/header_names.h"

namespace mfhttp {

class HeaderMap {
 public:
  static constexpr std::size_t kInlineCapacity = 8;

  class Entry {
   public:
    // Original spelling (canonical names point into static storage).
    std::string_view name() const {
      return canonical_ ? header_name(id_) : std::string_view(owned_name_);
    }
    HeaderId id() const { return id_; }
    const std::string& value() const { return value_; }

   private:
    friend class HeaderMap;
    HeaderId id_ = HeaderId::kUnknown;
    bool canonical_ = false;  // spelled as header_name(id_); else owned_name_
    std::string owned_name_;
    std::string value_;
  };

  // Append a header (duplicates allowed, as in HTTP). The text form interns
  // `name` (case-folded); the id form does not.
  void add(std::string_view name, std::string_view value);
  void add(HeaderId id, std::string_view value);

  // Replace all occurrences of the name with a single entry at the end.
  void set(std::string_view name, std::string_view value);
  void set(HeaderId id, std::string_view value);

  // First value for the name (case-insensitive) as a view into this map;
  // never allocates. The view is invalidated by any mutation of the map.
  std::optional<std::string_view> get_view(std::string_view name) const;
  std::optional<std::string_view> get_view(HeaderId id) const;

  // All values for `name`.
  std::vector<std::string> get_all(std::string_view name) const;

  // Case-insensitive membership; never allocates.
  bool contains(std::string_view name) const { return find(name) != nullptr; }
  bool contains(HeaderId id) const { return find(id) != nullptr; }

  // Drop every header; the inline slots keep their string capacity.
  void clear() {
    inline_count_ = 0;
    overflow_.clear();
  }

  // Remove all occurrences; returns number removed.
  std::size_t remove(std::string_view name);
  std::size_t remove(HeaderId id);

  // Parsed Content-Length, if present and a valid non-negative integer;
  // never allocates.
  std::optional<long long> content_length() const;

  std::size_t size() const { return inline_count_ + overflow_.size(); }
  bool empty() const { return size() == 0; }

  const Entry& entry(std::size_t i) const {
    return i < inline_count_ ? inline_[i] : overflow_[i - inline_count_];
  }

  class const_iterator {
   public:
    const_iterator(const HeaderMap* map, std::size_t i) : map_(map), i_(i) {}
    const Entry& operator*() const { return map_->entry(i_); }
    const Entry* operator->() const { return &map_->entry(i_); }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const const_iterator&) const = default;

   private:
    const HeaderMap* map_;
    std::size_t i_;
  };

  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size()}; }

  // Semantic equality: same sequence of (spelling, value) pairs.
  bool operator==(const HeaderMap& other) const;

 private:
  const Entry* find(std::string_view name) const;
  const Entry* find(HeaderId id) const;
  // Whether `e` names (id, name): by id for vocabulary names, by
  // case-insensitive text for the rest (id == kUnknown).
  static bool matches(const Entry& e, HeaderId id, std::string_view name);
  // The slot for a new last entry.
  Entry& append_entry();
  // remove() with the name already resolved to (id, name).
  std::size_t remove_matching(HeaderId id, std::string_view name);
  Entry& entry_mut(std::size_t i) {
    return i < inline_count_ ? inline_[i] : overflow_[i - inline_count_];
  }

  std::array<Entry, kInlineCapacity> inline_;
  std::size_t inline_count_ = 0;
  std::vector<Entry> overflow_;
};

}  // namespace mfhttp
