#include "http/header_map.h"

#include "http/header_names.h"
#include "util/strings.h"

namespace mfhttp {

void HeaderMap::add(std::string_view name, std::string_view value) {
  Entry e;
  std::string_view canon = intern_header_name(name);
  if (!canon.empty() && canon == name) {
    e.interned_ = canon;  // canonical spelling: share the static bytes
  } else {
    e.owned_name_.assign(name);
  }
  e.value_.assign(value);
  if (inline_count_ < kInlineCapacity)
    inline_[inline_count_++] = std::move(e);
  else
    overflow_.push_back(std::move(e));
}

void HeaderMap::set(std::string_view name, std::string_view value) {
  remove(name);
  add(name, value);
}

const HeaderMap::Entry* HeaderMap::find(std::string_view name) const {
  const std::string_view canon = intern_header_name(name);
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) {
    const Entry& e = entry(i);
    if (e.interned_.data() != nullptr) {
      // Interned entries can only match via the interner: same pointer or
      // nothing (a non-vocabulary query can never case-fold onto one).
      if (e.interned_.data() == canon.data()) return &e;
    } else if (iequals(e.owned_name_, name)) {
      return &e;
    }
  }
  return nullptr;
}

std::optional<std::string_view> HeaderMap::get_view(std::string_view name) const {
  const Entry* e = find(name);
  if (e == nullptr) return std::nullopt;
  return std::string_view(e->value_);
}

std::vector<std::string> HeaderMap::get_all(std::string_view name) const {
  std::vector<std::string> out;
  const std::string_view canon = intern_header_name(name);
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) {
    const Entry& e = entry(i);
    const bool match = e.interned_.data() != nullptr
                           ? e.interned_.data() == canon.data()
                           : iequals(e.owned_name_, name);
    if (match) out.push_back(e.value_);
  }
  return out;
}

std::size_t HeaderMap::remove(std::string_view name) {
  const std::string_view canon = intern_header_name(name);
  const std::size_t n = size();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Entry& e = entry_mut(i);
    const bool match = e.interned_.data() != nullptr
                           ? e.interned_.data() == canon.data()
                           : iequals(e.owned_name_, name);
    if (match) continue;
    if (kept != i) entry_mut(kept) = std::move(e);
    ++kept;
  }
  // Overflow is only ever populated once the inline array is full, so the
  // compacted prefix maps back onto the same storage split.
  if (kept <= inline_count_) {
    for (std::size_t i = kept; i < inline_count_; ++i) inline_[i] = Entry{};
    inline_count_ = kept;
    overflow_.clear();
  } else {
    overflow_.resize(kept - inline_count_);
  }
  return n - kept;
}

std::optional<long long> HeaderMap::content_length() const {
  auto v = get_view("Content-Length");
  if (!v) return std::nullopt;
  std::string_view s = trim(*v);
  if (s.empty()) return std::nullopt;
  long long out = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    if (out > (1LL << 56)) return std::nullopt;  // absurd length
    out = out * 10 + (c - '0');
  }
  return out;
}

bool HeaderMap::operator==(const HeaderMap& other) const {
  if (size() != other.size()) return false;
  for (std::size_t i = 0; i < size(); ++i) {
    const Entry& a = entry(i);
    const Entry& b = other.entry(i);
    if (a.name() != b.name() || a.value_ != b.value_) return false;
  }
  return true;
}

}  // namespace mfhttp
