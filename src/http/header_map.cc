#include "http/header_map.h"

#include "http/header_names.h"
#include "util/check.h"
#include "util/strings.h"

namespace mfhttp {

HeaderMap::Entry& HeaderMap::append_entry() {
  // A reused map's inline slots keep their string capacity.
  return inline_count_ < kInlineCapacity ? inline_[inline_count_++]
                                         : overflow_.emplace_back();
}

void HeaderMap::add(std::string_view name, std::string_view value) {
  Entry& e = append_entry();
  e.id_ = header_id(name);
  e.canonical_ = e.id_ != HeaderId::kUnknown && header_name(e.id_) == name;
  if (e.canonical_)
    e.owned_name_.clear();
  else
    e.owned_name_.assign(name);
  e.value_.assign(value);
}

void HeaderMap::add(HeaderId id, std::string_view value) {
  MFHTTP_CHECK(id != HeaderId::kUnknown);
  Entry& e = append_entry();
  e.id_ = id;
  e.canonical_ = true;
  e.owned_name_.clear();
  e.value_.assign(value);
}

void HeaderMap::set(std::string_view name, std::string_view value) {
  remove(name);
  add(name, value);
}

void HeaderMap::set(HeaderId id, std::string_view value) {
  remove(id);
  add(id, value);
}

bool HeaderMap::matches(const Entry& e, HeaderId id, std::string_view name) {
  if (id != HeaderId::kUnknown) return e.id_ == id;
  return e.id_ == HeaderId::kUnknown && iequals(e.owned_name_, name);
}

const HeaderMap::Entry* HeaderMap::find(HeaderId id) const {
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i)
    if (entry(i).id_ == id) return &entry(i);
  return nullptr;
}

const HeaderMap::Entry* HeaderMap::find(std::string_view name) const {
  const HeaderId id = header_id(name);
  if (id != HeaderId::kUnknown) return find(id);
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i)
    if (matches(entry(i), id, name)) return &entry(i);
  return nullptr;
}

std::optional<std::string_view> HeaderMap::get_view(std::string_view name) const {
  const Entry* e = find(name);
  if (e == nullptr) return std::nullopt;
  return std::string_view(e->value_);
}

std::optional<std::string_view> HeaderMap::get_view(HeaderId id) const {
  const Entry* e = find(id);
  if (e == nullptr) return std::nullopt;
  return std::string_view(e->value_);
}

std::vector<std::string> HeaderMap::get_all(std::string_view name) const {
  std::vector<std::string> out;
  const HeaderId id = header_id(name);
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i)
    if (matches(entry(i), id, name)) out.push_back(entry(i).value_);
  return out;
}

std::size_t HeaderMap::remove(std::string_view name) {
  return remove_matching(header_id(name), name);
}

std::size_t HeaderMap::remove(HeaderId id) {
  if (id == HeaderId::kUnknown) return 0;
  return remove_matching(id, {});
}

std::size_t HeaderMap::remove_matching(HeaderId id, std::string_view name) {
  const std::size_t n = size();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Entry& e = entry_mut(i);
    if (matches(e, id, name)) continue;
    if (kept != i) std::swap(entry_mut(kept), e);
    ++kept;
  }
  // Overflow is only ever populated once the inline array is full, so the
  // compacted prefix maps back onto the same storage split. Removed inline
  // entries keep their string capacity for the next add.
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
  auto v = get_view(HeaderId::kContentLength);
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
