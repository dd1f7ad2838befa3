#include "http/url_table.h"

#include <algorithm>
#include <cstring>
#include <functional>

#include "util/check.h"

namespace mfhttp {

std::size_t UrlTable::slot_of(std::string_view url, std::size_t hash) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t at = hash & mask;; at = (at + 1) & mask) {
    const UrlId id = slots_[at];
    if (id == kNoUrl ||
        (hashes_[id] == static_cast<std::uint32_t>(hash) && urls_[id] == url))
      return at;
  }
}

UrlId UrlTable::find(std::string_view url) const {
  if (slots_.empty()) return kNoUrl;
  return slots_[slot_of(url, std::hash<std::string_view>{}(url))];
}

UrlId UrlTable::intern(std::string_view url) {
  const std::size_t hash = std::hash<std::string_view>{}(url);
  if (!slots_.empty()) {
    const UrlId id = slots_[slot_of(url, hash)];
    if (id != kNoUrl) return id;
  }
  MFHTTP_CHECK_MSG(!frozen_, "URL outside a frozen UrlTable's universe");
  MFHTTP_CHECK(urls_.size() < kNoUrl);
  // Keep the load factor at or below one half so probe chains stay short.
  if (2 * (urls_.size() + 1) > slots_.size()) grow();
  const auto id = static_cast<UrlId>(urls_.size());
  const std::size_t at = slot_of(url, hash);
  urls_.push_back(store(url));
  hashes_.push_back(static_cast<std::uint32_t>(hash));
  slots_[at] = id;
  return id;
}

std::string_view UrlTable::store(std::string_view url) {
  if (url.empty()) return {};
  if (url.size() > block_left_) {
    block_size_ = std::max(kBlockBytes, url.size());
    blocks_.push_back(std::make_unique<char[]>(block_size_));
    block_left_ = block_size_;
  }
  char* at = blocks_.back().get() + (block_size_ - block_left_);
  std::memcpy(at, url.data(), url.size());
  block_left_ -= url.size();
  return {at, url.size()};
}

void UrlTable::reserve(std::size_t urls) {
  std::size_t slots = 16;
  while (slots < 2 * urls) slots *= 2;
  if (slots > slots_.size()) rehash(slots);
}

void UrlTable::grow() { rehash(slots_.empty() ? 16 : 2 * slots_.size()); }

void UrlTable::rehash(std::size_t slots) {
  urls_.reserve(slots / 2);
  hashes_.reserve(slots / 2);
  slots_.assign(slots, kNoUrl);
  const std::size_t mask = slots_.size() - 1;
  for (UrlId id = 0; id < urls_.size(); ++id) {
    std::size_t at = hashes_[id] & mask;
    while (slots_[at] != kNoUrl) at = (at + 1) & mask;
    slots_[at] = id;
  }
}

}  // namespace mfhttp
