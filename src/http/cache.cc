#include "http/cache.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/check.h"

namespace mfhttp {

namespace {

obs::Counter& hits_counter() {
  static obs::Counter& c = obs::metrics().counter("http.cache.hits_total");
  return c;
}

obs::Counter& misses_counter() {
  static obs::Counter& c = obs::metrics().counter("http.cache.misses_total");
  return c;
}

obs::Counter& stale_served_counter() {
  static obs::Counter& c = obs::metrics().counter("http.cache.stale_served_total");
  return c;
}

obs::Counter& revalidations_counter() {
  static obs::Counter& c = obs::metrics().counter("http.cache.revalidations_total");
  return c;
}

obs::Counter& evictions_counter() {
  static obs::Counter& c = obs::metrics().counter("http.cache.evictions_total");
  return c;
}

obs::Counter& admission_rejected_counter() {
  static obs::Counter& c =
      obs::metrics().counter("http.cache.admission_rejected_total");
  return c;
}

obs::Counter& prefetch_wasted_counter() {
  static obs::Counter& c =
      obs::metrics().counter("http.cache.prefetch_wasted_bytes_total");
  return c;
}

}  // namespace

std::uint32_t& CacheGhosts::slot_locked(UrlId url) {
  if (url >= counts_.size())
    counts_.resize(std::max<std::size_t>(url + 1, urls_.size()), 0);
  return counts_[url];
}

void CacheGhosts::bump(UrlId url) {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint32_t& slot = slot_locked(url);
  if (slot == 0) {
    slot = 1;
    ++present_;
  }
  ++slot;
  // TinyLFU-style aging: every so many touches, halve every count and drop
  // the ones that reach zero, so stale popularity decays instead of pinning
  // admission decisions forever. The sweep runs only on the epoch boundary
  // — never per-bump on map size — so steady-state bumps stay O(1) even
  // with one ghost list shared by every shard under this mutex; a sweep
  // re-halves until the list is back under its bound, and between epochs it
  // can grow by at most one epoch of new URLs.
  if (++ops_ % 1024 == 0) {
    do {
      for (std::uint32_t& s : counts_) {
        if (s == 0) continue;
        const std::uint32_t halved = (s - 1) / 2;
        if (halved == 0) {
          s = 0;
          --present_;
        } else {
          s = halved + 1;
        }
      }
    } while (present_ > 4096);
  }
}

void CacheGhosts::credit(UrlId url, std::uint64_t hits) {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint32_t& slot = slot_locked(url);
  if (slot == 0) {
    slot = 1;
    ++present_;
  }
  slot += static_cast<std::uint32_t>(std::min<std::uint64_t>(hits, 1024));
}

double CacheGhosts::frequency(UrlId url) const {
  std::lock_guard<std::mutex> lock(mu_);
  return url < counts_.size() && counts_[url] != 0
             ? static_cast<double>(counts_[url] - 1)
             : 0.0;
}

std::size_t CacheGhosts::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return present_;
}

HttpCache::HttpCache(CacheParams params)
    : params_(params),
      ghosts_(params.shared_ghosts ? params.shared_ghosts
                                   : std::make_shared<CacheGhosts>()) {
  MFHTTP_CHECK(params_.capacity_bytes >= 0);
  MFHTTP_CHECK(params_.max_object_fraction > 0 && params_.max_object_fraction <= 1.0);
}

bool HttpCache::fresh_locked(const Entry& e, TimeMs now_ms) const {
  return e.object.ttl_ms <= 0 || now_ms < e.stored_ms + e.object.ttl_ms;
}

HttpCache::Entry* HttpCache::find_locked(UrlId url) const {
  if (url >= index_.size() || index_[url] == lru_.end()) return nullptr;
  return &*index_[url];
}

std::optional<HttpCache::Lookup> HttpCache::lookup(UrlId url, TimeMs now_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  if (find_locked(url) == nullptr) {
    ++stats_.misses;
    misses_counter().inc();
    ghosts_->bump(url);
    return std::nullopt;
  }
  Entry& e = *index_[url];
  lru_.splice(lru_.begin(), lru_, index_[url]);  // refresh recency
  ++e.hits;

  Lookup out;
  out.object = e.object;
  if (fresh_locked(e, now_ms)) {
    out.freshness = Freshness::kFresh;
    ++stats_.hits;
    hits_counter().inc();
    if (e.prefetched) {
      e.prefetched = false;
      ++stats_.prefetch_useful;
    }
    return out;
  }

  out.freshness = Freshness::kStale;
  out.revalidatable = !e.object.etag.empty();
  const TimeMs expired_at = e.stored_ms + e.object.ttl_ms;
  out.within_swr = params_.stale_while_revalidate_ms > 0 &&
                   now_ms < expired_at + params_.stale_while_revalidate_ms;
  ++stats_.expired;
  if (out.within_swr) {
    // A stale-but-served entry is a hit from the client's point of view.
    ++stats_.hits;
    ++stats_.stale_served;
    hits_counter().inc();
    stale_served_counter().inc();
    if (e.prefetched) {
      e.prefetched = false;
      ++stats_.prefetch_useful;
    }
  }
  return out;
}

bool HttpCache::contains(UrlId url) const {
  std::lock_guard<std::mutex> lock(mu_);
  return find_locked(url) != nullptr;
}

bool HttpCache::has_fresh(UrlId url, TimeMs now_ms) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* e = find_locked(url);
  return e != nullptr && fresh_locked(*e, now_ms);
}

std::optional<CachedObject> HttpCache::peek(UrlId url) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* e = find_locked(url);
  if (e == nullptr) return std::nullopt;
  return e->object;
}

bool HttpCache::admit_locked(UrlId url, Bytes size) {
  if (!params_.cost_aware_admission) return true;
  if (used_ + size <= params_.capacity_bytes) return true;  // fits, no victims

  // Hit-per-byte density of the candidate vs. the densest entry eviction
  // would claim. Ghost frequency gives a re-fetched hot object its history
  // back; +1 smooths never-seen entries so equal-cold candidates still
  // replace equal-cold victims (plain LRU behavior).
  const double candidate_density =
      (ghosts_->frequency(url) + 1.0) / static_cast<double>(std::max<Bytes>(size, 1));
  Bytes reclaimed = 0;
  double best_victim_density = 0;
  for (auto it = lru_.rbegin(); it != lru_.rend() && used_ - reclaimed + size >
                                                        params_.capacity_bytes;
       ++it) {
    const double density = (static_cast<double>(it->hits) + 1.0) /
                           static_cast<double>(std::max<Bytes>(it->object.size, 1));
    best_victim_density = std::max(best_victim_density, density);
    reclaimed += it->object.size;
  }
  if (candidate_density >= best_victim_density) return true;
  ++stats_.admission_rejected;
  admission_rejected_counter().inc();
  return false;
}

bool HttpCache::put(UrlId url, CachedObject object, TimeMs now_ms,
                    bool prefetched) {
  std::lock_guard<std::mutex> lock(mu_);
  MFHTTP_CHECK(object.size >= 0);
  if (object.ttl_ms <= 0) object.ttl_ms = params_.default_ttl_ms;
  const auto max_object = static_cast<Bytes>(
      params_.max_object_fraction * static_cast<double>(params_.capacity_bytes));
  if (object.size > max_object) return false;
  if (!admit_locked(url, object.size)) return false;
  erase_locked(url);
  while (used_ + object.size > params_.capacity_bytes) evict_one_locked();
  used_ += object.size;
  Entry e;
  e.url = url;
  e.object = std::move(object);
  e.stored_ms = now_ms;
  e.prefetched = prefetched;
  lru_.push_front(std::move(e));
  if (url >= index_.size())
    index_.resize(std::max<std::size_t>(url + 1, urls().size()), lru_.end());
  index_[url] = lru_.begin();
  ++stats_.insertions;
  if (prefetched) ++stats_.prefetch_insertions;
  return true;
}

bool HttpCache::revalidated(UrlId url, TimeMs now_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* e = find_locked(url);
  if (e == nullptr) return false;
  e->stored_ms = now_ms;
  ++stats_.revalidations;
  revalidations_counter().inc();
  return true;
}

void HttpCache::retire_prefetch_locked(const Entry& e) {
  if (!e.prefetched) return;
  stats_.prefetch_wasted_bytes += e.object.size;
  prefetch_wasted_counter().inc(static_cast<std::uint64_t>(e.object.size));
}

bool HttpCache::erase_locked(UrlId url) {
  const Entry* e = find_locked(url);
  if (e == nullptr) return false;
  retire_prefetch_locked(*e);
  used_ -= e->object.size;
  lru_.erase(index_[url]);
  index_[url] = lru_.end();
  return true;
}

void HttpCache::evict_one_locked() {
  MFHTTP_CHECK(!lru_.empty());
  const Entry& victim = lru_.back();
  retire_prefetch_locked(victim);
  // An evicted entry keeps its earned frequency as a ghost so re-admission
  // of a genuinely hot object is immediate.
  ghosts_->credit(victim.url, victim.hits);
  used_ -= victim.object.size;
  index_[victim.url] = lru_.end();
  lru_.pop_back();
  ++stats_.evictions;
  evictions_counter().inc();
}

Bytes HttpCache::bytes_used() const {
  std::lock_guard<std::mutex> lock(mu_);
  return used_;
}

std::size_t HttpCache::entry_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

HttpCache::Stats HttpCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Bytes HttpCache::prefetched_unused_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  Bytes total = 0;
  for (const Entry& e : lru_)
    if (e.prefetched) total += e.object.size;
  return total;
}

}  // namespace mfhttp
