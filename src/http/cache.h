// Shared validating HTTP cache for the middleware server (§4.2: the screen
// scrolling tracker/flow controller "can access the related data on the cache
// of the middleware server or directly from the multimedia service server").
//
// Keyed by UrlId — the dense id of the absolute canonical URL in the cache's
// UrlTable (http/url_table.h), interned once per request at the proxy's
// front door — and stores response metadata and size (the event-level stack
// transfers sizes). Beyond the original strict-LRU byte cache this is a
// *validating* cache shared across sessions:
//
//   * TTL freshness      — an entry is fresh for ttl_ms after it was stored
//                          (or last revalidated); 0 means immortal. TTL takes
//                          precedence over ETags: a fresh entry is served
//                          without ever consulting the origin, etag or not.
//   * ETag revalidation  — a stale entry with an etag can be refreshed by a
//                          conditional fetch; a 304 calls revalidated() and
//                          restarts the TTL clock without moving body bytes.
//   * stale-while-revalidate — for swr_ms past expiry a stale entry may be
//                          served immediately while a background revalidation
//                          runs; beyond the window revalidation must block.
//   * cost-aware admission — when inserting would evict, the candidate must
//                          carry at least the hit-per-byte density of the best
//                          entry it displaces, so one giant cold tile cannot
//                          flush a run of hot thumbnails. Recently-evicted and
//                          missed URLs keep a decayed ghost frequency so a
//                          re-fetched hot object is re-admitted immediately.
//   * prefetch accounting — entries stored speculatively are flagged; the
//                          first hit marks the prefetch useful, eviction or
//                          expiry without one counts its bytes as wasted.
//
// All operations are mutex-guarded so one cache can back many concurrently
// simulated sessions (and real threads in a deployment).
//
// Lock order (DESIGN.md §12-§13): mu_ is held only above two strict leaves.
// Critical sections do container bookkeeping only — no logging, no JSON
// formatting, no callbacks into user code — so nothing slower than an index
// operation ever runs under them. The leaves a critical section may touch:
// the obs registry's mutex (first-use metric registration inside the cached
// function-local statics) and CacheGhosts::mu_ (the admission filter's
// frequency counts, possibly shared between shard segments). Neither ever
// calls back into the cache, so HttpCache::mu_ -> {CacheGhosts::mu_,
// obs::Registry::mu_} is acyclic. Snapshot accessors (stats(),
// bytes_used(), ...) copy POD state under the lock and format outside it.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "http/url_table.h"
#include "util/types.h"

namespace mfhttp {

// The TinyLFU admission filter's memory: decayed access counts for URLs not
// (or no longer) resident in a cache. Extracted from HttpCache so N shard
// segments can share ONE ghost list (DESIGN.md §13): a URL that was hot on
// any shard re-enters every segment's admission fight with its history
// intact, and a session migrating between runs cannot cold-start the
// filter. Self-synchronized (leaf mutex, see the lock-order note above) so
// shard workers may touch it concurrently from inside their segment's
// critical sections.
//
// The counts are keyed by UrlId, so the ghost list carries the key space
// its ids come from: every cache sharing a ghost list shares its UrlTable,
// and so does every proxy in front of those caches (DESIGN.md §21). A
// ghost list shared across threads needs a frozen table, filled with the
// URL universe before the threads start (the front door does this).
class CacheGhosts {
 public:
  // The key space of every cache (and proxy) using this ghost list.
  UrlTable& urls() { return urls_; }

  // One lookup missed (or bypassed) a cache: remember the URL was wanted.
  // Every 1024 touches all counts halve (repeatedly, until fewer than 4097
  // URLs hold a count) and zeros are pruned, so stale popularity decays
  // instead of pinning admission decisions forever while the common-case
  // bump stays O(1) under the shared lock.
  void bump(UrlId url);

  // An evicted entry banks its earned hits (capped) so re-admission of a
  // genuinely hot object is immediate.
  void credit(UrlId url, std::uint64_t hits);

  double frequency(UrlId url) const;
  // URLs holding a count.
  std::size_t size() const;

 private:
  // The count slot of `url`, grown to cover the table on demand.
  std::uint32_t& slot_locked(UrlId url);

  UrlTable urls_;
  mutable std::mutex mu_;
  // By UrlId: count + 1 for a URL holding a count, 0 for one that does not.
  std::vector<std::uint32_t> counts_;
  std::size_t present_ = 0;
  std::uint64_t ops_ = 0;
};

struct CachedObject {
  Bytes size = 0;
  int status = 200;
  std::string content_type;
  std::string etag;     // empty: not revalidatable, stale means refetch
  TimeMs ttl_ms = 0;    // freshness lifetime; 0 = never stale
};

struct CacheParams {
  Bytes capacity_bytes = 0;
  // Applied to inserted objects whose own ttl_ms is 0. 0 keeps them immortal.
  TimeMs default_ttl_ms = 0;
  // Stale entries may be served (while revalidating in the background) for
  // this long past expiry; 0 disables stale-while-revalidate.
  TimeMs stale_while_revalidate_ms = 0;
  // No single object may exceed this fraction of the capacity (1.0 restores
  // the historical "fits at all" rule).
  double max_object_fraction = 1.0;
  // Frequency-per-byte admission when inserting would evict (see above).
  bool cost_aware_admission = false;
  // Ghost list shared with other caches (the sharded front door passes one
  // instance to every per-shard segment). Null: the cache owns a private
  // one, which is the historical single-box behavior.
  std::shared_ptr<CacheGhosts> shared_ghosts = nullptr;
};

class HttpCache {
 public:
  struct Stats {
    std::size_t hits = 0;          // fresh hits (includes stale_served)
    std::size_t misses = 0;
    std::size_t insertions = 0;
    std::size_t evictions = 0;
    std::size_t expired = 0;            // lookups that found only a stale entry
    std::size_t stale_served = 0;       // stale hits inside the SWR window
    std::size_t revalidations = 0;      // revalidated() calls (304 refreshes)
    std::size_t admission_rejected = 0; // puts refused by cost-aware admission
    std::size_t prefetch_insertions = 0;
    std::size_t prefetch_useful = 0;    // prefetched entries that saw a hit
    Bytes prefetch_wasted_bytes = 0;    // prefetched, evicted/expired unhit
  };

  enum class Freshness { kFresh, kStale };

  struct Lookup {
    CachedObject object;
    Freshness freshness = Freshness::kFresh;
    // Stale entry still inside the stale-while-revalidate window: serve it
    // now, revalidate in the background.
    bool within_swr = false;
    bool revalidatable = false;  // stale with an etag: conditional GET works
  };

  explicit HttpCache(Bytes capacity_bytes) : HttpCache(CacheParams{capacity_bytes}) {}
  explicit HttpCache(CacheParams params);

  // The key space: URL text to the UrlId every other call takes. Shared
  // with every cache on the same ghost list.
  UrlTable& urls() const { return ghosts_->urls(); }

  // Freshness-aware lookup; any present entry (fresh or stale) refreshes
  // recency and counts in stats. `now_ms` is simulated time.
  std::optional<Lookup> lookup(UrlId url, TimeMs now_ms);

  // Peek without touching recency or stats (for tests/inspection).
  bool contains(UrlId url) const;

  // True if a fresh entry exists at `now_ms`; touches neither recency nor
  // stats — the proxy's front door uses this to decide whether a request can
  // skip admission control before the authoritative lookup() runs.
  bool has_fresh(UrlId url, TimeMs now_ms) const;

  // Copy of the stored object regardless of freshness; no recency/stats
  // side effects (prefetch uses the etag for conditional warm-ups).
  std::optional<CachedObject> peek(UrlId url) const;

  // Insert/overwrite; evicts LRU entries until the object fits, subject to
  // cost-aware admission. Objects larger than max_object_fraction * capacity
  // are rejected (returns false). `prefetched` flags speculative warm-ups
  // for the waste accounting.
  bool put(UrlId url, CachedObject object, TimeMs now_ms, bool prefetched = false);

  // A conditional fetch came back 304: the entry is still valid — restart
  // its TTL clock from `now_ms`. False if the entry vanished meanwhile.
  bool revalidated(UrlId url, TimeMs now_ms);

  Bytes capacity() const { return params_.capacity_bytes; }
  Bytes bytes_used() const;
  std::size_t entry_count() const;
  Stats stats() const;
  const CacheParams& params() const { return params_; }

  // The admission filter's ghost list (shared with other segments when
  // CacheParams::shared_ghosts was set; private otherwise).
  const std::shared_ptr<CacheGhosts>& ghosts() const { return ghosts_; }

  // Bytes of live prefetched entries that have not (yet) served a hit; the
  // bench adds this to stats().prefetch_wasted_bytes for the end-of-run
  // "prefetch-wasted" figure.
  Bytes prefetched_unused_bytes() const;

 private:
  struct Entry {
    UrlId url = kNoUrl;
    CachedObject object;
    TimeMs stored_ms = 0;   // insert or last revalidation time
    std::uint64_t hits = 0;
    bool prefetched = false;  // speculative insert that has not hit yet
  };

  bool fresh_locked(const Entry& e, TimeMs now_ms) const;
  // The entry of `url`, or nullptr when absent.
  Entry* find_locked(UrlId url) const;
  void evict_one_locked();
  bool erase_locked(UrlId url);
  bool admit_locked(UrlId url, Bytes size);
  void retire_prefetch_locked(const Entry& e);

  CacheParams params_;
  mutable std::mutex mu_;
  Bytes used_ = 0;
  std::list<Entry> lru_;  // front = most recent
  // By UrlId: the URL's entry, or lru_.end() (grown on insert).
  std::vector<std::list<Entry>::iterator> index_;
  // The admission filter's memory (see CacheGhosts); private by default,
  // shared across segments when params_.shared_ghosts was set.
  std::shared_ptr<CacheGhosts> ghosts_;
  Stats stats_;
};

// Historical name; the validating cache is a strict superset of the old
// byte-capacity LRU.
using LruCache = HttpCache;

}  // namespace mfhttp
