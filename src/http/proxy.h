// Man-in-the-middle HTTP proxy — the simulated counterpart of the paper's
// mitmdump deployment (§4.3): every client request passes through an
// interceptor that may allow, block, defer, or rewrite it, and allowed
// responses stream back to the client over the (bottleneck) client link.
//
// Deferral is the mechanism behind the flow controller's block list: a
// deferred request is parked until release(url) (object became relevant).
// Rewriting maps a request to a different representation (e.g. a
// lower-resolution tile in the 360° video case study).
//
// Integer-keyed request path (DESIGN.md §21): fetch() interns the request's
// canonical URL once into the cache's UrlTable (a private one without a
// cache), and from there the cache, the ghost list, the deferred lists and
// the warm-up bookkeeping key by that UrlId. Records live on a Slab, so a
// warm proxy serves a cache hit without touching the heap.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "http/cache.h"
#include "http/sim_http.h"
#include "http/url_table.h"
#include "util/slab.h"

namespace mfhttp {

namespace overload {
class AdmissionController;
}  // namespace overload

struct InterceptDecision {
  enum class Action { kAllow, kBlock, kDefer, kRewrite };
  Action action = Action::kAllow;
  std::string rewrite_url;  // used when action == kRewrite
  // Transfer priority on the client link (kFifo links serve higher first;
  // fair-share links ignore it). Only meaningful for kAllow/kRewrite.
  int priority = 0;

  static InterceptDecision allow(int priority = 0) {
    return {Action::kAllow, {}, priority};
  }
  static InterceptDecision block() { return {Action::kBlock, {}, 0}; }
  static InterceptDecision defer() { return {Action::kDefer, {}, 0}; }
  static InterceptDecision rewrite(std::string url, int priority = 0) {
    return {Action::kRewrite, std::move(url), priority};
  }
};

// Policy hook. The flow controller implements this.
class Interceptor {
 public:
  virtual ~Interceptor() = default;
  virtual InterceptDecision on_request(const HttpRequest& request) = 0;
  // Informational: a fetch this proxy served (or blocked) finished.
  virtual void on_fetch_complete(const FetchResult& result) { (void)result; }
};

struct MitmProxyParams {
  // Delay for the proxy to reject a blocked request back to the client.
  TimeMs reject_delay_ms = 5;

  // Request-header hygiene at the proxy front door, mirroring
  // HttpParser::Limits on the socket transport: a request whose header
  // section exceeds either cap bounces with 431 Request Header Fields Too
  // Large before admission, policy, or cache see it. 0 disables a cap.
  std::size_t max_header_bytes = 64 * 1024;
  std::size_t max_header_count = 256;

  // Deferred-queue watchdog (resilience layer). A request parked longer than
  // defer_timeout_ms is either force-released upstream (kRelease — graceful
  // degradation: stale policy beats a stranded client) or failed back to the
  // client with defer_timeout_status (kFail). 0 disables the watchdog.
  enum class DeferTimeoutAction { kRelease, kFail };
  TimeMs defer_timeout_ms = 0;
  DeferTimeoutAction defer_timeout_action = DeferTimeoutAction::kRelease;
  int defer_timeout_status = 504;
};

class MitmProxy : public HttpFetcher {
 public:
  using Params = MitmProxyParams;

  struct Stats {
    std::size_t allowed = 0;
    std::size_t blocked = 0;
    std::size_t deferred = 0;
    std::size_t released = 0;
    std::size_t rewritten = 0;
    std::size_t rejected = 0;  // bounced by admission (429, or 503 on full queues)
    std::size_t shed = 0;      // dropped by brownout load shedding (503)
    std::size_t header_violations = 0;  // bounced with 431 (header caps)
    std::size_t cache_hits = 0;
    std::size_t stale_served = 0;   // stale entries served inside the SWR window
    std::size_t revalidations = 0;  // conditional refreshes (304 or replaced body)
    std::size_t prefetches = 0;         // speculative warm-ups issued upstream
    std::size_t prefetch_denied = 0;    // warm-ups refused by admission headroom
    std::size_t prefetch_cancelled = 0; // warm-ups aborted (predicted path changed)
    Bytes bytes_to_client = 0;
    Bytes bytes_from_upstream_saved = 0;  // upstream bytes avoided via cache
  };

  // upstream: where allowed requests are forwarded (usually a SimHttpOrigin
  // whose link models the fast proxy-origin hop).
  // client_link: the bottleneck hop to the device; response bodies stream
  // over it.
  MitmProxy(Simulator& sim, HttpFetcher* upstream, Link* client_link,
            Params params = {});
  ~MitmProxy() override;

  // No interceptor (nullptr) means allow everything — the baseline path.
  void set_interceptor(Interceptor* interceptor) { interceptor_ = interceptor; }

  // Optional middleware-server cache (§4.2). Successful GET responses are
  // admitted; later fetches of the same URL skip the upstream hop entirely
  // and stream to the client straight from the proxy. The proxy keys its
  // requests by the cache's UrlTable, so the cache is set before the first
  // fetch.
  void set_cache(LruCache* cache);

  // Optional overload protection (overload/admission.h). When installed,
  // every fetch passes the controller's front door first — rate-limited or
  // shed requests complete fast with 429/503 and `FetchResult::rejected`
  // set — the deferred queue becomes bounded, and upstream fetches obey the
  // concurrency cap: admitted overflow parks in a priority dispatch queue
  // (highest InterceptDecision::priority first) until a slot frees.
  void set_admission(overload::AdmissionController* admission) {
    admission_ = admission;
  }

  FetchId fetch(const HttpRequest& request, FetchCallbacks callbacks) override;
  bool cancel(FetchId id) override;

  // Speculative cache warm-up: fetch `url` from the upstream straight into
  // the cache, with no client transfer. The entry is flagged prefetched so
  // the cache can account usefulness vs. waste. Skipped (returns false) when
  // there is no cache, the entry is already fresh, a warm-up for the URL is
  // already in flight, or the admission controller reports no headroom for
  // speculation. A stale revalidatable entry warms conditionally — an
  // unchanged object costs a headers-only round trip.
  bool prefetch(const std::string& url);

  // Abort an in-flight warm-up (the predicted scroll path changed). True if
  // one was cancelled.
  bool cancel_prefetch(const std::string& url);

  // In-flight speculative warm-ups (tests/planner introspection).
  std::size_t prefetch_inflight() const { return prefetching_.size(); }

  // Start all deferred requests whose URL matches, in arrival order.
  // Returns count released.
  // `priority` applies to the client-link transfer (see InterceptDecision).
  std::size_t release(const std::string& url, int priority = 0);

  // Release deferred requests for `url`, but fetch `substitute_url` instead
  // (e.g. a thumbnail for a video clip the user will only glimpse). The
  // client still sees its original request complete — with the substitute's
  // bytes. Returns count released.
  std::size_t release_rewritten(const std::string& url,
                                const std::string& substitute_url,
                                int priority = 0);

  // Admission-control introspection (brownout supervisor sampling).
  std::size_t dispatch_queue_depth() const { return dispatch_queue_.size(); }
  std::size_t deferred_depth() const { return deferred_count_; }
  // Age of the oldest parked (deferred or dispatch-queued) request; 0 if none.
  TimeMs oldest_waiting_age_ms() const;

  const Stats& stats() const { return stats_; }

  // Simulated time, for policy layers that track release-to-delivery slip.
  TimeMs now() const;

 private:
  // Everything a client fetch carries from request to completion. The
  // closures handed to the simulator, the client link and the upstream
  // capture only (this, id) and find their state here, so they fit
  // std::function's small buffer.
  struct Pending {
    HttpRequest request;
    FetchCallbacks callbacks;
    UrlId url = kNoUrl;        // canonical URL of the client's request
    UrlId fetch_url = kNoUrl;  // canonical URL fetched upstream; kNoUrl: `url`
    std::string session;  // x-mfhttp-session identity (admission control)
    TimeMs request_ms = 0;
    int priority = 0;
    // Status the client sees: the bounce's while a rejection is scheduled,
    // the response's once the client stream starts.
    int status = 0;
    bool deferred = false;
    bool defer_accounted = false;  // counted in AdmissionController defer bounds
    bool queued = false;           // parked in the dispatch queue
    bool holds_slot = false;       // owns an upstream concurrency slot
    // Neighbours in the deferred list of `url` (arrival order) while deferred.
    FetchId prev_deferred = kInvalidFetch;
    FetchId next_deferred = kInvalidFetch;
    Simulator::EventId reject_event = Simulator::kInvalidEvent;
    Simulator::EventId watchdog_event = Simulator::kInvalidEvent;
    HttpFetcher::FetchId upstream_id = HttpFetcher::kInvalidFetch;
    Link::TransferId client_transfer = Link::kInvalidTransfer;
    Bytes client_total = 0;     // advertised by the headers that started it
    Bytes client_received = 0;  // delivered to the client so far
    // Response metadata of the client stream, admitted to the cache under
    // upstream_url() on completion when cache_admit is set (upstream
    // responses; cache hits are not re-admitted).
    std::string content_type;
    std::string etag;
    bool cache_admit = false;
    // Stale-but-revalidatable cache entry backing a blocking conditional GET;
    // served as-is if the upstream answers 304.
    std::optional<CachedObject> stale_object;

    // The URL the cache and the upstream see (differs from `url` after a
    // rewrite).
    UrlId upstream_url() const { return fetch_url == kNoUrl ? url : fetch_url; }
    // Slab contract: drop the fetch's state, keeping string capacity.
    void reset();
  };
  // Head and tail of one URL's deferred list.
  struct DeferredList {
    FetchId head = kInvalidFetch;
    FetchId tail = kInvalidFetch;
  };

  void start_upstream(FetchId id);
  // Stream a cache hit to the client without touching the upstream.
  void serve_from_cache(FetchId id, const CachedObject& object);
  // cache_admit: admit the response under the upstream URL on completion.
  void start_client_transfer(FetchId id, const SimResponseMeta& meta,
                             bool cache_admit);
  // One client-link delivery of the response body.
  void on_client_chunk(FetchId id, Bytes chunk, bool complete);
  // Hand `meta` to the client's on_headers, which may cancel the fetch;
  // false when it did.
  bool notify_headers(FetchId id, Pending& p, const SimResponseMeta& meta);
  // Schedule a fast bounce with `status` after the reject delay.
  void schedule_reject(FetchId id, Pending& p, int status);
  void finish_blocked(FetchId id, int status);
  // Complete a request bounced by admission control: 429 (rate) or 503
  // (shed / full queue), FetchResult::rejected set, no bytes moved. The
  // status is the one schedule_reject stored.
  void finish_rejected(FetchId id);
  // Erase a finished fetch's record and report `result` — url and timing
  // filled in from the record — to the client and the interceptor.
  void finish(FetchId id, Pending& p, FetchResult result);
  // Admission bookkeeping helpers; every teardown path funnels through
  // these so queue bounds and the concurrency cap can never leak.
  // Park a fetch on its URL's deferred list (arrival order), and take it
  // off again; both keep the depth accounting.
  void defer(FetchId id, Pending& p);
  void undefer(Pending& p);
  void undefer_accounting(Pending& p);
  void unqueue(FetchId id, Pending& p);
  void release_upstream_slot(Pending& p);
  void dispatch_next();
  // Fail a fetch the proxy cannot serve (upstream died, watchdog kFail):
  // tears down whatever is in flight and completes the client with `status`
  // and the bytes that actually arrived. Unlike finish_blocked this is a
  // fault, not policy — blocked stays false.
  void finish_failed(FetchId id, int status);
  void disarm_watchdog(Pending& p);
  // Pushes the deferred fetches of `url`, in arrival order, onto snapshot_;
  // returns where they start. A release walks its snapshot, not the live
  // list: starting one fetch runs callbacks that may tear others down or
  // release again, stacking their own snapshot above this one and popping
  // it before they return.
  std::size_t snapshot_deferred(const std::string& url);
  // Fire-and-forget conditional refresh of a stale cache entry (the
  // stale-while-revalidate back half). Deduped per URL.
  void background_revalidate(UrlId url, const CachedObject& object);

  // A cache warm-up in flight: a speculative prefetch or a background
  // revalidation, fetched upstream straight into the cache. Its upstream
  // callbacks capture (this, id) like a client fetch's.
  struct Warmup {
    UrlId url = kNoUrl;
    bool prefetch = false;  // false: a stale-while-revalidate refresh
    HttpFetcher::FetchId upstream_id = HttpFetcher::kInvalidFetch;
    std::string content_type;  // from the upstream's headers
    std::string etag;
  };
  // Register a warm-up of `url` and send `request` upstream for it.
  void start_warmup(UrlId url, bool prefetch, const HttpRequest& request);
  void finish_warmup(std::uint64_t id, const FetchResult& result);

  Simulator& sim_;
  HttpFetcher* upstream_;
  Link* client_link_;
  Params params_;
  Interceptor* interceptor_ = nullptr;
  LruCache* cache_ = nullptr;
  overload::AdmissionController* admission_ = nullptr;
  // The key space: the cache's table, or own_urls_ without a cache.
  UrlTable own_urls_;
  UrlTable* urls_ = &own_urls_;
  CanonicalUrl canonical_;  // fetch()'s scratch; keeps its capacity
  Slab<Pending> pending_;
  // By UrlId: the URL's deferred fetches (grown when a fetch defers).
  std::vector<DeferredList> deferred_by_url_;
  std::size_t deferred_count_ = 0;
  std::vector<FetchId> snapshot_;  // release()'s stack of deferred snapshots
  // Admitted requests waiting for an upstream slot: highest priority first,
  // FIFO within a priority class (multimap keeps insertion order for equal
  // keys).
  std::multimap<int, FetchId, std::greater<int>> dispatch_queue_;
  std::uint64_t next_warmup_id_ = 1;
  std::unordered_map<std::uint64_t, Warmup> warmups_;
  // URLs with a background revalidation in flight (dedupe).
  std::unordered_set<UrlId> revalidating_;
  // In-flight speculative warm-ups: URL to warm-up id, for cancellation.
  std::unordered_map<UrlId, std::uint64_t> prefetching_;
  Stats stats_;
};

}  // namespace mfhttp
