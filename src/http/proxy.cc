#include "http/proxy.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "overload/admission.h"
#include "util/check.h"
#include "util/logging.h"

namespace mfhttp {

namespace {

// Parked requests across every proxy instance (queue-depth gauge).
obs::Gauge& deferred_depth_gauge() {
  static obs::Gauge& g = obs::metrics().gauge("http.proxy.deferred_depth");
  return g;
}

// Admitted requests waiting for an upstream concurrency slot.
obs::Gauge& dispatch_depth_gauge() {
  static obs::Gauge& g = obs::metrics().gauge("http.proxy.dispatch_depth");
  return g;
}

obs::Counter& rejected_counter() {
  static obs::Counter& c = obs::metrics().counter("http.proxy.rejected_total");
  return c;
}

obs::Counter& shed_counter() {
  static obs::Counter& c = obs::metrics().counter("http.proxy.shed_total");
  return c;
}

}  // namespace

MitmProxy::MitmProxy(Simulator& sim, HttpFetcher* upstream, Link* client_link,
                     Params params)
    : sim_(sim), upstream_(upstream), client_link_(client_link), params_(params) {
  MFHTTP_CHECK(upstream_ != nullptr);
  MFHTTP_CHECK(client_link_ != nullptr);
}

MitmProxy::~MitmProxy() {
  // Requests still parked when the proxy dies leave the depth gauges otherwise.
  pending_.for_each([](FetchId, const Pending& p) {
    if (p.deferred) deferred_depth_gauge().sub(1);
    if (p.queued) dispatch_depth_gauge().sub(1);
  });
}

void MitmProxy::Pending::reset() {
  // Field by field, which measured cheaper than assigning a default record.
  // `request` is left as is: fetch() overwrites it, reusing its capacity.
  callbacks = {};
  url = fetch_url = kNoUrl;
  session.clear();
  request_ms = 0;
  priority = status = 0;
  deferred = defer_accounted = queued = holds_slot = false;
  prev_deferred = next_deferred = kInvalidFetch;
  reject_event = watchdog_event = Simulator::kInvalidEvent;
  upstream_id = HttpFetcher::kInvalidFetch;
  client_transfer = Link::kInvalidTransfer;
  client_total = client_received = 0;
  content_type.clear();
  etag.clear();
  cache_admit = false;
  stale_object.reset();
}

void MitmProxy::set_cache(LruCache* cache) {
  // Records and warm-ups hold ids of the current table.
  MFHTTP_CHECK(pending_.empty() && warmups_.empty());
  cache_ = cache;
  urls_ = cache != nullptr ? &cache->urls() : &own_urls_;
  deferred_by_url_.clear();
}

HttpFetcher::FetchId MitmProxy::fetch(const HttpRequest& request,
                                      FetchCallbacks callbacks) {
  MFHTTP_CHECK(callbacks.on_complete != nullptr);
  const FetchId id = pending_.insert();
  Pending& p = *pending_.find(id);
  p.request = request;
  p.callbacks = std::move(callbacks);
  request.canonical_url(canonical_);
  p.url = urls_->intern(canonical_.text);
  p.session.assign(request.session());
  p.request_ms = sim_.now();

  static obs::Counter& requests_total =
      obs::metrics().counter("http.proxy.requests_total");
  requests_total.inc();

  // Header hygiene precedes everything else: an abusive request must not
  // charge admission tokens or reach policy code (same caps the socket
  // transport's parser enforces on the wire — see HttpParser::Limits).
  if (params_.max_header_bytes > 0 || params_.max_header_count > 0) {
    std::size_t header_bytes = 0;
    for (const auto& entry : request.headers)
      header_bytes += entry.name().size() + entry.value().size() + 4;  // ": " CRLF
    const bool too_big = params_.max_header_bytes > 0 &&
                         header_bytes > params_.max_header_bytes;
    const bool too_many = params_.max_header_count > 0 &&
                          request.headers.size() > params_.max_header_count;
    if (too_big || too_many) {
      ++stats_.header_violations;
      static obs::Counter& violations =
          obs::metrics().counter("http.proxy.header_violation_total");
      violations.inc();
      MFHTTP_TRACE << "proxy 431 (" << (too_big ? "header bytes" : "header count")
                   << ") " << urls_->url(p.url);
      schedule_reject(id, p, 431);
      return id;
    }
  }

  // A fresh cache hit will be served from the proxy without touching the
  // upstream, so it must not spend admission tokens either — rate limiting
  // protects upstream capacity, and a hit consumes none. Peek only (no
  // stats/recency); the authoritative lookup runs in start_upstream after
  // policy has had its say.
  const bool fresh_hit = cache_ != nullptr && cache_->has_fresh(p.url, sim_.now());

  // Overload front door: rate limiting and brownout shedding run before the
  // interceptor so a condemned request costs the proxy nothing but the
  // bounce. The priority hint travels on the request (x-mfhttp-priority);
  // unhinted requests count as viewport-critical, so single-session callers
  // are never shed ahead of work they did not label.
  if (admission_ != nullptr && !fresh_hit) {
    const int priority = request.priority_hint(overload::kPriorityViewport);
    overload::Decision door = admission_->on_request(p.session, priority, sim_.now());
    if (!door.admitted()) {
      const bool shed = door.verdict == overload::Verdict::kShed;
      if (shed) {
        ++stats_.shed;
        shed_counter().inc();
      } else {
        ++stats_.rejected;
        rejected_counter().inc();
      }
      MFHTTP_TRACE << "proxy " << (shed ? "shed" : "reject") << " (" << door.reason
                   << ") " << urls_->url(p.url);
      schedule_reject(id, p, shed ? 503 : 429);
      return id;
    }
  }

  InterceptDecision decision =
      interceptor_ ? interceptor_->on_request(request) : InterceptDecision::allow();
  p.priority = decision.priority;
  switch (decision.action) {
    case InterceptDecision::Action::kAllow: {
      ++stats_.allowed;
      static obs::Counter& allowed = obs::metrics().counter("http.proxy.allowed_total");
      allowed.inc();
      start_upstream(id);
      break;
    }
    case InterceptDecision::Action::kRewrite: {
      ++stats_.rewritten;
      static obs::Counter& rewritten =
          obs::metrics().counter("http.proxy.rewritten_total");
      rewritten.inc();
      auto url = parse_url(decision.rewrite_url);
      MFHTTP_CHECK_MSG(url.has_value(), "rewrite target must be an absolute URL");
      p.request = HttpRequest::get(*url);
      p.request.canonical_url(canonical_);
      p.fetch_url = urls_->intern(canonical_.text);
      start_upstream(id);
      break;
    }
    case InterceptDecision::Action::kBlock: {
      ++stats_.blocked;
      static obs::Counter& blocked = obs::metrics().counter("http.proxy.blocked_total");
      blocked.inc();
      p.reject_event = sim_.schedule_after(params_.reject_delay_ms,
                                           [this, id] { finish_blocked(id, 403); });
      break;
    }
    case InterceptDecision::Action::kDefer: {
      // Bounded deferred queue: a park the admission controller has no room
      // for becomes a fast 503 instead of an unbounded pile of parked state.
      if (admission_ != nullptr && !admission_->try_defer(p.session)) {
        ++stats_.rejected;
        rejected_counter().inc();
        MFHTTP_TRACE << "proxy reject (deferred_full) " << urls_->url(p.url);
        schedule_reject(id, p, 503);
        break;
      }
      p.defer_accounted = admission_ != nullptr;
      ++stats_.deferred;
      static obs::Counter& deferred =
          obs::metrics().counter("http.proxy.deferred_total");
      deferred.inc();
      defer(id, p);
      MFHTTP_TRACE << "proxy defer " << urls_->url(p.url);
      if (params_.defer_timeout_ms > 0) {
        p.watchdog_event = sim_.schedule_after(params_.defer_timeout_ms, [this, id] {
          Pending* w = pending_.find(id);
          if (w == nullptr || !w->deferred) return;
          w->watchdog_event = Simulator::kInvalidEvent;
          static obs::Counter& timeouts =
              obs::metrics().counter("http.proxy.defer_timeouts_total");
          timeouts.inc();
          MFHTTP_TRACE << "proxy defer timeout " << urls_->url(w->url);
          if (params_.defer_timeout_action == Params::DeferTimeoutAction::kRelease)
            start_upstream(id);
          else
            finish_failed(id, params_.defer_timeout_status);
        });
      }
      break;
    }
  }
  return id;
}

void MitmProxy::start_upstream(FetchId id) {
  Pending* found = pending_.find(id);
  MFHTTP_CHECK(found != nullptr);
  Pending& p = *found;
  undefer(p);
  undefer_accounting(p);
  disarm_watchdog(p);

  // Middleware-server cache: a fresh hit skips the upstream hop entirely.
  // Keyed by the URL actually fetched upstream (which differs from p.url
  // after a rewrite), so substituted responses never poison the original's
  // entry. Stale entries inside the stale-while-revalidate window are served
  // immediately with a background refresh; stale entries beyond it block on
  // a conditional GET when they carry a validator.
  if (cache_ != nullptr) {
    if (auto hit = cache_->lookup(p.upstream_url(), sim_.now())) {
      if (hit->freshness == HttpCache::Freshness::kFresh) {
        serve_from_cache(id, hit->object);
        return;
      }
      if (hit->within_swr) {
        ++stats_.stale_served;
        static obs::Counter& stale =
            obs::metrics().counter("http.proxy.stale_served_total");
        stale.inc();
        background_revalidate(p.upstream_url(), hit->object);
        serve_from_cache(id, hit->object);
        return;
      }
      if (hit->revalidatable) {
        // TTL expired past the SWR window: ask the origin whether the copy
        // is still good before serving it. A 304 answer below streams the
        // cached bytes; a 200 replaces them.
        p.stale_object = hit->object;
        p.request.headers.set(HeaderId::kIfNoneMatch, hit->object.etag);
      }
    }
  }

  // Upstream concurrency cap: when all slots are busy the request parks in
  // the priority dispatch queue; when that too is full it bounces. Cache
  // hits above never consume a slot — they touch no upstream.
  if (admission_ != nullptr && !p.holds_slot) {
    if (!admission_->try_acquire_upstream()) {
      if (!admission_->has_dispatch_room(static_cast<int>(dispatch_queue_.size()))) {
        ++stats_.rejected;
        rejected_counter().inc();
        MFHTTP_TRACE << "proxy reject (dispatch_full) " << urls_->url(p.url);
        schedule_reject(id, p, 503);
        return;
      }
      p.queued = true;
      dispatch_queue_.emplace(p.priority, id);
      dispatch_depth_gauge().add(1);
      return;
    }
    p.holds_slot = true;
  }

  FetchCallbacks up;
  up.on_headers = [this, id](const SimResponseMeta& meta) {
    Pending* found = pending_.find(id);
    if (found == nullptr) return;
    Pending& pd = *found;
    // A resilient upstream re-sends headers on every retry attempt; the
    // client transfer from the first headers keeps streaming.
    if (pd.client_transfer != Link::kInvalidTransfer) return;

    if (meta.status == 304 && pd.stale_object.has_value()) {
      // The origin confirmed the stale copy: restart its TTL and stream the
      // cached bytes — the upstream round trip moved headers only.
      ++stats_.revalidations;
      static obs::Counter& reval =
          obs::metrics().counter("http.proxy.revalidations_total");
      reval.inc();
      cache_->revalidated(pd.upstream_url(), sim_.now());
      CachedObject validated = *pd.stale_object;
      pd.stale_object.reset();
      serve_from_cache(id, validated);
      return;
    }
    pd.stale_object.reset();  // changed upstream: the 200 body replaces it

    if (!notify_headers(id, pd, meta)) return;

    // Begin streaming to the client as soon as upstream headers arrive
    // (cut-through forwarding; the client hop is the bottleneck).
    start_client_transfer(id, meta, /*cache_admit=*/true);
  };
  up.on_complete = [this, id](const FetchResult& r) {
    // Proxy-side copy finished; normally the client-side transfer finishes
    // the fetch. But a dead upstream (reset, timeout, fast-fail, truncated
    // body) must not leave the client waiting on bytes that will never
    // exist: propagate the failure instead.
    Pending* found = pending_.find(id);
    if (found == nullptr) return;
    Pending& pd = *found;
    pd.upstream_id = HttpFetcher::kInvalidFetch;
    // NOTE: the concurrency slot is NOT freed here. With cut-through
    // forwarding the upstream copy finishes long before the client stream
    // on the bottleneck hop; the slot caps requests *in service* end to
    // end, which is what actually protects the client link.
    if (pd.client_transfer == Link::kInvalidTransfer) {
      // Upstream finished without ever producing headers: nothing will ever
      // complete the client fetch. Forward the failure status.
      finish_failed(id, r.status != 0 ? r.status : 502);
      return;
    }
    // A 304 completes with zero body by design: the client stream is being
    // fed from the validated cache entry, not from upstream bytes.
    if (r.status == 304) return;
    if (r.status == 0 || r.body_size < pd.client_total) {
      // Upstream died mid-body; the cut-through stream can never deliver
      // what the headers promised.
      client_link_->cancel(pd.client_transfer);
      pd.client_transfer = Link::kInvalidTransfer;
      finish_failed(id, 502);
    }
  };
  p.upstream_id = upstream_->fetch(p.request, std::move(up));
}

void MitmProxy::serve_from_cache(FetchId id, const CachedObject& object) {
  Pending* p = pending_.find(id);
  MFHTTP_CHECK(p != nullptr);
  ++stats_.cache_hits;
  stats_.bytes_from_upstream_saved += object.size;
  static obs::Counter& cache_hits = obs::metrics().counter("http.proxy.cache_hits_total");
  cache_hits.inc();
  static obs::Counter& saved =
      obs::metrics().counter("http.proxy.upstream_bytes_saved_total");
  saved.inc(static_cast<std::uint64_t>(object.size));
  SimResponseMeta meta;
  meta.status = object.status;
  meta.body_size = object.size;
  meta.content_type = object.content_type;
  meta.etag = object.etag;
  if (!notify_headers(id, *p, meta)) return;
  start_client_transfer(id, meta, /*cache_admit=*/false);
}

bool MitmProxy::notify_headers(FetchId id, Pending& p, const SimResponseMeta& meta) {
  if (p.callbacks.on_headers) {
    // Moved out for the call: the callback may cancel this fetch, which
    // destroys the record (and a callable still stored in it). A fetch
    // reports headers once, so the callable is not put back.
    auto on_headers = std::move(p.callbacks.on_headers);
    on_headers(meta);
  }
  return pending_.contains(id);
}

void MitmProxy::start_client_transfer(FetchId id, const SimResponseMeta& meta,
                                      bool cache_admit) {
  Pending* found = pending_.find(id);
  MFHTTP_CHECK(found != nullptr);
  Pending& p = *found;
  p.status = meta.status;
  p.content_type = meta.content_type;
  p.etag = meta.etag;
  p.cache_admit = cache_admit;
  p.client_total = meta.body_size;
  p.client_received = 0;
  p.client_transfer = client_link_->submit(
      meta.body_size,
      [this, id](Bytes chunk, bool complete) { on_client_chunk(id, chunk, complete); },
      p.priority);
}

void MitmProxy::on_client_chunk(FetchId id, Bytes chunk, bool complete) {
  Pending* p = pending_.find(id);
  if (p == nullptr) return;
  p->client_received += chunk;
  stats_.bytes_to_client += chunk;
  static obs::Counter& to_client =
      obs::metrics().counter("http.proxy.bytes_to_client_total");
  to_client.inc(static_cast<std::uint64_t>(chunk));
  if (p->callbacks.on_progress) {
    // Same re-entrancy rule as notify_headers: put back only if the fetch
    // survived its own callback.
    auto on_progress = std::move(p->callbacks.on_progress);
    on_progress(chunk, p->client_received, p->client_total);
    p = pending_.find(id);
    if (p == nullptr) return;
    p->callbacks.on_progress = std::move(on_progress);
  }
  if (!complete) return;
  Pending& done = *p;
  if (done.upstream_id != HttpFetcher::kInvalidFetch)
    upstream_->cancel(done.upstream_id);  // upstream may lag the client
  release_upstream_slot(done);
  if (done.cache_admit && cache_ != nullptr && done.status == 200)
    cache_->put(done.upstream_url(),
                CachedObject{done.client_total, done.status,
                             std::move(done.content_type), std::move(done.etag)},
                sim_.now());
  FetchResult result;
  result.status = done.status;
  result.body_size = done.client_received;
  finish(id, done, std::move(result));
}

void MitmProxy::finish(FetchId id, Pending& p, FetchResult result) {
  // The table outlives the record: the view stays valid after the erase.
  result.url = urls_->url(p.url);
  result.request_ms = p.request_ms;
  result.complete_ms = sim_.now();
  auto on_complete = std::move(p.callbacks.on_complete);
  pending_.erase(id);
  on_complete(result);
  if (interceptor_) interceptor_->on_fetch_complete(result);
}

void MitmProxy::background_revalidate(UrlId url, const CachedObject& object) {
  if (!revalidating_.insert(url).second) return;  // one refresh at a time
  auto parsed = parse_url(urls_->url(url));
  if (!parsed.has_value()) {
    revalidating_.erase(url);
    return;
  }
  HttpRequest req = HttpRequest::get(*parsed);
  if (!object.etag.empty()) req.headers.set(HeaderId::kIfNoneMatch, object.etag);
  req.set_priority_hint(overload::kPrioritySpeculative);
  // Deliberately bypasses the admission slot: in the common (304) case this
  // round trip moves headers only, and the client it serves is already
  // streaming the stale copy.
  start_warmup(url, /*prefetch=*/false, req);
}

bool MitmProxy::prefetch(const std::string& url_text) {
  if (cache_ == nullptr) return false;
  const UrlId url = urls_->intern(url_text);
  if (prefetching_.contains(url)) return false;
  if (cache_->has_fresh(url, sim_.now())) return false;  // already warm
  if (admission_ != nullptr && !admission_->allow_prefetch(sim_.now())) {
    ++stats_.prefetch_denied;
    static obs::Counter& denied =
        obs::metrics().counter("http.proxy.prefetch_denied_total");
    denied.inc();
    return false;
  }
  auto parsed = parse_url(url_text);
  if (!parsed.has_value()) return false;
  HttpRequest req = HttpRequest::get(*parsed);
  req.set_priority_hint(overload::kPrioritySpeculative);
  if (auto existing = cache_->peek(url); existing && !existing->etag.empty())
    req.headers.set(HeaderId::kIfNoneMatch, existing->etag);

  ++stats_.prefetches;
  static obs::Counter& issued =
      obs::metrics().counter("http.proxy.prefetch_issued_total");
  issued.inc();
  start_warmup(url, /*prefetch=*/true, req);
  return true;
}

void MitmProxy::start_warmup(UrlId url, bool prefetch, const HttpRequest& request) {
  const std::uint64_t id = next_warmup_id_++;
  Warmup& w = warmups_[id];
  w.url = url;
  w.prefetch = prefetch;
  if (prefetch) prefetching_[url] = id;
  FetchCallbacks cbs;
  cbs.on_headers = [this, id](const SimResponseMeta& meta) {
    auto it = warmups_.find(id);
    if (it == warmups_.end()) return;
    it->second.content_type = meta.content_type;
    it->second.etag = meta.etag;
  };
  cbs.on_complete = [this, id](const FetchResult& r) { finish_warmup(id, r); };
  const HttpFetcher::FetchId upstream_id = upstream_->fetch(request, std::move(cbs));
  // A fast-failing upstream may already have completed (and erased) it.
  if (auto it = warmups_.find(id); it != warmups_.end())
    it->second.upstream_id = upstream_id;
}

void MitmProxy::finish_warmup(std::uint64_t id, const FetchResult& r) {
  auto it = warmups_.find(id);
  if (it == warmups_.end()) return;
  Warmup w = std::move(it->second);
  warmups_.erase(it);
  if (w.prefetch)
    prefetching_.erase(w.url);
  else
    revalidating_.erase(w.url);
  if (cache_ == nullptr || (r.status != 304 && r.status != 200)) return;
  if (!w.prefetch) {
    ++stats_.revalidations;
    static obs::Counter& reval =
        obs::metrics().counter("http.proxy.revalidations_total");
    reval.inc();
  }
  if (r.status == 304)
    cache_->revalidated(w.url, sim_.now());
  else
    cache_->put(w.url,
                CachedObject{r.body_size, 200, std::move(w.content_type),
                             std::move(w.etag)},
                sim_.now(), /*prefetched=*/w.prefetch);
}

bool MitmProxy::cancel_prefetch(const std::string& url) {
  auto it = prefetching_.find(urls_->find(url));
  if (it == prefetching_.end()) return false;
  auto wit = warmups_.find(it->second);
  prefetching_.erase(it);
  if (wit != warmups_.end()) {
    const HttpFetcher::FetchId upstream_id = wit->second.upstream_id;
    warmups_.erase(wit);
    if (upstream_id != HttpFetcher::kInvalidFetch) upstream_->cancel(upstream_id);
  }
  ++stats_.prefetch_cancelled;
  static obs::Counter& cancelled =
      obs::metrics().counter("http.proxy.prefetch_cancelled_total");
  cancelled.inc();
  return true;
}

void MitmProxy::finish_failed(FetchId id, int status) {
  Pending* found = pending_.find(id);
  if (found == nullptr) return;
  Pending& p = *found;
  undefer(p);
  undefer_accounting(p);
  unqueue(id, p);
  release_upstream_slot(p);
  disarm_watchdog(p);
  if (p.reject_event != Simulator::kInvalidEvent) sim_.cancel(p.reject_event);
  if (p.upstream_id != HttpFetcher::kInvalidFetch) upstream_->cancel(p.upstream_id);
  if (p.client_transfer != Link::kInvalidTransfer)
    client_link_->cancel(p.client_transfer);
  static obs::Counter& failed = obs::metrics().counter("http.proxy.failed_total");
  failed.inc();
  FetchResult result;
  result.status = status;
  result.body_size = p.client_received;
  finish(id, p, std::move(result));
}

void MitmProxy::schedule_reject(FetchId id, Pending& p, int status) {
  p.status = status;
  p.reject_event =
      sim_.schedule_after(params_.reject_delay_ms, [this, id] { finish_rejected(id); });
}

void MitmProxy::finish_rejected(FetchId id) {
  Pending* found = pending_.find(id);
  if (found == nullptr) return;
  Pending& p = *found;
  undefer(p);
  undefer_accounting(p);
  unqueue(id, p);
  release_upstream_slot(p);
  disarm_watchdog(p);
  FetchResult result;
  result.status = p.status;
  result.rejected = true;
  finish(id, p, std::move(result));
}

void MitmProxy::defer(FetchId id, Pending& p) {
  p.deferred = true;
  ++deferred_count_;
  deferred_depth_gauge().add(1);
  // Append to the URL's deferred list: release and abort walk it in arrival
  // order without scanning every record.
  if (p.url >= deferred_by_url_.size()) deferred_by_url_.resize(urls_->size());
  DeferredList& list = deferred_by_url_[p.url];
  p.prev_deferred = list.tail;
  if (list.tail != kInvalidFetch)
    pending_.find(list.tail)->next_deferred = id;
  else
    list.head = id;
  list.tail = id;
}

void MitmProxy::undefer(Pending& p) {
  if (!p.deferred) return;
  p.deferred = false;
  --deferred_count_;
  deferred_depth_gauge().sub(1);
  DeferredList& list = deferred_by_url_[p.url];
  if (p.prev_deferred != kInvalidFetch)
    pending_.find(p.prev_deferred)->next_deferred = p.next_deferred;
  else
    list.head = p.next_deferred;
  if (p.next_deferred != kInvalidFetch)
    pending_.find(p.next_deferred)->prev_deferred = p.prev_deferred;
  else
    list.tail = p.prev_deferred;
  p.prev_deferred = p.next_deferred = kInvalidFetch;
}

void MitmProxy::undefer_accounting(Pending& p) {
  if (!p.defer_accounted) return;
  p.defer_accounted = false;
  admission_->on_undefer(p.session);
}

void MitmProxy::unqueue(FetchId id, Pending& p) {
  if (!p.queued) return;
  p.queued = false;
  dispatch_depth_gauge().sub(1);
  for (auto it = dispatch_queue_.begin(); it != dispatch_queue_.end(); ++it) {
    if (it->second == id) {
      dispatch_queue_.erase(it);
      return;
    }
  }
}

void MitmProxy::release_upstream_slot(Pending& p) {
  if (!p.holds_slot) return;
  p.holds_slot = false;
  admission_->release_upstream();
  // Dispatch from a fresh event, not from the middle of whatever teardown or
  // completion callback freed the slot — same simulated instant, no
  // reentrancy into a map we may be iterating.
  sim_.schedule_after(0, [this] { dispatch_next(); });
}

void MitmProxy::dispatch_next() {
  while (!dispatch_queue_.empty()) {
    auto it = dispatch_queue_.begin();  // highest priority, FIFO within class
    const FetchId id = it->second;
    dispatch_queue_.erase(it);
    Pending* p = pending_.find(id);
    if (p == nullptr) continue;  // torn down while queued
    p->queued = false;
    dispatch_depth_gauge().sub(1);
    start_upstream(id);  // re-acquires the freed slot (or re-parks if raced)
    return;
  }
}

void MitmProxy::disarm_watchdog(Pending& p) {
  if (p.watchdog_event == Simulator::kInvalidEvent) return;
  sim_.cancel(p.watchdog_event);
  p.watchdog_event = Simulator::kInvalidEvent;
}

TimeMs MitmProxy::now() const { return sim_.now(); }

void MitmProxy::finish_blocked(FetchId id, int status) {
  Pending* found = pending_.find(id);
  if (found == nullptr) return;
  Pending& p = *found;
  undefer(p);
  undefer_accounting(p);
  unqueue(id, p);
  release_upstream_slot(p);
  disarm_watchdog(p);
  FetchResult result;
  result.status = status;
  result.blocked = true;
  finish(id, p, std::move(result));
}

bool MitmProxy::cancel(FetchId id) {
  Pending* found = pending_.find(id);
  if (found == nullptr) return false;
  Pending& p = *found;
  undefer(p);
  undefer_accounting(p);
  unqueue(id, p);
  release_upstream_slot(p);
  disarm_watchdog(p);
  if (p.reject_event != Simulator::kInvalidEvent) sim_.cancel(p.reject_event);
  if (p.upstream_id != HttpFetcher::kInvalidFetch) upstream_->cancel(p.upstream_id);
  if (p.client_transfer != Link::kInvalidTransfer)
    client_link_->cancel(p.client_transfer);
  pending_.erase(id);
  return true;
}

std::size_t MitmProxy::snapshot_deferred(const std::string& url) {
  const std::size_t begin = snapshot_.size();
  const UrlId id = urls_->find(url);
  if (id >= deferred_by_url_.size()) return begin;
  for (FetchId at = deferred_by_url_[id].head; at != kInvalidFetch;
       at = pending_.find(at)->next_deferred)
    snapshot_.push_back(at);
  return begin;
}

std::size_t MitmProxy::release(const std::string& url, int priority) {
  std::size_t released_count = 0;
  const std::size_t begin = snapshot_deferred(url);
  for (std::size_t i = begin; i < snapshot_.size(); ++i) {
    const FetchId id = snapshot_[i];
    // An earlier release's callbacks may have torn this one down.
    Pending* p = pending_.find(id);
    if (p == nullptr || !p->deferred) continue;
    ++released_count;
    ++stats_.released;
    static obs::Counter& released = obs::metrics().counter("http.proxy.released_total");
    released.inc();
    MFHTTP_TRACE << "proxy release " << url;
    p->priority = priority;
    start_upstream(id);
  }
  snapshot_.resize(begin);
  return released_count;
}

std::size_t MitmProxy::release_rewritten(const std::string& url,
                                         const std::string& substitute_url,
                                         int priority) {
  auto substitute = parse_url(substitute_url);
  MFHTTP_CHECK_MSG(substitute.has_value(), "substitute must be an absolute URL");
  const HttpRequest substitute_request = HttpRequest::get(*substitute);
  const UrlId substitute_fetch_url =
      urls_->intern(substitute_request.canonical_url().text);
  std::size_t released_count = 0;
  const std::size_t begin = snapshot_deferred(url);
  for (std::size_t i = begin; i < snapshot_.size(); ++i) {
    const FetchId id = snapshot_[i];
    Pending* p = pending_.find(id);
    if (p == nullptr || !p->deferred) continue;
    ++released_count;
    ++stats_.released;
    ++stats_.rewritten;
    static obs::Counter& released = obs::metrics().counter("http.proxy.released_total");
    released.inc();
    static obs::Counter& rewritten =
        obs::metrics().counter("http.proxy.rewritten_total");
    rewritten.inc();
    MFHTTP_TRACE << "proxy release " << url << " as " << substitute_url;
    p->request = substitute_request;
    p->fetch_url = substitute_fetch_url;
    p->priority = priority;
    start_upstream(id);
  }
  snapshot_.resize(begin);
  return released_count;
}

TimeMs MitmProxy::oldest_waiting_age_ms() const {
  TimeMs oldest = 0;
  pending_.for_each([this, &oldest](FetchId, const Pending& p) {
    if (p.deferred || p.queued) oldest = std::max(oldest, sim_.now() - p.request_ms);
  });
  return oldest;
}

}  // namespace mfhttp
