#include "http/resilient_fetcher.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "util/check.h"

namespace mfhttp {

namespace {

std::string breaker_key(const HttpRequest& request) {
  if (auto url = request.url()) return url->host;
  return request.target;
}

}  // namespace

ResilientFetcher::ResilientFetcher(Simulator& sim, HttpFetcher* inner,
                                   Params params)
    : sim_(sim),
      inner_(inner),
      params_(params),
      breaker_(params.breaker),
      rng_(params.seed ^ 0xb0ffb0ff) {
  MFHTTP_CHECK(inner_ != nullptr);
  MFHTTP_CHECK(params_.max_attempts >= 1);
  MFHTTP_CHECK(params_.backoff_jitter >= 0 && params_.backoff_jitter < 1);
  breaker_.set_on_transition([this](const std::string& key,
                                    CircuitBreaker::State /*from*/,
                                    CircuitBreaker::State to) {
    if (!degraded_fn_) return;
    if (to == CircuitBreaker::State::kOpen) degraded_fn_(key, true);
    if (to == CircuitBreaker::State::kClosed) degraded_fn_(key, false);
  });
}

ResilientFetcher::~ResilientFetcher() {
  for (auto& [id, a] : attempts_) {
    if (a.timeout_event != Simulator::kInvalidEvent) sim_.cancel(a.timeout_event);
    if (a.backoff_event != Simulator::kInvalidEvent) sim_.cancel(a.backoff_event);
    if (a.inner != kInvalidFetch) inner_->cancel(a.inner);
  }
}

HttpFetcher::FetchId ResilientFetcher::fetch(const HttpRequest& request,
                                             FetchCallbacks callbacks) {
  MFHTTP_CHECK(callbacks.on_complete != nullptr);
  const FetchId id = next_id_++;
  Attempt& a = attempts_[id];
  a.request = request;
  a.callbacks = std::move(callbacks);
  a.key = breaker_key(request);
  a.url = request.canonical_url().text;
  a.request_ms = sim_.now();

  if (!breaker_.allow(a.key, sim_.now())) {
    // Fast-fail: the origin is known-bad; answer 503 without touching it.
    // Still asynchronous — callers never see on_complete inside fetch().
    static obs::Counter& fast =
        obs::metrics().counter("http.resilient.fast_fails_total");
    fast.inc();
    a.backoff_event = sim_.schedule_after(0, [this, id] {
      auto it = attempts_.find(id);
      if (it == attempts_.end()) return;
      it->second.backoff_event = Simulator::kInvalidEvent;
      FetchResult result;
      result.url = it->second.url;
      result.status = 503;
      result.request_ms = it->second.request_ms;
      result.complete_ms = sim_.now();
      finish(id, std::move(result));
    });
    return id;
  }

  start_attempt(id);
  return id;
}

void ResilientFetcher::start_attempt(FetchId id) {
  Attempt& a = attempts_.at(id);
  static obs::Counter& attempts =
      obs::metrics().counter("http.resilient.attempts_total");
  attempts.inc();

  if (params_.attempt_timeout_ms > 0) {
    a.timeout_event = sim_.schedule_after(params_.attempt_timeout_ms, [this, id] {
      auto it = attempts_.find(id);
      if (it == attempts_.end()) return;
      Attempt& at = it->second;
      at.timeout_event = Simulator::kInvalidEvent;
      inner_->cancel(at.inner);
      at.inner = kInvalidFetch;
      static obs::Counter& timeouts =
          obs::metrics().counter("http.resilient.timeouts_total");
      timeouts.inc();
      FetchResult result;
      result.url = at.url;
      result.status = 504;  // deadline exceeded
      result.request_ms = at.request_ms;
      result.complete_ms = sim_.now();
      on_attempt_complete(id, result);
    });
  }

  FetchCallbacks wrapped;
  wrapped.on_headers = [this, id](const SimResponseMeta& meta) {
    auto it = attempts_.find(id);
    if (it == attempts_.end()) return;
    it->second.expected = meta.body_size;
    // Hold back headers that announce a retryable error while retries
    // remain: downstream consumers (the proxy's cut-through stream) commit
    // to the first headers they see, and these are about to be superseded.
    const bool retryable_status = meta.status == 429 || meta.status >= 500;
    if (retryable_status && it->second.attempt < params_.max_attempts) return;
    if (it->second.callbacks.on_headers) it->second.callbacks.on_headers(meta);
  };
  wrapped.on_progress = [this, id](Bytes chunk, Bytes received, Bytes total) {
    auto it = attempts_.find(id);
    if (it == attempts_.end()) return;
    if (it->second.callbacks.on_progress)
      it->second.callbacks.on_progress(chunk, received, total);
  };
  wrapped.on_complete = [this, id](const FetchResult& result) {
    auto it = attempts_.find(id);
    if (it == attempts_.end()) return;
    Attempt& at = it->second;
    at.inner = kInvalidFetch;
    if (at.timeout_event != Simulator::kInvalidEvent) {
      sim_.cancel(at.timeout_event);
      at.timeout_event = Simulator::kInvalidEvent;
    }
    on_attempt_complete(id, result);
  };
  a.inner = inner_->fetch(a.request, std::move(wrapped));
}

bool ResilientFetcher::retryable(int status, Bytes body_size, Bytes expected,
                                 bool blocked) const {
  if (blocked) return false;  // middleware policy, not a fault
  if (status == 0 || status == 429 || status >= 500) return true;
  if (params_.retry_truncated && status == 200 && expected > 0 &&
      body_size < expected)
    return true;
  return false;
}

void ResilientFetcher::on_attempt_complete(FetchId id, const FetchResult& result) {
  Attempt& a = attempts_.at(id);

  if (!retryable(result.status, result.body_size, a.expected, result.blocked)) {
    breaker_.record_success(a.key, sim_.now());
    if (a.attempt > 1) {
      static obs::Counter& recovered =
          obs::metrics().counter("http.resilient.recovered_total");
      recovered.inc();
    }
    FetchResult adjusted = result;
    adjusted.request_ms = a.request_ms;  // latency spans every attempt
    finish(id, std::move(adjusted));
    return;
  }

  breaker_.record_failure(a.key, sim_.now());

  const bool attempts_left = a.attempt < params_.max_attempts;
  if (!attempts_left || !breaker_.allow(a.key, sim_.now())) {
    static obs::Counter& failures =
        obs::metrics().counter("http.resilient.failures_total");
    failures.inc();
    FetchResult adjusted = result;
    adjusted.request_ms = a.request_ms;
    finish(id, std::move(adjusted));
    return;
  }

  static obs::Counter& retries = obs::metrics().counter("http.resilient.retries_total");
  retries.inc();
  a.attempt += 1;
  a.expected = 0;
  TimeMs delay = std::min(
      params_.backoff_cap_ms,
      params_.backoff_base_ms * (TimeMs{1} << std::min(a.attempt - 2, 20)));
  if (params_.backoff_jitter > 0 && delay > 0) {
    const double spread = params_.backoff_jitter * static_cast<double>(delay);
    delay += static_cast<TimeMs>(rng_.uniform(-spread, spread));
    delay = std::max<TimeMs>(delay, 0);
  }
  a.backoff_event = sim_.schedule_after(delay, [this, id] {
    auto it = attempts_.find(id);
    if (it == attempts_.end()) return;
    it->second.backoff_event = Simulator::kInvalidEvent;
    start_attempt(id);
  });
}

void ResilientFetcher::finish(FetchId id, FetchResult result) {
  auto it = attempts_.find(id);
  MFHTTP_CHECK(it != attempts_.end());
  FetchCallbacks callbacks = std::move(it->second.callbacks);
  // The result's url may view the record: keep the text alive for the call.
  const std::string url = std::move(it->second.url);
  result.url = url;
  attempts_.erase(it);
  callbacks.on_complete(result);
}

bool ResilientFetcher::cancel(FetchId id) {
  auto it = attempts_.find(id);
  if (it == attempts_.end()) return false;
  Attempt a = std::move(it->second);
  attempts_.erase(it);
  if (a.timeout_event != Simulator::kInvalidEvent) sim_.cancel(a.timeout_event);
  if (a.backoff_event != Simulator::kInvalidEvent) sim_.cancel(a.backoff_event);
  if (a.inner != kInvalidFetch) {
    inner_->cancel(a.inner);
    breaker_.abandon(a.key);  // free a half-open probe slot if we held it
  }
  return true;
}

}  // namespace mfhttp
