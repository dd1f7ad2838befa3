#include "fault/faulty_fetcher.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "util/check.h"

namespace mfhttp::fault {

FaultyFetcher::FaultyFetcher(Simulator& sim, HttpFetcher* inner,
                             const FaultPlan& plan)
    : sim_(sim), inner_(inner), plan_(plan), rng_(plan.seed ^ 0x0f0f0f0f) {
  MFHTTP_CHECK(inner_ != nullptr);
}

FaultyFetcher::~FaultyFetcher() {
  // Wrapped callbacks capture `this`; tear down anything still in flight.
  for (auto& [id, sh] : shadows_) {
    if (sh.event != Simulator::kInvalidEvent) sim_.cancel(sh.event);
    if (sh.inner != kInvalidFetch) inner_->cancel(sh.inner);
  }
}

HttpFetcher::FetchId FaultyFetcher::fetch(const HttpRequest& request,
                                          FetchCallbacks callbacks) {
  MFHTTP_CHECK(callbacks.on_complete != nullptr);
  if (!plan_.origin.any()) return inner_->fetch(request, std::move(callbacks));

  const FetchId id = next_id_++;
  Shadow& sh = shadows_[id];
  sh.callbacks = std::move(callbacks);
  sh.url = request.canonical_url().text;
  sh.request_ms = sim_.now();

  // Seeded draws, strictly in request order.
  const bool error =
      plan_.origin.error_rate > 0 && rng_.chance(plan_.origin.error_rate);
  const bool abrupt_close = plan_.origin.abrupt_close_rate > 0 &&
                            rng_.chance(plan_.origin.abrupt_close_rate);

  if (error) {
    static obs::Counter& errors = obs::metrics().counter("fault.origin.errors_total");
    errors.inc();
    const auto& statuses = plan_.origin.error_statuses;
    const int status = statuses[rng_.uniform_int(
        0, static_cast<int>(statuses.size()) - 1)];
    sh.event = sim_.schedule_after(plan_.origin.error_delay_ms, [this, id, status] {
      auto it = shadows_.find(id);
      if (it == shadows_.end()) return;
      Shadow shadow = std::move(it->second);
      shadows_.erase(it);
      if (shadow.callbacks.on_headers)
        shadow.callbacks.on_headers(
            {status, plan_.origin.error_body_size, "text/plain", ""});
      if (shadow.callbacks.on_progress)
        shadow.callbacks.on_progress(plan_.origin.error_body_size,
                                     plan_.origin.error_body_size,
                                     plan_.origin.error_body_size);
      FetchResult result;
      result.url = shadow.url;
      result.status = status;
      result.body_size = plan_.origin.error_body_size;
      result.request_ms = shadow.request_ms;
      result.complete_ms = sim_.now();
      shadow.callbacks.on_complete(result);
    });
    return id;
  }

  if (abrupt_close) sh.close_fraction = plan_.origin.abrupt_close_fraction;

  FetchCallbacks wrapped;
  wrapped.on_headers = [this, id](const SimResponseMeta& meta) {
    auto it = shadows_.find(id);
    if (it == shadows_.end()) return;
    Shadow& shadow = it->second;
    // An abrupt close needs a real body to die inside; one-byte and empty
    // responses complete normally.
    if (shadow.close_fraction > 0 && meta.body_size > 1)
      shadow.close_at = std::clamp<Bytes>(
          static_cast<Bytes>(static_cast<double>(meta.body_size) *
                             shadow.close_fraction),
          1, meta.body_size - 1);
    if (shadow.callbacks.on_headers) shadow.callbacks.on_headers(meta);
  };
  wrapped.on_progress = [this, id](Bytes chunk, Bytes received, Bytes total) {
    auto it = shadows_.find(id);
    if (it == shadows_.end()) return;
    Shadow& shadow = it->second;
    shadow.received = received;
    if (shadow.close_at > 0 && received >= shadow.close_at) {
      static obs::Counter& closes =
          obs::metrics().counter("fault.origin.abrupt_closes_total");
      closes.inc();
      Shadow dying = std::move(shadow);
      shadows_.erase(it);
      inner_->cancel(dying.inner);
      if (dying.callbacks.on_progress)
        dying.callbacks.on_progress(chunk, received, total);
      FetchResult result;
      result.url = dying.url;
      result.status = 0;  // connection reset, no usable response
      result.body_size = dying.received;
      result.request_ms = dying.request_ms;
      result.complete_ms = sim_.now();
      dying.callbacks.on_complete(result);
      return;
    }
    if (shadow.callbacks.on_progress)
      shadow.callbacks.on_progress(chunk, received, total);
  };
  wrapped.on_complete = [this, id](const FetchResult& result) {
    auto it = shadows_.find(id);
    if (it == shadows_.end()) return;
    Shadow shadow = std::move(it->second);
    shadows_.erase(it);
    shadow.callbacks.on_complete(result);
  };
  sh.inner = inner_->fetch(request, std::move(wrapped));
  return id;
}

bool FaultyFetcher::cancel(FetchId id) {
  if (!plan_.origin.any()) return inner_->cancel(id);
  auto it = shadows_.find(id);
  if (it == shadows_.end()) return false;
  Shadow shadow = std::move(it->second);
  shadows_.erase(it);
  if (shadow.event != Simulator::kInvalidEvent) sim_.cancel(shadow.event);
  if (shadow.inner != kInvalidFetch) inner_->cancel(shadow.inner);
  return true;
}

}  // namespace mfhttp::fault
