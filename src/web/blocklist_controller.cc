#include "web/blocklist_controller.h"

#include "obs/metrics.h"
#include "util/check.h"
#include "util/logging.h"

namespace mfhttp {

BlockListController::BlockListController(const WebPage& page, Rect initial_viewport,
                                         MitmProxy* proxy)
    : BlockListController(page, initial_viewport, proxy, Resilience{}) {}

BlockListController::BlockListController(const WebPage& page, Rect initial_viewport,
                                         MitmProxy* proxy, Resilience resilience)
    : page_(page),
      proxy_(proxy),
      resilience_(resilience),
      degradation_("web.blocklist", resilience.degradation) {
  MFHTTP_CHECK(proxy_ != nullptr);
  const std::size_t n = page_.images.size();
  urls_.reserve(n);
  last_image_.resize(n);
  for (std::size_t i = 0; i < n; ++i) last_image_[urls_.intern(url_of(i))] = i;
  last_image_.resize(urls_.size());
  canonical_.resize(n);
  for (std::size_t i = 0; i < n; ++i) canonical_[i] = image_of(url_of(i));
  blocked_.assign(n, 0);
  release_at_ms_.assign(n, kNeverReleased);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = canonical_[i];
    if (!initial_viewport.overlaps(page_.images[i].rect) && blocked_[c] == 0) {
      blocked_[c] = 1;  // step (1)
      ++blocked_count_;
    }
  }
  MFHTTP_INFO << "block list: " << blocked_count_ << "/" << page_.images.size()
              << " images start blocked";
  static obs::Counter& blocked_initial =
      obs::metrics().counter("web.blocklist.blocked_initial_total");
  blocked_initial.inc(blocked_count_);
}

std::size_t BlockListController::image_of(std::string_view url) const {
  const UrlId id = urls_.find(url);
  return id == kNoUrl ? kNoImage : last_image_[id];
}

InterceptDecision BlockListController::on_request(const HttpRequest& request) {
  request.canonical_url(request_url_);
  // Degraded: stop gating entirely — everything flows. One lookup answers
  // both "is this an image?" and "is it parked?".
  const std::size_t image = image_of(request_url_.text);
  const bool is_image = image != kNoImage;
  const bool parked = is_image && blocked_[image] != 0;
  if (!degradation_.degraded() && parked) {
    return InterceptDecision::defer();  // step (2)
  }
  // Unblocked images are viewport-critical; anything else is structure.
  return InterceptDecision::allow(is_image ? kPriorityViewport
                                           : kPriorityStructure);
}

void BlockListController::on_fetch_complete(const FetchResult& result) {
  // Only the images this controller gates inform its health; blocked results
  // are policy, not faults.
  const std::size_t image = image_of(result.url);
  if (image == kNoImage || result.blocked) return;
  const bool failed =
      result.status == 0 || result.status == 429 || result.status >= 500;
  bool entered = false;
  if (failed) {
    entered = degradation_.observe_bad();
  } else {
    // Slip: how long the image took from the moment the policy let it go
    // (or from request, if it was never parked) to the last byte.
    TimeMs start = result.request_ms;
    const TimeMs released = release_at_ms_[image];
    if (released != kNeverReleased) start = std::max(start, released);
    const TimeMs slip = result.complete_ms - start;
    if (slip > resilience_.slip_threshold_ms)
      entered = degradation_.observe_bad();
    else
      degradation_.observe_good();
  }
  if (entered) release_all();
}

void BlockListController::set_degraded(bool degraded) {
  if (degradation_.force(degraded) && degraded) release_all();
}

void BlockListController::release_all() {
  MFHTTP_INFO << "block list degraded: releasing " << blocked_count_
              << " parked urls";
  static obs::Counter& degraded_releases =
      obs::metrics().counter("web.blocklist.degraded_releases_total");
  for (std::size_t i = 0; i < blocked_.size(); ++i) {
    if (blocked_[i] == 0) continue;
    blocked_[i] = 0;
    degraded_releases.inc();
    release_at_ms_[i] = proxy_->now();
    proxy_->release(url_of(i), kPriorityTransient);
  }
  blocked_count_ = 0;
}

void BlockListController::release_image(std::size_t index, int priority) {
  const std::size_t c = canonical_[index];
  if (blocked_[c] != 0) {
    blocked_[c] = 0;
    --blocked_count_;
    ++releases_;
    release_at_ms_[c] = proxy_->now();
    static obs::Counter& releases =
        obs::metrics().counter("web.blocklist.releases_total");
    releases.inc();
    const std::size_t released = proxy_->release(url_of(index), priority);
    // Wasted block: the browser already wanted this object — it sat parked
    // at the proxy until the tracker proved it relevant. Each such release
    // is delay the block list inflicted on a byte that was needed anyway.
    if (released > 0) {
      static obs::Counter& blocked_then_needed =
          obs::metrics().counter("web.blocklist.blocked_then_needed_total");
      blocked_then_needed.inc(released);
    }
  }
}

void BlockListController::on_policy(const ScrollAnalysis& analysis,
                                    const DownloadPolicy& policy) {
  // Unlisted images have no flag set and keep their block. Releases go out
  // in page order.
  const std::vector<const ObjectCoverage*> listed =
      analysis.listed_by_object_index();
  for (const ObjectCoverage* cov : listed) {
    const std::size_t i = cov->object_index;
    MFHTTP_CHECK(i < page_.images.size());
    // Step (3): current/final-viewport images are the most crucial to QoE —
    // release unconditionally.
    if (cov->in_initial_viewport || cov->in_final_viewport) {
      release_image(i, kPriorityViewport);
      continue;
    }
    // Transient images: released only with a positive optimizer value, and
    // at a lower link priority than viewport-critical images.
    if (cov->involved) {
      const DownloadDecision* d = policy.find(i);
      if (d != nullptr && d->download() && d->value > 0)
        release_image(i, kPriorityTransient);
    }
  }

  // Step (3b), speculative: corridor images the optimizer left parked are
  // warmed into the middleware cache over the fast origin hop. The client
  // link sees no byte until a later gesture actually releases them — but
  // that release then streams straight from the proxy.
  if (prefetch_enabled_) {
    static obs::Counter& prefetched =
        obs::metrics().counter("web.blocklist.prefetches_total");
    for (const ObjectCoverage* cov : listed) {
      if (!cov->involved) continue;
      const std::size_t i = cov->object_index;
      if (blocked_[canonical_[i]] == 0) continue;
      if (proxy_->prefetch(url_of(i))) {
        ++prefetches_requested_;
        prefetched.inc();
      }
    }
  }
}

}  // namespace mfhttp
