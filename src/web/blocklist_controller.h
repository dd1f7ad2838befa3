// Block-list flow controller for web browsing — the §5.1.2 workflow.
//
//  (1) When the page is requested, every image outside the initial viewport
//      goes on the block list.
//  (2) Requests whose URL is on the block list are parked at the proxy
//      (deferred), never touching the bottleneck link.
//  (3) On every scroll update from the screen scrolling tracker: images in
//      the current or final viewport leave the block list unconditionally;
//      images that appear only transiently are released iff their optimizer
//      value p·Q − q·C is positive; everything else stays blocked.
//  (4) Each new gesture repeats (3) with fresh analysis.
//
// Graceful degradation (DESIGN.md §9): the controller watches its own
// outcomes — release-to-delivery slip and failed image fetches — and when
// they stay bad (or the origin's circuit breaker opens) it stops gating:
// every parked image is released, the block list empties, and new requests
// pass straight through until outcomes recover. A stale policy must never
// strand the client.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/flow_controller.h"
#include "core/scroll_tracker.h"
#include "fault/degradation.h"
#include "http/proxy.h"
#include "http/url_table.h"
#include "web/page.h"

namespace mfhttp {

// The controller borrows its page: the WebPage passed in must outlive it.
class BlockListController : public Interceptor {
 public:
  struct Resilience {
    TimeMs slip_threshold_ms = 4000;  // release-to-delivery slip that counts bad
    fault::DegradationParams degradation;
  };

  BlockListController(const WebPage& page, Rect initial_viewport, MitmProxy* proxy);
  BlockListController(const WebPage& page, Rect initial_viewport, MitmProxy* proxy,
                      Resilience resilience);

  // Interceptor: structural resources pass through; blocked images defer.
  InterceptDecision on_request(const HttpRequest& request) override;

  // Interceptor: feed delivery outcomes into the degradation tracker.
  void on_fetch_complete(const FetchResult& result) override;

  // Wire this to Middleware::set_policy_callback.
  void on_policy(const ScrollAnalysis& analysis, const DownloadPolicy& policy);

  // External degradation override (circuit-breaker wiring). Entering
  // degraded mode releases every parked request.
  void set_degraded(bool degraded);
  bool degraded() const { return degradation_.degraded(); }

  // Transfer priorities on the client link (meaningful on kFifo links):
  // structural resources above everything, then viewport-critical images,
  // then transient-corridor images.
  static constexpr int kPriorityStructure = 3;
  static constexpr int kPriorityViewport = 2;
  static constexpr int kPriorityTransient = 1;

  // Speculative cache warm-up: when enabled, every on_policy pass asks the
  // proxy to prefetch corridor images the optimizer left parked — they cost
  // only the fast origin hop now, and a later gesture's release streams from
  // the middleware cache with no upstream round trip. Subject to the
  // proxy's own admission headroom check.
  void set_prefetch_enabled(bool enabled) { prefetch_enabled_ = enabled; }
  bool prefetch_enabled() const { return prefetch_enabled_; }
  std::size_t prefetches_requested() const { return prefetches_requested_; }

  bool is_blocked(std::string_view url) const {
    const std::size_t i = image_of(url);
    return i != kNoImage && blocked_[i] != 0;
  }
  std::size_t block_list_size() const { return blocked_count_; }
  std::size_t releases() const { return releases_; }

 private:
  static constexpr std::size_t kNoImage = static_cast<std::size_t>(-1);
  static constexpr TimeMs kNeverReleased = -1;

  void release_image(std::size_t index, int priority);
  void release_all();
  // The canonical image index of `url`, or kNoImage.
  std::size_t image_of(std::string_view url) const;
  const std::string& url_of(std::size_t index) const {
    return page_.images[index].top_version().url;
  }

  // Per-image hot records on arena-style indices, built once at
  // construction with a fixed number of allocations. The per-gesture
  // policy loop (on_policy -> release_image) walks these parallel vectors;
  // the URL table is only touched on the request path, where the URL is
  // all we have.
  const WebPage& page_;
  MitmProxy* proxy_;
  Resilience resilience_;
  fault::DegradationState degradation_;
  // The page's distinct image URLs; by UrlId, the last image holding each.
  // Two images can share a URL; the old url-set semantics are kept by
  // carrying the blocked bit on that one canonical index per unique URL.
  UrlTable urls_;
  std::vector<std::size_t> last_image_;  // by UrlId
  std::vector<std::size_t> canonical_;   // by image
  std::vector<std::uint8_t> blocked_;    // 1 = parked, by canonical index
  std::size_t blocked_count_ = 0;
  std::vector<TimeMs> release_at_ms_;  // kNeverReleased until first release
  CanonicalUrl request_url_;           // on_request's scratch; keeps its capacity
  std::size_t releases_ = 0;
  bool prefetch_enabled_ = false;
  std::size_t prefetches_requested_ = 0;
};

}  // namespace mfhttp
