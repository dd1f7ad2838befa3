#include "feed/feed_controller.h"

#include <algorithm>

#include "util/check.h"
#include "util/logging.h"

namespace mfhttp {

FeedController::FeedController(const Feed& feed, Rect initial_viewport,
                               MitmProxy* proxy, std::size_t initial_media)
    : feed_(feed), proxy_(proxy) {
  MFHTTP_CHECK(proxy_ != nullptr);
  std::size_t present = std::min(initial_media, feed_.media.size());
  for (std::size_t i = 0; i < present; ++i) {
    if (!initial_viewport.overlaps(feed_.media[i].rect))
      block_list_.insert(feed_.media[i].top_version().url);
  }
}

InterceptDecision FeedController::on_request(const HttpRequest& request) {
  if (block_list_.contains(request.canonical_url().text))
    return InterceptDecision::defer();
  return InterceptDecision::allow();
}

void FeedController::release_full(std::size_t media_index) {
  const std::string& url = feed_.media[media_index].top_version().url;
  if (block_list_.erase(url) > 0) {
    ++stats_.full_releases;
    proxy_->release(url);
  }
}

void FeedController::release_as_version(std::size_t media_index, int version) {
  const MediaObject& media = feed_.media[media_index];
  MFHTTP_CHECK(version >= 0 &&
               static_cast<std::size_t>(version) < media.versions.size());
  if (static_cast<std::size_t>(version) + 1 == media.versions.size()) {
    release_full(media_index);
    return;
  }
  const std::string& top_url = media.top_version().url;
  const std::string& sub_url = media.versions[static_cast<std::size_t>(version)].url;
  if (block_list_.erase(top_url) > 0) {
    ++stats_.thumb_releases;
    proxy_->release_rewritten(top_url, sub_url);
  }
}

void FeedController::on_media_appended(std::size_t first_index) {
  for (std::size_t i = first_index; i < feed_.media.size(); ++i)
    block_list_.insert(feed_.media[i].top_version().url);
}

void FeedController::on_policy(const ScrollAnalysis& analysis,
                               const DownloadPolicy& policy) {
  // Unlisted media have no flag set and stay parked. Releases go out in
  // feed order.
  for (const ObjectCoverage* cov : analysis.listed_by_object_index()) {
    const std::size_t i = cov->object_index;
    MFHTTP_CHECK(i < feed_.media.size());
    // Settling in (or starting in) the viewport: full version, instantly
    // playable.
    if (cov->in_initial_viewport || cov->in_final_viewport) {
      release_full(i);
      continue;
    }
    if (!cov->involved) continue;  // stays parked
    // Transient: take the optimizer's version choice (thumbnail for a
    // glimpse, full if the coverage justifies it); skipped objects stay
    // parked.
    const DownloadDecision* d = policy.find(i);
    if (d != nullptr && d->download()) release_as_version(i, d->version);
  }
}

}  // namespace mfhttp
