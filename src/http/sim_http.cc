#include "http/sim_http.h"

#include <memory>
#include <utility>

#include "util/check.h"
#include "util/logging.h"

namespace mfhttp {

SimHttpOrigin::SimHttpOrigin(Simulator& sim, const ObjectStore* store, Link* link,
                             Params params)
    : sim_(sim), store_(store), link_(link), params_(params) {
  MFHTTP_CHECK(store_ != nullptr);
  MFHTTP_CHECK(link_ != nullptr);
}

HttpFetcher::FetchId SimHttpOrigin::fetch(const HttpRequest& request,
                                          FetchCallbacks callbacks) {
  MFHTTP_CHECK(callbacks.on_complete != nullptr);
  FetchId id = next_id_++;
  auto url = request.url();
  std::string url_str = url ? url->to_string() : request.target;
  std::string path = url ? url->path : request.target;
  std::string if_none_match(
      request.headers.get_view("If-None-Match").value_or(std::string_view{}));
  TimeMs request_ms = sim_.now();

  Inflight& fl = inflight_[id];
  // Runs once, so it hands url_str and cbs on to the link callback by move.
  fl.pending_event = sim_.schedule_after(
      params_.request_delay_ms, [this, id, path, url_str, request_ms, if_none_match,
                                 cbs = std::move(callbacks)]() mutable {
    auto it = inflight_.find(id);
    if (it == inflight_.end()) return;  // cancelled
    it->second.pending_event = Simulator::kInvalidEvent;

    const StoredObject* obj = store_->find(path);
    const bool not_modified =
        obj != nullptr && !obj->etag.empty() && if_none_match == obj->etag;
    SimResponseMeta meta;
    meta.status = obj ? (not_modified ? 304 : 200) : 404;
    meta.body_size =
        not_modified ? 0 : (obj ? obj->wire_size() : params_.error_body_size);
    meta.content_type = obj ? obj->content_type : "text/plain";
    meta.etag = obj ? obj->etag : "";
    if (cbs.on_headers) cbs.on_headers(meta);

    // The headers callback may have cancelled this fetch.
    it = inflight_.find(id);
    if (it == inflight_.end()) return;

    if (not_modified) {
      // 304 carries headers only: complete without touching the link.
      inflight_.erase(it);
      FetchResult result;
      result.url = url_str;
      result.status = 304;
      result.body_size = 0;
      result.request_ms = request_ms;
      result.complete_ms = sim_.now();
      cbs.on_complete(result);
      return;
    }

    auto received = std::make_shared<Bytes>(0);
    Bytes total = meta.body_size;
    int status = meta.status;
    it->second.transfer = link_->submit(
        total, [this, id, url_str = std::move(url_str), request_ms, total, status,
                received, cbs = std::move(cbs)](Bytes chunk, bool complete) {
          *received += chunk;
          if (cbs.on_progress) cbs.on_progress(chunk, *received, total);
          if (complete) {
            inflight_.erase(id);
            FetchResult result;
            result.url = url_str;
            result.status = status;
            result.body_size = *received;
            result.request_ms = request_ms;
            result.complete_ms = sim_.now();
            cbs.on_complete(result);
          }
        });
  });
  return id;
}

bool SimHttpOrigin::cancel(FetchId id) {
  auto it = inflight_.find(id);
  if (it == inflight_.end()) return false;
  if (it->second.pending_event != Simulator::kInvalidEvent)
    sim_.cancel(it->second.pending_event);
  if (it->second.transfer != Link::kInvalidTransfer)
    link_->cancel(it->second.transfer);
  inflight_.erase(it);
  return true;
}

}  // namespace mfhttp
