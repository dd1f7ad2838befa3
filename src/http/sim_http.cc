#include "http/sim_http.h"

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
  Inflight& fl = inflight_[id];
  fl.url = request.canonical_url();
  fl.if_none_match =
      request.headers.get_view("If-None-Match").value_or(std::string_view{});
  fl.request_ms = sim_.now();
  fl.callbacks = std::move(callbacks);
  fl.pending_event =
      sim_.schedule_after(params_.request_delay_ms, [this, id] { respond(id); });
  return id;
}

void SimHttpOrigin::respond(FetchId id) {
  auto it = inflight_.find(id);
  if (it == inflight_.end()) return;  // cancelled
  Inflight& fl = it->second;
  fl.pending_event = Simulator::kInvalidEvent;

  const StoredObject* obj = store_->find(fl.url.path());
  const bool not_modified =
      obj != nullptr && !obj->etag.empty() && fl.if_none_match == obj->etag;
  SimResponseMeta meta;
  meta.status = obj ? (not_modified ? 304 : 200) : 404;
  meta.body_size =
      not_modified ? 0 : (obj ? obj->wire_size() : params_.error_body_size);
  meta.content_type = obj ? obj->content_type : "text/plain";
  meta.etag = obj ? obj->etag : "";
  fl.status = meta.status;
  fl.total = meta.body_size;
  if (fl.callbacks.on_headers) {
    // Moved out for the call: the callback may cancel this fetch, which
    // destroys the record (and a callable still stored in it).
    auto on_headers = std::move(fl.callbacks.on_headers);
    on_headers(meta);
    it = inflight_.find(id);
    if (it == inflight_.end()) return;
  }

  if (not_modified) {
    // 304 carries headers only: complete without touching the link.
    finish(it);
    return;
  }
  it->second.transfer = link_->submit(
      meta.body_size,
      [this, id](Bytes chunk, bool complete) { on_chunk(id, chunk, complete); });
}

void SimHttpOrigin::on_chunk(FetchId id, Bytes chunk, bool complete) {
  auto it = inflight_.find(id);
  if (it == inflight_.end()) return;
  Inflight& fl = it->second;
  fl.received += chunk;
  if (fl.callbacks.on_progress) {
    // Same re-entrancy rule as on_headers: put back only if the fetch
    // survived its own callback.
    auto on_progress = std::move(fl.callbacks.on_progress);
    on_progress(chunk, fl.received, fl.total);
    it = inflight_.find(id);
    if (it == inflight_.end()) return;
    it->second.callbacks.on_progress = std::move(on_progress);
  }
  if (complete) finish(it);
}

void SimHttpOrigin::finish(InflightMap::iterator it) {
  FetchResult result;
  result.url = std::move(it->second.url.text);
  result.status = it->second.status;
  result.body_size = it->second.received;
  result.request_ms = it->second.request_ms;
  result.complete_ms = sim_.now();
  auto on_complete = std::move(it->second.callbacks.on_complete);
  inflight_.erase(it);
  on_complete(result);
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
