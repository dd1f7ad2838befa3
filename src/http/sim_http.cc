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

void SimHttpOrigin::Inflight::reset() {
  // Field by field, keeping the strings' capacity for the next fetch.
  pending_event = Simulator::kInvalidEvent;
  transfer = Link::kInvalidTransfer;
  url.text.clear();
  url.path_begin = url.path_size = 0;
  if_none_match.clear();
  request_ms = 0;
  received = total = 0;
  status = 0;
  done = false;
  callbacks = {};
}

HttpFetcher::FetchId SimHttpOrigin::fetch(const HttpRequest& request,
                                          FetchCallbacks callbacks) {
  MFHTTP_CHECK(callbacks.on_complete != nullptr);
  const FetchId id = inflight_.insert();
  Inflight& fl = *inflight_.find(id);
  request.canonical_url(fl.url);
  fl.if_none_match.assign(
      request.headers.get_view(HeaderId::kIfNoneMatch).value_or(std::string_view{}));
  fl.request_ms = sim_.now();
  fl.callbacks = std::move(callbacks);
  fl.pending_event =
      sim_.schedule_after(params_.request_delay_ms, [this, id] { respond(id); });
  return id;
}

void SimHttpOrigin::respond(FetchId id) {
  Inflight* found = inflight_.find(id);
  if (found == nullptr) return;  // cancelled
  Inflight& fl = *found;
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
    if (!inflight_.contains(id)) return;
  }

  if (not_modified) {
    // 304 carries headers only: complete without touching the link.
    finish(id, fl);
    return;
  }
  fl.transfer = link_->submit(
      meta.body_size,
      [this, id](Bytes chunk, bool complete) { on_chunk(id, chunk, complete); });
}

void SimHttpOrigin::on_chunk(FetchId id, Bytes chunk, bool complete) {
  Inflight* fl = inflight_.find(id);
  if (fl == nullptr) return;
  fl->received += chunk;
  if (fl->callbacks.on_progress) {
    // Same re-entrancy rule as on_headers: put back only if the fetch
    // survived its own callback.
    auto on_progress = std::move(fl->callbacks.on_progress);
    on_progress(chunk, fl->received, fl->total);
    fl = inflight_.find(id);
    if (fl == nullptr) return;
    fl->callbacks.on_progress = std::move(on_progress);
  }
  if (complete) finish(id, *fl);
}

void SimHttpOrigin::finish(FetchId id, Inflight& fl) {
  FetchResult result;
  result.url = fl.url.text;
  result.status = fl.status;
  result.body_size = fl.received;
  result.request_ms = fl.request_ms;
  result.complete_ms = sim_.now();
  auto on_complete = std::move(fl.callbacks.on_complete);
  // The record stays until the callback returns, so result.url stays valid;
  // marked done, it is no longer cancellable.
  fl.done = true;
  on_complete(result);
  inflight_.erase(id);
}

bool SimHttpOrigin::cancel(FetchId id) {
  Inflight* fl = inflight_.find(id);
  if (fl == nullptr || fl->done) return false;
  if (fl->pending_event != Simulator::kInvalidEvent) sim_.cancel(fl->pending_event);
  if (fl->transfer != Link::kInvalidTransfer) link_->cancel(fl->transfer);
  inflight_.erase(id);
  return true;
}

}  // namespace mfhttp
