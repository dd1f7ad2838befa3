// Event-level HTTP fetch service over the simulated network.
//
// HttpFetcher is the interface both the origin server and the MITM proxy
// implement, so a client (browser / video player) is wired identically with
// or without the middleware in the path — exactly how the paper's prototype
// redirects traffic through mitmdump (§4.3).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "http/message.h"
#include "http/object_store.h"
#include "net/link.h"
#include "sim/simulator.h"
#include "util/slab.h"
#include "util/types.h"

namespace mfhttp {

// Response metadata, available when "headers" arrive.
struct SimResponseMeta {
  int status = 200;
  Bytes body_size = 0;
  std::string content_type;
  std::string etag;  // validator for conditional refetches (empty: none)
};

// Outcome of a completed fetch.
struct FetchResult {
  // Canonical URL of the request. A view into the fetcher's storage, valid
  // at least until on_complete returns (a MitmProxy's stays valid as long as
  // its UrlTable); copy it to keep it longer.
  std::string_view url;
  int status = 0;
  Bytes body_size = 0;      // bytes actually delivered
  TimeMs request_ms = 0;    // when the request was issued
  TimeMs complete_ms = 0;   // when the last byte arrived
  bool blocked = false;     // terminated by middleware policy, not served
  bool rejected = false;    // bounced by admission control (429/503 fast-fail)

  TimeMs latency_ms() const { return complete_ms - request_ms; }
};

struct FetchCallbacks {
  // All optional except on_complete.
  std::function<void(const SimResponseMeta&)> on_headers;
  // chunk: bytes in this delivery; received/total: running count and goal.
  std::function<void(Bytes chunk, Bytes received, Bytes total)> on_progress;
  std::function<void(const FetchResult&)> on_complete;
};

class HttpFetcher {
 public:
  using FetchId = std::uint64_t;
  static constexpr FetchId kInvalidFetch = 0;

  virtual ~HttpFetcher() = default;

  // Issue a GET; callbacks fire as the simulation progresses.
  virtual FetchId fetch(const HttpRequest& request, FetchCallbacks callbacks) = 0;

  // Abort; no further callbacks. False if unknown or already complete.
  virtual bool cancel(FetchId id) = 0;
};

struct SimHttpOriginParams {
  TimeMs request_delay_ms = 10;  // uplink latency + server processing
  Bytes error_body_size = 256;
};

// Origin server + its access link. Unknown paths produce 404 with a small
// error body; known paths stream `wire_size()` bytes over the link. A
// conditional GET (If-None-Match matching the stored ETag) answers 304 with
// no body — only the request-delay latency is paid, no link bytes.
class SimHttpOrigin : public HttpFetcher {
 public:
  using Params = SimHttpOriginParams;

  SimHttpOrigin(Simulator& sim, const ObjectStore* store, Link* link,
                Params params = {});

  FetchId fetch(const HttpRequest& request, FetchCallbacks callbacks) override;
  bool cancel(FetchId id) override;

  std::size_t inflight() const { return inflight_.size(); }

 private:
  // Everything a fetch carries from request to completion. The closures
  // handed to the simulator and the link capture only (this, id) and find
  // their state here, so they fit std::function's small buffer. Records
  // live on a Slab, so their strings keep their capacity across fetches.
  struct Inflight {
    Simulator::EventId pending_event = Simulator::kInvalidEvent;
    Link::TransferId transfer = Link::kInvalidTransfer;
    CanonicalUrl url;
    std::string if_none_match;
    TimeMs request_ms = 0;
    Bytes received = 0;
    Bytes total = 0;
    int status = 0;
    // Completed: on_complete is running and the record goes after it.
    bool done = false;
    FetchCallbacks callbacks;

    void reset();
  };

  // The request delay elapsed: answer from the store.
  void respond(FetchId id);
  // One link delivery of the response body.
  void on_chunk(FetchId id, Bytes chunk, bool complete);
  // Report the fetch to its client, then erase the record (which the
  // result's url views until on_complete returns).
  void finish(FetchId id, Inflight& fl);

  Simulator& sim_;
  const ObjectStore* store_;
  Link* link_;
  Params params_;
  Slab<Inflight> inflight_;
};

}  // namespace mfhttp
