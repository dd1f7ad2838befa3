// Simulated mobile browser loading a WebPage through an HttpFetcher.
//
// Load model (matching how WebView issues requests): resources are fetched
// as their dependency-graph prerequisites complete (web/dependency.h) — the
// HTML document first, stylesheets next, scripts serialized in document
// order behind the CSS, and images as soon as the document is parsed.
// MF-HTTP never reorders the structural chain (§5.1.1); whether a given
// image actually transfers is up to the middleware proxy in the path.
//
// The browser borrows its page: the WebPage passed in must outlive it.
// Each resource URL is split once, at construction, into views of the
// page's text; its fetch builds the request from that split.
// Readiness is a countdown (ReadyQueue): each completion decrements its
// dependents' unmet prerequisites, and nodes start in ascending id, the
// order a full rescan of the graph would start them (DESIGN.md §24.2).
#pragma once

#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "http/sim_http.h"
#include "sim/simulator.h"
#include "web/dependency.h"
#include "web/page.h"

namespace mfhttp {

struct ResourceLoadState {
  std::string_view url;    // into the page
  Bytes size = 0;          // expected wire size
  Bytes received = 0;      // bytes delivered so far
  TimeMs request_ms = -1;  // when the fetch was issued (-1: not yet)
  TimeMs complete_ms = -1; // when the last byte arrived (-1: not finished)
  int status = 0;
  bool blocked = false;    // middleware refused it

  bool requested() const { return request_ms >= 0; }
  bool complete() const { return complete_ms >= 0 && !blocked; }
};

class Browser {
 public:
  using ImageCompleteFn = std::function<void(std::size_t image_index)>;

  // `page` is borrowed and must outlive the browser; a temporary cannot bind.
  Browser(Simulator& sim, HttpFetcher* fetcher, const WebPage& page);
  Browser(Simulator& sim, HttpFetcher* fetcher, WebPage&& page) = delete;
  Browser(const Browser&) = delete;  // ready_ refers to graph_
  Browser& operator=(const Browser&) = delete;

  // Issue the HTML fetch; the rest of the page follows automatically.
  void load();

  const WebPage& page() const { return page_; }
  std::span<const ResourceLoadState> structure_states() const {
    return std::span(states_).first(page_.structure.size());
  }
  std::span<const ResourceLoadState> image_states() const {
    return std::span(states_).subspan(page_.structure.size());
  }

  // The URL the browser requests for dependency-graph node `node`
  // (structural resources first, then images): the one split of the
  // page's URL that every fetch of it, and the origin's path, derive from.
  const UrlRef& resource_url(DependencyGraph::NodeId node) const {
    return urls_[node];
  }

  // All structural resources finished.
  bool structure_complete() const;

  // Earliest simulated time by which all structural resources and every
  // image overlapping `viewport` had completed; -1 if any is still missing.
  TimeMs viewport_load_time(const Rect& viewport) const;

  // Fraction (by bytes) of `viewport`-overlapping images delivered so far;
  // 1.0 when the viewport contains no images.
  double viewport_fill_fraction(const Rect& viewport) const;

  std::size_t images_completed() const;
  std::size_t images_blocked() const;

  void set_on_image_complete(ImageCompleteFn fn) { on_image_complete_ = std::move(fn); }

  const DependencyGraph& dependency_graph() const { return graph_; }

 private:
  using NodeId = DependencyGraph::NodeId;

  void fetch_resource(NodeId node);
  void on_node_complete(NodeId node);
  // Fetch every ready node, lowest id first.
  void fetch_ready();

  Simulator& sim_;
  HttpFetcher* fetcher_;
  const WebPage& page_;
  std::vector<ResourceLoadState> states_;  // by node: structure, then images
  std::vector<UrlRef> urls_;               // by node, into the page
  // fetch_resource's request, rebuilt in place for every fetch. A fetcher
  // that completes inside fetch() re-enters fetch_resource while the outer
  // fetch still holds it, so a nested fetch builds its own.
  HttpRequest request_;
  bool in_fetch_ = false;
  ImageCompleteFn on_image_complete_;
  bool started_ = false;

  DependencyGraph graph_;
  // A fetcher that completes inside fetch() adds to it while fetch_ready()
  // drains it.
  ReadyQueue ready_;
};

}  // namespace mfhttp
