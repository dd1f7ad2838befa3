// Simulated mobile browser loading a WebPage through an HttpFetcher.
//
// Load model (matching how WebView issues requests): resources are fetched
// as their dependency-graph prerequisites complete (web/dependency.h) — the
// HTML document first, stylesheets next, scripts serialized in document
// order behind the CSS, and images as soon as the document is parsed.
// MF-HTTP never reorders the structural chain (§5.1.1); whether a given
// image actually transfers is up to the middleware proxy in the path.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "http/sim_http.h"
#include "sim/simulator.h"
#include "web/dependency.h"
#include "web/page.h"

namespace mfhttp {

struct ResourceLoadState {
  std::string url;
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

  Browser(Simulator& sim, HttpFetcher* fetcher, const WebPage& page);

  // Issue the HTML fetch; the rest of the page follows automatically.
  void load();

  const WebPage& page() const { return page_; }
  const std::vector<ResourceLoadState>& structure_states() const {
    return structure_;
  }
  const std::vector<ResourceLoadState>& image_states() const { return images_; }

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
  void fetch_resource(ResourceLoadState* state, bool is_image, std::size_t index);
  void on_node_complete(DependencyGraph::NodeId node);
  void fetch_ready_nodes();

  Simulator& sim_;
  HttpFetcher* fetcher_;
  WebPage page_;
  std::vector<ResourceLoadState> structure_;
  std::vector<ResourceLoadState> images_;
  ImageCompleteFn on_image_complete_;
  bool started_ = false;

  DependencyGraph graph_;
  std::vector<DependencyGraph::NodeId> structure_nodes_;
  std::vector<DependencyGraph::NodeId> image_nodes_;
  std::vector<bool> node_done_;
  std::vector<bool> node_requested_;
};

}  // namespace mfhttp
