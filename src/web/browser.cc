#include "web/browser.h"

#include <algorithm>

#include "util/check.h"
#include "util/logging.h"

namespace mfhttp {

Browser::Browser(Simulator& sim, HttpFetcher* fetcher, const WebPage& page)
    : sim_(sim), fetcher_(fetcher), page_(page) {
  MFHTTP_CHECK(fetcher_ != nullptr);
  MFHTTP_CHECK_MSG(!page_.structure.empty(), "page needs at least an HTML resource");
  for (const PageResource& r : page_.structure)
    structure_.push_back({r.url, r.size, 0, -1, -1, 0, false});
  for (const MediaObject& img : page_.images)
    images_.push_back({img.top_version().url, img.top_version().size, 0, -1, -1, 0,
                       false});
  graph_ = page_dependency_graph(page_, &structure_nodes_, &image_nodes_);
  node_done_.assign(graph_.node_count(), false);
  node_requested_.assign(graph_.node_count(), false);
}

void Browser::fetch_resource(ResourceLoadState* state, bool is_image,
                             std::size_t index) {
  state->request_ms = sim_.now();
  const DependencyGraph::NodeId node =
      is_image ? image_nodes_[index] : structure_nodes_[index];
  FetchCallbacks cbs;
  cbs.on_progress = [state](Bytes chunk, Bytes, Bytes) { state->received += chunk; };
  cbs.on_complete = [this, state, is_image, index, node](const FetchResult& result) {
    state->complete_ms = sim_.now();
    state->status = result.status;
    state->blocked = result.blocked;
    if (is_image && !result.blocked && on_image_complete_) on_image_complete_(index);
    on_node_complete(node);
  };
  fetcher_->fetch(HttpRequest::get(state->url), std::move(cbs));
}

void Browser::load() {
  MFHTTP_CHECK_MSG(!started_, "Browser::load may only be called once");
  started_ = true;
  fetch_ready_nodes();  // just the HTML document
}

void Browser::on_node_complete(DependencyGraph::NodeId node) {
  node_done_[node] = true;
  fetch_ready_nodes();
}

void Browser::fetch_ready_nodes() {
  // Issue every resource whose prerequisites are satisfied. Document order
  // is preserved within each readiness wave (ready_nodes returns ascending
  // node ids, which follow construction order).
  for (DependencyGraph::NodeId node : graph_.ready_nodes(node_done_)) {
    if (node_requested_[node]) continue;
    node_requested_[node] = true;
    if (node < structure_nodes_.size()) {
      fetch_resource(&structure_[node], false, node);
    } else {
      std::size_t index = node - structure_nodes_.size();
      fetch_resource(&images_[index], true, index);
    }
  }
}

bool Browser::structure_complete() const {
  return std::all_of(structure_.begin(), structure_.end(),
                     [](const ResourceLoadState& s) { return s.complete(); });
}

TimeMs Browser::viewport_load_time(const Rect& viewport) const {
  TimeMs latest = 0;
  for (const ResourceLoadState& s : structure_) {
    if (!s.complete()) return -1;
    latest = std::max(latest, s.complete_ms);
  }
  for (std::size_t i : page_.images_in(viewport)) {
    const ResourceLoadState& s = images_[i];
    if (!s.complete()) return -1;
    latest = std::max(latest, s.complete_ms);
  }
  return latest;
}

double Browser::viewport_fill_fraction(const Rect& viewport) const {
  Bytes want = 0, have = 0;
  for (std::size_t i : page_.images_in(viewport)) {
    const ResourceLoadState& s = images_[i];
    want += s.size;
    have += std::min(s.received, s.size);
  }
  if (want == 0) return 1.0;
  return static_cast<double>(have) / static_cast<double>(want);
}

std::size_t Browser::images_completed() const {
  return static_cast<std::size_t>(
      std::count_if(images_.begin(), images_.end(),
                    [](const ResourceLoadState& s) { return s.complete(); }));
}

std::size_t Browser::images_blocked() const {
  return static_cast<std::size_t>(
      std::count_if(images_.begin(), images_.end(),
                    [](const ResourceLoadState& s) { return s.blocked; }));
}

}  // namespace mfhttp
