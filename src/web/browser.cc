#include "web/browser.h"

#include <algorithm>

#include "util/check.h"

namespace mfhttp {

Browser::Browser(Simulator& sim, HttpFetcher* fetcher, const WebPage& page)
    : sim_(sim),
      fetcher_(fetcher),
      page_(page),
      graph_(page_dependency_graph(page)),
      ready_(graph_) {
  MFHTTP_CHECK(fetcher_ != nullptr);
  const std::size_t nodes = graph_.node_count();
  states_.reserve(nodes);
  urls_.reserve(nodes);
  auto add = [this](std::string_view url, Bytes size) {
    std::optional<UrlRef> ref = split_url(url);
    MFHTTP_CHECK_MSG(ref.has_value(), "page URLs must be absolute");
    urls_.push_back(*ref);
    states_.push_back({url, size, 0, -1, -1, 0, false});
  };
  for (const PageResource& r : page_.structure) add(r.url, r.size);
  for (const MediaObject& img : page_.images)
    add(img.top_version().url, img.top_version().size);
}

void Browser::fetch_resource(NodeId node) {
  ResourceLoadState& state = states_[node];
  state.request_ms = sim_.now();
  FetchCallbacks cbs;
  cbs.on_progress = [&state](Bytes chunk, Bytes, Bytes) { state.received += chunk; };
  cbs.on_complete = [this, node](const FetchResult& result) {
    ResourceLoadState& s = states_[node];
    const bool first = s.complete_ms < 0;
    s.complete_ms = sim_.now();
    s.status = result.status;
    s.blocked = result.blocked;
    const std::size_t structure = page_.structure.size();
    if (node >= structure && !result.blocked && on_image_complete_)
      on_image_complete_(node - structure);
    if (first) on_node_complete(node);
  };
  if (in_fetch_) {
    HttpRequest request;
    request.assign_get(urls_[node]);
    fetcher_->fetch(request, std::move(cbs));
    return;
  }
  in_fetch_ = true;
  request_.assign_get(urls_[node]);
  fetcher_->fetch(request_, std::move(cbs));
  in_fetch_ = false;
}

void Browser::load() {
  MFHTTP_CHECK_MSG(!started_, "Browser::load may only be called once");
  started_ = true;
  fetch_ready();  // just the HTML document
}

void Browser::on_node_complete(NodeId node) {
  ready_.complete(node);
  fetch_ready();
}

void Browser::fetch_ready() {
  // Lowest id first, which is document order within each readiness wave.
  // A completion inside fetch() drains the queue from the nested call.
  NodeId node;
  while (ready_.pop(&node)) fetch_resource(node);
}

bool Browser::structure_complete() const {
  const auto structure = structure_states();
  return std::all_of(structure.begin(), structure.end(),
                     [](const ResourceLoadState& s) { return s.complete(); });
}

TimeMs Browser::viewport_load_time(const Rect& viewport) const {
  TimeMs latest = 0;
  for (const ResourceLoadState& s : structure_states()) {
    if (!s.complete()) return -1;
    latest = std::max(latest, s.complete_ms);
  }
  const auto images = image_states();
  for (std::size_t i = 0; i < images.size(); ++i) {
    if (!viewport.overlaps(page_.images[i].rect)) continue;
    if (!images[i].complete()) return -1;
    latest = std::max(latest, images[i].complete_ms);
  }
  return latest;
}

double Browser::viewport_fill_fraction(const Rect& viewport) const {
  Bytes want = 0, have = 0;
  const auto images = image_states();
  for (std::size_t i = 0; i < images.size(); ++i) {
    if (!viewport.overlaps(page_.images[i].rect)) continue;
    want += images[i].size;
    have += std::min(images[i].received, images[i].size);
  }
  if (want == 0) return 1.0;
  return static_cast<double>(have) / static_cast<double>(want);
}

std::size_t Browser::images_completed() const {
  const auto images = image_states();
  return static_cast<std::size_t>(
      std::count_if(images.begin(), images.end(),
                    [](const ResourceLoadState& s) { return s.complete(); }));
}

std::size_t Browser::images_blocked() const {
  const auto images = image_states();
  return static_cast<std::size_t>(
      std::count_if(images.begin(), images.end(),
                    [](const ResourceLoadState& s) { return s.blocked; }));
}

}  // namespace mfhttp
