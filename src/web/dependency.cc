#include "web/dependency.h"

#include <algorithm>
#include <deque>
#include <functional>

#include "util/check.h"

namespace mfhttp {

DependencyGraph::DependencyGraph(std::size_t node_count,
                                 const std::vector<Edge>& edges)
    : prerequisites_(node_count, 0), first_dependent_(node_count + 1, 0) {
  for (const Edge& e : edges) {
    MFHTTP_CHECK(e.before < node_count && e.after < node_count);
    MFHTTP_CHECK_MSG(e.before != e.after, "self-dependency");
    ++prerequisites_[e.after];
    ++first_dependent_[e.before + 1];
  }
  for (std::size_t n = 0; n < node_count; ++n)
    first_dependent_[n + 1] += first_dependent_[n];
  // Bucket by `before`, advancing each bucket's offset to its end, shift
  // the offsets back, then order each bucket by id.
  dependents_.resize(edges.size());
  for (const Edge& e : edges) dependents_[first_dependent_[e.before]++] = e.after;
  for (std::size_t n = node_count; n > 0; --n) first_dependent_[n] = first_dependent_[n - 1];
  first_dependent_[0] = 0;
  for (std::size_t n = 0; n < node_count; ++n)
    std::sort(dependents_.begin() + static_cast<std::ptrdiff_t>(first_dependent_[n]),
              dependents_.begin() + static_cast<std::ptrdiff_t>(first_dependent_[n + 1]));
}

std::size_t DependencyGraph::prerequisite_count(NodeId node) const {
  MFHTTP_CHECK(node < node_count());
  return prerequisites_[node];
}

std::span<const DependencyGraph::NodeId> DependencyGraph::dependents(
    NodeId node) const {
  MFHTTP_CHECK(node < node_count());
  return {dependents_.data() + first_dependent_[node],
          first_dependent_[node + 1] - first_dependent_[node]};
}

std::optional<std::vector<DependencyGraph::NodeId>>
DependencyGraph::topological_order() const {
  std::vector<std::uint32_t> pending = prerequisites_;
  std::deque<NodeId> queue;
  for (NodeId n = 0; n < node_count(); ++n)
    if (pending[n] == 0) queue.push_back(n);
  std::vector<NodeId> order;
  while (!queue.empty()) {
    NodeId n = queue.front();
    queue.pop_front();
    order.push_back(n);
    for (NodeId dep : dependents(n))
      if (--pending[dep] == 0) queue.push_back(dep);
  }
  if (order.size() != node_count()) return std::nullopt;  // cycle
  return order;
}

ReadyQueue::ReadyQueue(const DependencyGraph& graph)
    : graph_(graph), unmet_(graph.node_count()) {
  ready_.reserve(graph.node_count());
  for (NodeId node = 0; node < graph.node_count(); ++node) {
    unmet_[node] = static_cast<std::uint32_t>(graph.prerequisite_count(node));
    if (unmet_[node] == 0) ready_.push_back(node);  // ascending: a heap already
  }
}

void ReadyQueue::complete(NodeId node) {
  for (NodeId dependent : graph_.dependents(node)) {
    if (--unmet_[dependent] > 0) continue;
    ready_.push_back(dependent);
    std::push_heap(ready_.begin(), ready_.end(), std::greater<>());
  }
}

bool ReadyQueue::pop(NodeId* node) {
  if (ready_.empty()) return false;
  std::pop_heap(ready_.begin(), ready_.end(), std::greater<>());
  *node = ready_.back();
  ready_.pop_back();
  return true;
}

DependencyGraph page_dependency_graph(const WebPage& page) {
  MFHTTP_CHECK(!page.structure.empty() &&
               page.structure[0].kind == ResourceKind::kHtml);
  const std::size_t structure = page.structure.size();
  std::size_t stylesheets = 0, scripts = 0;
  for (const PageResource& r : page.structure) {
    stylesheets += r.kind == ResourceKind::kStylesheet;
    scripts += r.kind == ResourceKind::kScript;
  }
  std::vector<DependencyGraph::Edge> edges;
  edges.reserve(structure - 1 + scripts * (stylesheets + 1) + page.images.size());

  constexpr DependencyGraph::NodeId html = 0;
  DependencyGraph::NodeId prev_script = html;  // html: no script yet
  for (DependencyGraph::NodeId node = 1; node < structure; ++node) {
    edges.push_back({html, node});  // everything needs the document
    if (page.structure[node].kind != ResourceKind::kScript) continue;
    // Scripts execute in document order and wait for earlier CSS.
    for (DependencyGraph::NodeId css = 1; css < node; ++css)
      if (page.structure[css].kind == ResourceKind::kStylesheet)
        edges.push_back({css, node});
    if (prev_script != html) edges.push_back({prev_script, node});
    prev_script = node;
  }
  for (std::size_t i = 0; i < page.images.size(); ++i)
    edges.push_back({html, structure + i});
  return DependencyGraph(structure + page.images.size(), edges);
}

}  // namespace mfhttp
