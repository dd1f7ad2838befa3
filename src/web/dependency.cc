#include "web/dependency.h"

#include <algorithm>
#include <deque>

#include "util/check.h"

namespace mfhttp {

DependencyGraph::NodeId DependencyGraph::add_node() {
  deps_.emplace_back();
  return deps_.size() - 1;
}

void DependencyGraph::add_edge(NodeId before, NodeId after) {
  MFHTTP_CHECK(before < node_count() && after < node_count());
  MFHTTP_CHECK_MSG(before != after, "self-dependency");
  deps_[after].push_back(before);
}

const std::vector<DependencyGraph::NodeId>& DependencyGraph::dependencies(
    NodeId node) const {
  MFHTTP_CHECK(node < node_count());
  return deps_[node];
}

bool DependencyGraph::is_ready(NodeId node, const std::vector<bool>& done) const {
  MFHTTP_CHECK(node < node_count());
  MFHTTP_CHECK(done.size() == node_count());
  return std::all_of(deps_[node].begin(), deps_[node].end(),
                     [&done](NodeId dep) { return done[dep]; });
}

std::vector<DependencyGraph::NodeId> DependencyGraph::ready_nodes(
    const std::vector<bool>& done) const {
  std::vector<NodeId> out;
  for (NodeId n = 0; n < node_count(); ++n)
    if (!done[n] && is_ready(n, done)) out.push_back(n);
  return out;
}

std::optional<std::vector<DependencyGraph::NodeId>>
DependencyGraph::topological_order() const {
  std::vector<std::size_t> pending(node_count());
  std::vector<std::vector<NodeId>> dependents(node_count());
  for (NodeId n = 0; n < node_count(); ++n) {
    pending[n] = deps_[n].size();
    for (NodeId dep : deps_[n]) dependents[dep].push_back(n);
  }
  std::deque<NodeId> queue;
  for (NodeId n = 0; n < node_count(); ++n)
    if (pending[n] == 0) queue.push_back(n);
  std::vector<NodeId> order;
  while (!queue.empty()) {
    NodeId n = queue.front();
    queue.pop_front();
    order.push_back(n);
    for (NodeId dep : dependents[n])
      if (--pending[dep] == 0) queue.push_back(dep);
  }
  if (order.size() != node_count()) return std::nullopt;  // cycle
  return order;
}

DependencyGraph page_dependency_graph(
    const WebPage& page, std::vector<DependencyGraph::NodeId>* structure_nodes,
    std::vector<DependencyGraph::NodeId>* image_nodes) {
  MFHTTP_CHECK(structure_nodes != nullptr && image_nodes != nullptr);
  MFHTTP_CHECK(!page.structure.empty() &&
               page.structure[0].kind == ResourceKind::kHtml);
  DependencyGraph graph;
  structure_nodes->clear();
  image_nodes->clear();

  for (std::size_t i = 0; i < page.structure.size(); ++i)
    structure_nodes->push_back(graph.add_node());
  for (std::size_t i = 0; i < page.images.size(); ++i)
    image_nodes->push_back(graph.add_node());

  const DependencyGraph::NodeId html = (*structure_nodes)[0];
  std::vector<DependencyGraph::NodeId> stylesheets;
  DependencyGraph::NodeId prev_script = html;
  bool have_script = false;

  for (std::size_t i = 1; i < page.structure.size(); ++i) {
    DependencyGraph::NodeId node = (*structure_nodes)[i];
    graph.add_edge(html, node);  // everything needs the document
    switch (page.structure[i].kind) {
      case ResourceKind::kStylesheet:
        stylesheets.push_back(node);
        break;
      case ResourceKind::kScript:
        // Scripts execute in document order and wait for earlier CSS.
        for (DependencyGraph::NodeId css : stylesheets) graph.add_edge(css, node);
        if (have_script) graph.add_edge(prev_script, node);
        prev_script = node;
        have_script = true;
        break;
      case ResourceKind::kHtml:
        break;  // only the first node is the document
    }
  }
  for (DependencyGraph::NodeId img : *image_nodes) graph.add_edge(html, img);
  return graph;
}

}  // namespace mfhttp
