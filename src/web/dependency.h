// Resource dependency graph — the structure Wprof [26] profiles and Polaris
// [8] schedules against. §5.1.1: MF-HTTP deliberately leaves the download
// sequence of styling rules and scripts unchanged "to ensure that MF-HTTP
// does not violate the dependencies of the web page"; only images (which
// rarely depend on each other) are rescheduled. The browser model therefore
// needs real dependency semantics to claim that fidelity.
//
// Default page graph:
//   html  -> every stylesheet and the first script, and every image
//   css_k -> every script (stylesheets block script execution)
//   js_k  -> js_{k+1} (scripts execute in document order)
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "web/page.h"

namespace mfhttp {

class DependencyGraph {
 public:
  using NodeId = std::size_t;

  NodeId add_node();
  // `after` may not start before `before` has completed.
  void add_edge(NodeId before, NodeId after);

  std::size_t node_count() const { return deps_.size(); }
  const std::vector<NodeId>& dependencies(NodeId node) const;

  // Ready = every dependency's `done` flag set.
  bool is_ready(NodeId node, const std::vector<bool>& done) const;

  // All nodes whose dependencies are satisfied but are not yet done.
  std::vector<NodeId> ready_nodes(const std::vector<bool>& done) const;

  // Kahn's algorithm; nullopt when the graph has a cycle.
  std::optional<std::vector<NodeId>> topological_order() const;
  bool has_cycle() const { return !topological_order().has_value(); }

 private:
  std::vector<std::vector<NodeId>> deps_;  // deps_[n] = prerequisites of n
};

// The default browser dependency graph for a page. Node ids are returned in
// two parallel vectors: one per structural resource (same order as
// page.structure) and one per image (same order as page.images).
DependencyGraph page_dependency_graph(const WebPage& page,
                                      std::vector<DependencyGraph::NodeId>* structure_nodes,
                                      std::vector<DependencyGraph::NodeId>* image_nodes);

}  // namespace mfhttp
