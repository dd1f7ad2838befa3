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
//
// The graph is built once from its edge list and stored flat: a
// prerequisite count per node and, per node, the nodes waiting on it in
// ascending id. A loader counts each node's prerequisites down as they
// complete (ReadyQueue) instead of rescanning the graph (DESIGN.md §24.2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "web/page.h"

namespace mfhttp {

class DependencyGraph {
 public:
  using NodeId = std::size_t;
  // `after` may not start before `before` has completed.
  struct Edge {
    NodeId before;
    NodeId after;
  };

  DependencyGraph() = default;
  // Nodes are 0 .. node_count-1. An edge listed twice counts twice.
  DependencyGraph(std::size_t node_count, const std::vector<Edge>& edges);

  std::size_t node_count() const { return prerequisites_.size(); }
  // Number of edges into `node`.
  std::size_t prerequisite_count(NodeId node) const;
  // The nodes `node` is a prerequisite of, in ascending id.
  std::span<const NodeId> dependents(NodeId node) const;

  // Kahn's algorithm; nullopt when the graph has a cycle.
  std::optional<std::vector<NodeId>> topological_order() const;
  bool has_cycle() const { return !topological_order().has_value(); }

 private:
  std::vector<std::uint32_t> prerequisites_;  // by node
  std::vector<std::size_t> first_dependent_;  // node_count + 1 offsets
  std::vector<NodeId> dependents_;            // by `before`, ascending id
};

// Readiness as a countdown over a graph (which must outlive the queue):
// every node starts with its prerequisite count; complete() decrements its
// dependents' counts, and a node whose count reaches zero becomes ready.
// pop() hands out the lowest-id ready node. A loader that runs
//   while (queue.pop(&node)) start(node);
// after load and after every completion starts nodes in exactly the order
// a rescan of the whole graph for ready, unstarted nodes would — also when
// a completion arrives inside start() itself (DESIGN.md §24.2).
class ReadyQueue {
 public:
  using NodeId = DependencyGraph::NodeId;

  explicit ReadyQueue(const DependencyGraph& graph);

  // `node` completed; call once per node.
  void complete(NodeId node);
  // Removes the lowest-id ready node into `node`; false when none is ready.
  bool pop(NodeId* node);

 private:
  const DependencyGraph& graph_;
  std::vector<std::uint32_t> unmet_;  // prerequisites not yet complete, by node
  std::vector<NodeId> ready_;         // ready, not yet popped; a min-heap by id
};

// The default browser dependency graph for a page: structural resource i is
// node i (page.structure order) and image j is node page.structure.size() + j
// (page.images order).
DependencyGraph page_dependency_graph(const WebPage& page);

}  // namespace mfhttp
