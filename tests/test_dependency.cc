// Tests for the resource dependency graph and its effect on browser loading
// order (§5.1.1: structural dependencies are never violated), and for the
// readiness countdown against the rescan it replaced (DESIGN.md §24.2).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>

#include "http/proxy.h"
#include "http/sim_http.h"
#include "web/browser.h"
#include "web/corpus.h"
#include "web/dependency.h"

namespace mfhttp {
namespace {

const DeviceProfile kDevice = DeviceProfile::nexus6();
using NodeId = DependencyGraph::NodeId;
using Edge = DependencyGraph::Edge;

bool contains(std::span<const NodeId> nodes, NodeId node) {
  return std::find(nodes.begin(), nodes.end(), node) != nodes.end();
}

// ---------- the rescan oracle ----------

// The loader the browser ran before readiness became a countdown: after
// load and after every completion it rescans every node and starts, in
// ascending id, each one whose prerequisites are all done and that it has
// not started yet. Kept as the oracle ReadyQueue must match start for start.
class ScanLoader {
 public:
  ScanLoader(const DependencyGraph& graph, std::function<void(NodeId)> start)
      : prerequisites_(graph.node_count()),
        done_(graph.node_count(), false),
        requested_(graph.node_count(), false),
        start_(std::move(start)) {
    for (NodeId n = 0; n < graph.node_count(); ++n)
      for (NodeId d : graph.dependents(n)) prerequisites_[d].push_back(n);
  }

  void load() { start_ready(); }
  void complete(NodeId node) {
    done_[node] = true;
    start_ready();
  }

  // Ready = every prerequisite done.
  bool is_ready(NodeId node) const {
    return std::all_of(prerequisites_[node].begin(), prerequisites_[node].end(),
                       [this](NodeId p) { return done_[p]; });
  }
  // Every node whose prerequisites are done but which is not done itself.
  std::vector<NodeId> ready_nodes() const {
    std::vector<NodeId> out;
    for (NodeId n = 0; n < done_.size(); ++n)
      if (!done_[n] && is_ready(n)) out.push_back(n);
    return out;
  }

 private:
  void start_ready() {
    for (NodeId node : ready_nodes()) {
      if (requested_[node]) continue;
      requested_[node] = true;
      start_(node);
    }
  }

  std::vector<std::vector<NodeId>> prerequisites_;
  std::vector<bool> done_;
  std::vector<bool> requested_;
  std::function<void(NodeId)> start_;
};

// The countdown loader, driven the way Browser drives its ReadyQueue.
class QueueLoader {
 public:
  QueueLoader(const DependencyGraph& graph, std::function<void(NodeId)> start)
      : queue_(graph), start_(std::move(start)) {}

  void load() { start_ready(); }
  void complete(NodeId node) {
    queue_.complete(node);
    start_ready();
  }

 private:
  void start_ready() {
    NodeId node;
    while (queue_.pop(&node)) start_(node);
  }

  ReadyQueue queue_;
  std::function<void(NodeId)> start_;
};

// Loads `graph` and returns the start order. Started nodes complete in a
// seeded random order; each completes inside its own start() with
// probability `sync_share`.
template <class Loader>
std::vector<NodeId> start_order(const DependencyGraph& graph, std::uint64_t seed,
                                double sync_share) {
  Rng rng(seed);
  std::vector<NodeId> order;
  std::vector<NodeId> in_flight;
  std::unique_ptr<Loader> loader;
  loader = std::make_unique<Loader>(graph, [&](NodeId node) {
    order.push_back(node);
    if (rng.chance(sync_share))
      loader->complete(node);
    else
      in_flight.push_back(node);
  });
  loader->load();
  while (!in_flight.empty()) {
    const auto k = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(in_flight.size()) - 1));
    const NodeId node = in_flight[k];
    in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(k));
    loader->complete(node);
  }
  return order;
}

// A seeded random DAG: a random ranking of the nodes orders every edge,
// so edges run from higher to lower ids as often as the other way, and
// some edges are listed twice.
DependencyGraph random_dag(Rng& rng) {
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 40));
  std::vector<NodeId> rank(n);
  for (NodeId i = 0; i < n; ++i) rank[i] = i;
  std::shuffle(rank.begin(), rank.end(), rng.engine());
  const double density = rng.uniform(0.0, 0.3);
  std::vector<Edge> edges;
  for (NodeId i = 0; i < n; ++i)
    for (NodeId j = i + 1; j < n; ++j) {
      if (!rng.chance(density)) continue;
      edges.push_back({rank[i], rank[j]});
      if (rng.chance(0.05)) edges.push_back({rank[i], rank[j]});
    }
  return DependencyGraph(n, edges);
}

// ---------- DependencyGraph core ----------

TEST(DependencyGraph, ReadinessFollowsEdges) {
  // a -> b -> c
  DependencyGraph g(3, {{0, 1}, {1, 2}});
  EXPECT_EQ(g.prerequisite_count(0), 0u);
  EXPECT_EQ(g.prerequisite_count(1), 1u);
  EXPECT_EQ(g.prerequisite_count(2), 1u);
  std::vector<NodeId> started;
  ScanLoader oracle(g, [&](NodeId n) { started.push_back(n); });
  EXPECT_TRUE(oracle.is_ready(0));
  EXPECT_FALSE(oracle.is_ready(1));
  oracle.load();
  oracle.complete(0);
  EXPECT_TRUE(oracle.is_ready(1));
  EXPECT_FALSE(oracle.is_ready(2));
  oracle.complete(1);
  EXPECT_TRUE(oracle.is_ready(2));
  EXPECT_EQ(started, (std::vector<NodeId>{0, 1, 2}));

  ReadyQueue queue(g);
  NodeId node = 99;
  ASSERT_TRUE(queue.pop(&node));
  EXPECT_EQ(node, 0u);
  EXPECT_FALSE(queue.pop(&node));
  queue.complete(0);
  ASSERT_TRUE(queue.pop(&node));
  EXPECT_EQ(node, 1u);
  EXPECT_FALSE(queue.pop(&node));
}

TEST(DependencyGraph, ReadyNodesExcludesDone) {
  DependencyGraph g(2, {{0, 1}});
  ScanLoader oracle(g, [](NodeId) {});
  oracle.complete(0);
  auto ready = oracle.ready_nodes();
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0], 1u);
}

TEST(DependencyGraph, DependentsAscendAndCountDuplicates) {
  DependencyGraph g(5, {{2, 4}, {2, 0}, {2, 3}, {1, 3}, {2, 3}});
  const auto deps = g.dependents(2);
  EXPECT_EQ(std::vector<NodeId>(deps.begin(), deps.end()),
            (std::vector<NodeId>{0, 3, 3, 4}));
  EXPECT_EQ(g.prerequisite_count(3), 3u);
  EXPECT_TRUE(g.dependents(4).empty());
}

TEST(DependencyGraph, TopologicalOrderRespectsEdges) {
  // a, b -> c -> d
  DependencyGraph g(4, {{0, 2}, {1, 2}, {2, 3}});
  auto order = g.topological_order();
  ASSERT_TRUE(order.has_value());
  auto pos = [&](NodeId n) {
    return std::find(order->begin(), order->end(), n) - order->begin();
  };
  EXPECT_LT(pos(0), pos(2));
  EXPECT_LT(pos(1), pos(2));
  EXPECT_LT(pos(2), pos(3));
}

TEST(DependencyGraph, CycleDetected) {
  DependencyGraph g(2, {{0, 1}, {1, 0}});
  EXPECT_TRUE(g.has_cycle());
  EXPECT_FALSE(g.topological_order().has_value());
}

TEST(DependencyGraph, EmptyGraphTrivial) {
  DependencyGraph g;
  auto order = g.topological_order();
  ASSERT_TRUE(order.has_value());
  EXPECT_TRUE(order->empty());
}

// ---------- countdown vs. rescan ----------

TEST(ReadyQueue, MatchesRescanOnRandomDags) {
  Rng rng(2024);
  for (int trial = 0; trial < 400; ++trial) {
    const DependencyGraph g = random_dag(rng);
    ASSERT_FALSE(g.has_cycle());  // edges follow the ranking
    const double sync_share = (trial % 4) * 0.25;  // 0, 0.25, 0.5, 0.75
    const auto seed = static_cast<std::uint64_t>(trial);
    const std::vector<NodeId> scan = start_order<ScanLoader>(g, seed, sync_share);
    const std::vector<NodeId> queue = start_order<QueueLoader>(g, seed, sync_share);
    ASSERT_EQ(scan.size(), g.node_count()) << trial;
    ASSERT_EQ(queue, scan) << "trial " << trial << ", sync share " << sync_share;
  }
}

// A fetcher that records the URLs it is asked for and completes each one
// either inside fetch() or after a seeded random delay.
class ScriptedFetcher : public HttpFetcher {
 public:
  ScriptedFetcher(Simulator& sim, std::uint64_t seed, double sync_share)
      : sim_(sim), rng_(seed), sync_share_(sync_share) {}

  FetchId fetch(const HttpRequest& request, FetchCallbacks callbacks) override {
    urls.push_back(request.canonical_url().text);
    FetchResult result;
    result.status = 200;
    if (rng_.chance(sync_share_)) {
      callbacks.on_complete(result);
    } else {
      sim_.schedule_after(rng_.uniform_int(0, 40),
                          [done = std::move(callbacks.on_complete), result] {
                            done(result);
                          });
    }
    return ++next_id_;
  }
  bool cancel(FetchId) override { return false; }

  std::vector<std::string> urls;  // in fetch() order

 private:
  Simulator& sim_;
  Rng rng_;
  double sync_share_;
  FetchId next_id_ = 0;
};

std::vector<std::string> page_urls(const WebPage& page) {
  std::vector<std::string> urls;
  for (const PageResource& r : page.structure) urls.push_back(r.url);
  for (const MediaObject& img : page.images) urls.push_back(img.top_version().url);
  return urls;
}

TEST(ReadyQueue, BrowserMatchesRescanOnEveryCorpusPage) {
  Rng corpus_rng(42);
  const std::vector<WebPage> corpus = generate_corpus(kDevice, corpus_rng);
  ASSERT_EQ(corpus.size(), 25u);
  for (std::size_t p = 0; p < corpus.size(); ++p) {
    const WebPage& page = corpus[p];
    for (double sync_share : {0.0, 0.3, 1.0}) {
      const std::uint64_t seed = 7 + p;

      Simulator browser_sim;
      ScriptedFetcher browser_fetcher(browser_sim, seed, sync_share);
      Browser browser(browser_sim, &browser_fetcher, page);
      browser_sim.schedule_at(0, [&] { browser.load(); });
      browser_sim.run();
      EXPECT_TRUE(browser.structure_complete()) << page.site;
      EXPECT_EQ(browser.images_completed(), page.images.size()) << page.site;

      Simulator oracle_sim;
      ScriptedFetcher oracle_fetcher(oracle_sim, seed, sync_share);
      const DependencyGraph graph = page_dependency_graph(page);
      const std::vector<std::string> urls = page_urls(page);
      std::unique_ptr<ScanLoader> oracle;
      oracle = std::make_unique<ScanLoader>(graph, [&](NodeId node) {
        FetchCallbacks cbs;
        cbs.on_complete = [&oracle, node](const FetchResult&) { oracle->complete(node); };
        oracle_fetcher.fetch(HttpRequest::get(urls[node]), std::move(cbs));
      });
      oracle_sim.schedule_at(0, [&] { oracle->load(); });
      oracle_sim.run();

      ASSERT_EQ(browser_fetcher.urls.size(), urls.size()) << page.site;
      EXPECT_EQ(browser_fetcher.urls, oracle_fetcher.urls)
          << page.site << ", sync share " << sync_share;
    }
  }
}

// ---------- page graph construction ----------

TEST(PageDependencyGraph, DefaultShape) {
  Rng rng(3);
  WebPage page = generate_page(alexa25_specs()[12], kDevice, rng);  // yahoo-like
  DependencyGraph g = page_dependency_graph(page);
  const std::size_t structure = page.structure.size();
  ASSERT_EQ(g.node_count(), structure + page.images.size());
  EXPECT_FALSE(g.has_cycle());

  // HTML has no prerequisites; everything else depends (at least) on it.
  EXPECT_EQ(g.prerequisite_count(0), 0u);
  for (NodeId n = 1; n < g.node_count(); ++n)
    EXPECT_TRUE(contains(g.dependents(0), n)) << n;
  // Images wait for the document only.
  for (NodeId img = structure; img < g.node_count(); ++img)
    EXPECT_EQ(g.prerequisite_count(img), 1u) << img;

  // Scripts depend on every stylesheet and on the preceding script.
  // Corpus structure: html, css, js(app), js(vendor).
  ASSERT_EQ(structure, 4u);
  EXPECT_TRUE(contains(g.dependents(1), 2));  // css -> app
  EXPECT_TRUE(contains(g.dependents(1), 3));  // css -> vendor
  EXPECT_TRUE(contains(g.dependents(2), 3));  // app -> vendor
  EXPECT_EQ(g.prerequisite_count(3), 3u);     // html, css, app
}

// ---------- browser honours the graph ----------

TEST(BrowserDependencies, ScriptsSerializedBehindCss) {
  Simulator sim;
  Rng rng(3);
  WebPage page = generate_page(alexa25_specs()[13], kDevice, rng);  // wikipedia
  Link::Params cp;
  cp.bandwidth = BandwidthTrace::constant(500'000);
  cp.sharing = Link::Sharing::kFairShare;
  Link client_link(sim, cp);
  Link server_link(sim, Link::Params{});
  ObjectStore store;
  for (const PageResource& r : page.structure) store.put(parse_url(r.url)->path, r.size);
  for (const MediaObject& img : page.images)
    store.put(parse_url(img.top_version().url)->path, img.top_version().size);
  SimHttpOrigin origin(sim, &store, &server_link);
  MitmProxy proxy(sim, &origin, &client_link);
  Browser browser(sim, &proxy, page);
  browser.load();
  sim.run();

  const auto& structure = browser.structure_states();
  ASSERT_EQ(structure.size(), 4u);
  // html < css requested; scripts requested only after css completed and in
  // document order.
  EXPECT_LT(structure[0].complete_ms, structure[1].request_ms + 1);
  EXPECT_GE(structure[2].request_ms, structure[1].complete_ms);
  EXPECT_GE(structure[3].request_ms, structure[2].complete_ms);
  // Images went out as soon as the html was parsed — before the scripts.
  for (const ResourceLoadState& img : browser.image_states())
    EXPECT_LT(img.request_ms, structure[2].request_ms + 1);
}

TEST(BrowserDependencies, AllResourcesEventuallyComplete) {
  Simulator sim;
  Rng rng(9);
  WebPage page = generate_page(alexa25_specs()[11], kDevice, rng);  // youtube
  Link client_link(sim, Link::Params{});
  Link server_link(sim, Link::Params{});
  ObjectStore store;
  for (const PageResource& r : page.structure) store.put(parse_url(r.url)->path, r.size);
  for (const MediaObject& img : page.images)
    store.put(parse_url(img.top_version().url)->path, img.top_version().size);
  SimHttpOrigin origin(sim, &store, &server_link);
  MitmProxy proxy(sim, &origin, &client_link);
  Browser browser(sim, &proxy, page);
  browser.load();
  sim.run();
  EXPECT_TRUE(browser.structure_complete());
  EXPECT_EQ(browser.images_completed(), page.images.size());
  EXPECT_FALSE(browser.dependency_graph().has_cycle());
}

}  // namespace
}  // namespace mfhttp
