// Tests for the resource dependency graph and its effect on browser loading
// order (§5.1.1: structural dependencies are never violated).
#include <gtest/gtest.h>

#include <algorithm>

#include "http/proxy.h"
#include "http/sim_http.h"
#include "web/browser.h"
#include "web/corpus.h"
#include "web/dependency.h"

namespace mfhttp {
namespace {

const DeviceProfile kDevice = DeviceProfile::nexus6();

// ---------- DependencyGraph core ----------

TEST(DependencyGraph, ReadinessFollowsEdges) {
  DependencyGraph g;
  auto a = g.add_node();
  auto b = g.add_node();
  auto c = g.add_node();
  g.add_edge(a, b);
  g.add_edge(b, c);
  std::vector<bool> done(3, false);
  EXPECT_TRUE(g.is_ready(a, done));
  EXPECT_FALSE(g.is_ready(b, done));
  done[a] = true;
  EXPECT_TRUE(g.is_ready(b, done));
  EXPECT_FALSE(g.is_ready(c, done));
  done[b] = true;
  EXPECT_TRUE(g.is_ready(c, done));
}

TEST(DependencyGraph, ReadyNodesExcludesDone) {
  DependencyGraph g;
  auto a = g.add_node();
  auto b = g.add_node();
  g.add_edge(a, b);
  std::vector<bool> done = {true, false};
  auto ready = g.ready_nodes(done);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0], b);
}

TEST(DependencyGraph, TopologicalOrderRespectsEdges) {
  DependencyGraph g;
  auto a = g.add_node();
  auto b = g.add_node();
  auto c = g.add_node();
  auto d = g.add_node();
  g.add_edge(a, c);
  g.add_edge(b, c);
  g.add_edge(c, d);
  auto order = g.topological_order();
  ASSERT_TRUE(order.has_value());
  auto pos = [&](DependencyGraph::NodeId n) {
    return std::find(order->begin(), order->end(), n) - order->begin();
  };
  EXPECT_LT(pos(a), pos(c));
  EXPECT_LT(pos(b), pos(c));
  EXPECT_LT(pos(c), pos(d));
}

TEST(DependencyGraph, CycleDetected) {
  DependencyGraph g;
  auto a = g.add_node();
  auto b = g.add_node();
  g.add_edge(a, b);
  g.add_edge(b, a);
  EXPECT_TRUE(g.has_cycle());
  EXPECT_FALSE(g.topological_order().has_value());
}

TEST(DependencyGraph, EmptyGraphTrivial) {
  DependencyGraph g;
  auto order = g.topological_order();
  ASSERT_TRUE(order.has_value());
  EXPECT_TRUE(order->empty());
}

// ---------- page graph construction ----------

TEST(PageDependencyGraph, DefaultShape) {
  Rng rng(3);
  WebPage page = generate_page(alexa25_specs()[12], kDevice, rng);  // yahoo-like
  std::vector<DependencyGraph::NodeId> structure, images;
  DependencyGraph g = page_dependency_graph(page, &structure, &images);
  ASSERT_EQ(structure.size(), page.structure.size());
  ASSERT_EQ(images.size(), page.images.size());
  EXPECT_FALSE(g.has_cycle());

  // HTML has no prerequisites; everything else depends (at least) on it.
  EXPECT_TRUE(g.dependencies(structure[0]).empty());
  for (std::size_t i = 1; i < structure.size(); ++i) {
    const auto& deps = g.dependencies(structure[i]);
    EXPECT_NE(std::find(deps.begin(), deps.end(), structure[0]), deps.end()) << i;
  }
  for (DependencyGraph::NodeId img : images) {
    const auto& deps = g.dependencies(img);
    ASSERT_EQ(deps.size(), 1u);
    EXPECT_EQ(deps[0], structure[0]);
  }

  // Scripts depend on every stylesheet and on the preceding script.
  // Corpus structure: html, css, js(app), js(vendor).
  ASSERT_EQ(page.structure.size(), 4u);
  const auto& app_deps = g.dependencies(structure[2]);
  EXPECT_NE(std::find(app_deps.begin(), app_deps.end(), structure[1]), app_deps.end());
  const auto& vendor_deps = g.dependencies(structure[3]);
  EXPECT_NE(std::find(vendor_deps.begin(), vendor_deps.end(), structure[2]),
            vendor_deps.end());
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
