// Tests for the deterministic fault-injection subsystem: FaultPlan schema /
// JSON round-trip / bandwidth shaping, the FaultyLink and FaultyFetcher
// decorators, and end-to-end determinism of faulted browsing sessions.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "fault/faulty_fetcher.h"
#include "fault/faulty_link.h"
#include "http/sim_http.h"
#include "web/corpus.h"
#include "web/experiment.h"

namespace mfhttp {
namespace {

using fault::FaultPlan;
using fault::FaultyFetcher;
using fault::FaultyLink;
using fault::LinkFaultWindow;

// ---------- FaultPlan: windows and shaping ----------

TEST(FaultPlan, EmptyPlanHasNoEffect) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.horizon_ms(), 0);
  EXPECT_FALSE(plan.in_outage(0));
  EXPECT_EQ(plan.extra_latency_at(1234), 0);
  BandwidthTrace base = BandwidthTrace::constant(1e6);
  BandwidthTrace shaped = plan.shape(base);
  EXPECT_DOUBLE_EQ(shaped.rate_at(500), 1e6);
}

TEST(FaultPlan, RepeatingWindowCoversEachOccurrence) {
  LinkFaultWindow w;
  w.kind = LinkFaultWindow::Kind::kOutage;
  w.at_ms = 1000;
  w.duration_ms = 500;
  w.repeat = 3;
  w.period_ms = 2000;
  EXPECT_FALSE(w.active_at(999));
  EXPECT_TRUE(w.active_at(1000));
  EXPECT_TRUE(w.active_at(1499));
  EXPECT_FALSE(w.active_at(1500));
  EXPECT_TRUE(w.active_at(3200));   // second occurrence
  EXPECT_TRUE(w.active_at(5400));   // third occurrence
  EXPECT_FALSE(w.active_at(7400));  // no fourth
  EXPECT_EQ(w.end_ms(), 1000 + 2 * 2000 + 500);
}

TEST(FaultPlan, ShapeZeroesOutagesAndScalesCollapses) {
  FaultPlan plan;
  LinkFaultWindow outage;
  outage.kind = LinkFaultWindow::Kind::kOutage;
  outage.at_ms = 1000;
  outage.duration_ms = 1000;
  plan.link.push_back(outage);
  LinkFaultWindow collapse;
  collapse.kind = LinkFaultWindow::Kind::kCollapse;
  collapse.at_ms = 3000;
  collapse.duration_ms = 1000;
  collapse.factor = 0.25;
  plan.link.push_back(collapse);

  BandwidthTrace shaped = plan.shape(BandwidthTrace::constant(1e6));
  EXPECT_DOUBLE_EQ(shaped.rate_at(500), 1e6);
  EXPECT_DOUBLE_EQ(shaped.rate_at(1500), 0.0);
  EXPECT_DOUBLE_EQ(shaped.rate_at(2500), 1e6);
  EXPECT_DOUBLE_EQ(shaped.rate_at(3500), 0.25e6);
  // Past the horizon the base trace continues.
  EXPECT_DOUBLE_EQ(shaped.rate_at(60'000), 1e6);
}

TEST(FaultPlan, LatencySpikesSum) {
  FaultPlan plan;
  LinkFaultWindow spike;
  spike.kind = LinkFaultWindow::Kind::kLatencySpike;
  spike.at_ms = 0;
  spike.duration_ms = 1000;
  spike.extra_latency_ms = 300;
  plan.link.push_back(spike);
  plan.link.push_back(spike);  // two overlapping spikes
  EXPECT_EQ(plan.extra_latency_at(500), 600);
  EXPECT_EQ(plan.extra_latency_at(1500), 0);
}

// ---------- FaultPlan: JSON ----------

TEST(FaultPlanJson, RoundTripPreservesEveryField) {
  FaultPlan plan = FaultPlan::lossy_cellular(/*seed=*/99);
  std::optional<FaultPlan> back = FaultPlan::from_json(plan.to_json());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->seed, 99u);
  EXPECT_EQ(back->name, "lossy-cellular");
  ASSERT_EQ(back->link.size(), plan.link.size());
  EXPECT_EQ(back->link[0].kind, plan.link[0].kind);
  EXPECT_EQ(back->link[0].at_ms, plan.link[0].at_ms);
  EXPECT_EQ(back->link[0].duration_ms, plan.link[0].duration_ms);
  EXPECT_EQ(back->link[0].repeat, plan.link[0].repeat);
  EXPECT_EQ(back->link[0].period_ms, plan.link[0].period_ms);
  EXPECT_DOUBLE_EQ(back->transfer.stall_rate, plan.transfer.stall_rate);
  EXPECT_EQ(back->transfer.stall_ms, plan.transfer.stall_ms);
  EXPECT_DOUBLE_EQ(back->origin.error_rate, plan.origin.error_rate);
  EXPECT_EQ(back->origin.error_statuses, plan.origin.error_statuses);
  EXPECT_DOUBLE_EQ(back->origin.abrupt_close_rate, plan.origin.abrupt_close_rate);
  // And a second trip is byte-identical.
  EXPECT_EQ(back->to_json(), plan.to_json());
}

TEST(FaultPlanJson, RejectsSchemaViolations) {
  // Unknown window kind.
  EXPECT_FALSE(FaultPlan::from_json(
      R"({"link": [{"kind": "meteor", "at_ms": 0, "duration_ms": 5}]})"));
  // Rate outside [0, 1].
  EXPECT_FALSE(FaultPlan::from_json(R"({"transfer": {"stall_rate": 1.5}})"));
  EXPECT_FALSE(FaultPlan::from_json(R"({"origin": {"error_rate": -0.1}})"));
  // Collapse factor must stay below 1.
  EXPECT_FALSE(FaultPlan::from_json(
      R"({"link": [{"kind": "collapse", "duration_ms": 5, "factor": 1.0}]})"));
  // Repeats may not overlap: period < duration.
  EXPECT_FALSE(FaultPlan::from_json(
      R"({"link": [{"kind": "outage", "duration_ms": 100, "repeat": 2,
                    "period_ms": 50}]})"));
  // Error statuses must be 4xx/5xx.
  EXPECT_FALSE(FaultPlan::from_json(
      R"({"origin": {"error_rate": 0.5, "error_statuses": [200]}})"));
  // Not an object / not JSON at all.
  EXPECT_FALSE(FaultPlan::from_json("[1, 2]"));
  EXPECT_FALSE(FaultPlan::from_json("{nope"));
}

TEST(FaultPlanJson, LoadReadsFileAndFailsGracefully) {
  std::string path = ::testing::TempDir() + "/fault_plan_test.json";
  {
    std::ofstream out(path);
    out << FaultPlan::lossy_cellular().to_json();
  }
  std::optional<FaultPlan> plan = FaultPlan::load(path);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->name, "lossy-cellular");
  std::remove(path.c_str());

  EXPECT_FALSE(FaultPlan::load(path).has_value());  // gone now
}

TEST(FaultPlanJson, GlobalPlanInstallAndClear) {
  EXPECT_EQ(fault::global_plan(), nullptr);
  fault::set_global_plan(FaultPlan::lossy_cellular());
  ASSERT_NE(fault::global_plan(), nullptr);
  EXPECT_EQ(fault::global_plan()->name, "lossy-cellular");
  fault::set_global_plan(std::nullopt);
  EXPECT_EQ(fault::global_plan(), nullptr);
}

// ---------- FaultyLink ----------

struct FaultyLinkFixture : public ::testing::Test {
  FaultyLink& make_link(const FaultPlan& plan) {
    Link::Params p;
    p.bandwidth = BandwidthTrace::constant(100'000);
    p.latency_ms = 0;
    link.emplace(sim, p, plan);
    return *link;
  }

  Simulator sim;
  std::optional<FaultyLink> link;
};

TEST_F(FaultyLinkFixture, CertainTruncationDeliversOnlyPrefix) {
  FaultPlan plan;
  plan.transfer.truncate_rate = 1.0;
  plan.transfer.truncate_fraction = 0.5;
  FaultyLink& l = make_link(plan);

  Bytes delivered = 0;
  int completes = 0;
  l.submit(50'000, [&](Bytes chunk, bool complete) {
    delivered += chunk;
    if (complete) ++completes;
  });
  sim.run();
  EXPECT_EQ(completes, 1);
  EXPECT_GT(delivered, 0);
  EXPECT_LT(delivered, 50'000);
}

TEST_F(FaultyLinkFixture, CertainStallDelaysButDeliversEverything) {
  FaultPlan stall_plan;
  stall_plan.transfer.stall_rate = 1.0;
  stall_plan.transfer.stall_ms = 700;
  FaultyLink& l = make_link(stall_plan);
  Bytes delivered = 0;
  TimeMs done_at = -1;
  l.submit(50'000, [&](Bytes chunk, bool complete) {
    delivered += chunk;
    if (complete) done_at = sim.now();
  });
  sim.run();
  EXPECT_EQ(delivered, 50'000);
  // 50 KB at 100 KB/s is 500 ms unfaulted; the stall adds its full pause.
  EXPECT_GE(done_at, 500 + 700);
}

TEST_F(FaultyLinkFixture, LatencySpikeDefersTransferStart) {
  FaultPlan plan;
  LinkFaultWindow spike;
  spike.kind = LinkFaultWindow::Kind::kLatencySpike;
  spike.at_ms = 0;
  spike.duration_ms = 10'000;
  spike.extra_latency_ms = 400;
  plan.link.push_back(spike);
  FaultyLink& l = make_link(plan);
  TimeMs first_byte = -1;
  l.submit(10'000, [&](Bytes, bool) {
    if (first_byte < 0) first_byte = sim.now();
  });
  sim.run();
  EXPECT_GE(first_byte, 400);
}

TEST_F(FaultyLinkFixture, CancelSilencesFaultedTransfer) {
  FaultPlan plan;
  plan.transfer.stall_rate = 1.0;
  plan.transfer.stall_ms = 400;
  FaultyLink& l = make_link(plan);
  int calls_after_cancel = 0;
  bool cancelled = false;
  auto id = l.submit(50'000, [&](Bytes, bool) {
    if (cancelled) ++calls_after_cancel;
  });
  sim.schedule_at(50, [&] {
    cancelled = true;
    EXPECT_TRUE(l.cancel(id));
  });
  sim.run();
  EXPECT_EQ(calls_after_cancel, 0);
}

TEST_F(FaultyLinkFixture, SelfCancelFromNonFinalChunkEndsCallbacks) {
  // A faulted transfer's callback cancels its own transfer mid-body, then
  // reads its capture: the running callable must outlive the cancel (ASan
  // flags it otherwise), and the transfer gets nothing more.
  FaultPlan plan;
  plan.transfer.truncate_rate = 1.0;
  plan.transfer.truncate_fraction = 0.9;  // never reached: cancelled first
  FaultyLink& l = make_link(plan);
  FaultyLink::TransferId self = Link::kInvalidTransfer;
  int calls = 0;
  std::string label(64, 'x');  // heap-allocated capture
  std::size_t label_seen = 0;
  self = l.submit(50'000, [&, label](Bytes, bool complete) {
    ++calls;
    EXPECT_FALSE(complete);
    if (calls == 3) {
      EXPECT_TRUE(l.cancel(self));
      EXPECT_FALSE(l.cancel(self));
      label_seen = label.size();
    }
  });
  sim.run();
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(label_seen, label.size());
  EXPECT_EQ(l.active_transfers(), 0u);
}

TEST_F(FaultyLinkFixture, SamePlanSameSeedSameByteTrace) {
  auto run_once = [](std::uint64_t seed) {
    Simulator sim;
    FaultPlan plan;
    plan.seed = seed;
    plan.transfer.truncate_rate = 0.4;
    plan.transfer.stall_rate = 0.4;
    plan.transfer.stall_ms = 300;
    Link::Params p;
    p.bandwidth = BandwidthTrace::constant(100'000);
    FaultyLink link(sim, p, plan);
    std::vector<std::pair<TimeMs, Bytes>> trace;
    for (int i = 0; i < 8; ++i) {
      link.submit(10'000 + i * 1000, [&trace, &sim](Bytes chunk, bool) {
        trace.emplace_back(sim.now(), chunk);
      });
    }
    sim.run();
    return trace;
  };
  EXPECT_EQ(run_once(5), run_once(5));
  EXPECT_NE(run_once(5), run_once(6));  // the seed is the only difference
}

// ---------- FaultyFetcher ----------

struct FaultyFetcherFixture : public ::testing::Test {
  void SetUp() override {
    Link::Params p;
    p.bandwidth = BandwidthTrace::constant(100'000);
    server_link.emplace(sim, p);
    store.put("/img/a.jpg", 40'000, "image/jpeg");
    origin.emplace(sim, &store, &*server_link);
  }

  Simulator sim;
  ObjectStore store;
  std::optional<Link> server_link;
  std::optional<SimHttpOrigin> origin;
  std::optional<FaultyFetcher> fetcher;
};

TEST_F(FaultyFetcherFixture, CertainErrorSynthesizesStatusFromSet) {
  FaultPlan plan;
  plan.origin.error_rate = 1.0;
  plan.origin.error_statuses = {503};
  fetcher.emplace(sim, &*origin, plan);
  std::optional<FetchResult> out;
  std::optional<SimResponseMeta> meta;
  FetchCallbacks cbs;
  cbs.on_headers = [&](const SimResponseMeta& m) { meta = m; };
  cbs.on_complete = [&](const FetchResult& r) { out = r; };
  fetcher->fetch(HttpRequest::get("http://s.example/img/a.jpg"), std::move(cbs));
  sim.run();
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->status, 503);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->status, 503);
  EXPECT_GT(out->body_size, 0);  // small error body
  EXPECT_EQ(fetcher->inflight(), 0u);
}

TEST_F(FaultyFetcherFixture, CertainAbruptCloseDiesMidBodyExactlyOnce) {
  FaultPlan plan;
  plan.origin.abrupt_close_rate = 1.0;
  plan.origin.abrupt_close_fraction = 0.5;
  fetcher.emplace(sim, &*origin, plan);
  int completes = 0;
  Bytes received = 0;
  std::optional<FetchResult> out;
  FetchCallbacks cbs;
  cbs.on_progress = [&](Bytes chunk, Bytes, Bytes) { received += chunk; };
  cbs.on_complete = [&](const FetchResult& r) {
    ++completes;
    out = r;
  };
  fetcher->fetch(HttpRequest::get("http://s.example/img/a.jpg"), std::move(cbs));
  sim.run();
  EXPECT_EQ(completes, 1);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->status, 0);  // connection-reset sentinel
  EXPECT_GT(out->body_size, 0);
  EXPECT_LT(out->body_size, 40'000);
  EXPECT_EQ(out->body_size, received);
  EXPECT_EQ(fetcher->inflight(), 0u);
  EXPECT_EQ(origin->inflight(), 0u);  // inner fetch torn down
}

TEST_F(FaultyFetcherFixture, NoOriginFaultsPassesThrough) {
  FaultPlan plan;  // link/transfer faults only are irrelevant here
  plan.transfer.stall_rate = 1.0;
  plan.transfer.stall_ms = 500;
  fetcher.emplace(sim, &*origin, plan);
  std::optional<FetchResult> out;
  FetchCallbacks cbs;
  cbs.on_complete = [&](const FetchResult& r) { out = r; };
  fetcher->fetch(HttpRequest::get("http://s.example/img/a.jpg"), std::move(cbs));
  sim.run();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->status, 200);
  EXPECT_EQ(out->body_size, 40'000);
}

TEST_F(FaultyFetcherFixture, CancelBeforeSynthesizedErrorSilences) {
  FaultPlan plan;
  plan.origin.error_rate = 1.0;
  plan.origin.error_delay_ms = 50;
  fetcher.emplace(sim, &*origin, plan);
  int calls = 0;
  FetchCallbacks cbs;
  cbs.on_complete = [&](const FetchResult&) { ++calls; };
  auto id = fetcher->fetch(HttpRequest::get("http://s.example/img/a.jpg"),
                           std::move(cbs));
  sim.schedule_at(1, [&] { EXPECT_TRUE(fetcher->cancel(id)); });
  sim.run();
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(fetcher->inflight(), 0u);
}

// ---------- End-to-end determinism ----------

TEST(FaultDeterminism, IdenticalFaultedSessionsProduceIdenticalResults) {
  const DeviceProfile device = DeviceProfile::nexus6();
  Rng rng(42);
  WebPage page;
  for (const SiteSpec& spec : alexa25_specs()) {
    Rng r = rng.fork();
    if (spec.name == "sohu") page = generate_page(spec, device, r);
  }
  FaultPlan plan = FaultPlan::lossy_cellular();
  BrowsingSessionConfig config;
  config.fault_plan = &plan;
  config.session_ms = 20'000;
  config.fill_sample_ms = 0;
  BrowsingSessionResult a = run_browsing_session(page, config);
  BrowsingSessionResult b = run_browsing_session(page, config);
  EXPECT_EQ(a.to_json(), b.to_json());
}

}  // namespace
}  // namespace mfhttp
