// Tests for bandwidth traces and the rate-limited link.
#include <gtest/gtest.h>

#include <string>

#include "net/bandwidth_trace.h"
#include "net/link.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace mfhttp {
namespace {

// ---------- BandwidthTrace ----------

TEST(BandwidthTrace, ConstantRate) {
  auto t = BandwidthTrace::constant(1000);
  EXPECT_DOUBLE_EQ(t.rate_at(0), 1000);
  EXPECT_DOUBLE_EQ(t.rate_at(123456), 1000);
  EXPECT_DOUBLE_EQ(t.bytes_between(0, 1000), 1000);
  EXPECT_DOUBLE_EQ(t.bytes_between(500, 2500), 2000);
}

TEST(BandwidthTrace, SlottedRates) {
  auto t = BandwidthTrace::from_slots({100, 200, 400}, 1000);
  EXPECT_DOUBLE_EQ(t.rate_at(0), 100);
  EXPECT_DOUBLE_EQ(t.rate_at(999), 100);
  EXPECT_DOUBLE_EQ(t.rate_at(1000), 200);
  EXPECT_DOUBLE_EQ(t.rate_at(2500), 400);
  // Final slot extends forever.
  EXPECT_DOUBLE_EQ(t.rate_at(99'000), 400);
}

TEST(BandwidthTrace, IntegralAcrossSlots) {
  auto t = BandwidthTrace::from_slots({100, 200, 400}, 1000);
  EXPECT_DOUBLE_EQ(t.bytes_between(0, 3000), 700);
  EXPECT_DOUBLE_EQ(t.bytes_between(500, 1500), 50 + 100);
  EXPECT_DOUBLE_EQ(t.bytes_between(2000, 5000), 400 * 3);
  EXPECT_DOUBLE_EQ(t.bytes_between(100, 100), 0);
}

TEST(BandwidthTrace, IntegralAdditivity) {
  auto t = BandwidthTrace::from_slots({123, 456, 789, 1000}, 700);
  double whole = t.bytes_between(0, 5000);
  double parts = t.bytes_between(0, 1234) + t.bytes_between(1234, 5000);
  EXPECT_NEAR(whole, parts, 1e-9);
}

TEST(BandwidthTrace, CumulativeMatchesIntegral) {
  auto t = BandwidthTrace::from_slots({100, 300}, 1000);
  EXPECT_DOUBLE_EQ(t.cumulative_bytes(1500), t.bytes_between(0, 1500));
}

TEST(BandwidthTrace, SubSlotGranularity) {
  auto t = BandwidthTrace::from_slots({1000}, 1000);
  EXPECT_DOUBLE_EQ(t.bytes_between(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(t.bytes_between(0, 250), 250.0);
}

TEST(BandwidthTrace, RandomWalkStaysClamped) {
  Rng rng(42);
  auto t = BandwidthTrace::random_walk(rng, 500e3, 150e3, 250e3, 1000e3, 120);
  EXPECT_EQ(t.slot_count(), 120u);
  for (BytesPerSec r : t.slots()) {
    EXPECT_GE(r, 250e3);
    EXPECT_LE(r, 1000e3);
  }
}

TEST(BandwidthTrace, RandomWalkMeanReverts) {
  Rng rng(42);
  auto t = BandwidthTrace::random_walk(rng, 500e3, 50e3, 0, 1000e3, 600);
  double sum = 0;
  for (BytesPerSec r : t.slots()) sum += r;
  EXPECT_NEAR(sum / 600.0, 500e3, 70e3);
}

TEST(BandwidthTrace, RandomWalkVaries) {
  Rng rng(42);
  auto t = BandwidthTrace::random_walk(rng, 500e3, 150e3, 100e3, 900e3, 60);
  double mn = 1e18, mx = 0;
  for (BytesPerSec r : t.slots()) {
    mn = std::min(mn, r);
    mx = std::max(mx, r);
  }
  EXPECT_GT(mx - mn, 100e3);  // actually moves around
}

// ---------- Link ----------

Link::Params fifo_params(BytesPerSec rate, TimeMs latency = 0) {
  Link::Params p;
  p.bandwidth = BandwidthTrace::constant(rate);
  p.latency_ms = latency;
  p.quantum_ms = 5;
  p.sharing = Link::Sharing::kFifo;
  return p;
}

TEST(Link, SingleTransferTiming) {
  Simulator sim;
  Link link(sim, fifo_params(100'000));  // 100 KB/s
  TimeMs done = -1;
  link.submit(50'000, [&](Bytes, bool complete) {
    if (complete) done = sim.now();
  });
  sim.run();
  // 50 KB at 100 KB/s = 500 ms (quantized to 5ms ticks).
  EXPECT_GE(done, 500);
  EXPECT_LE(done, 510);
}

TEST(Link, LatencyDelaysFirstByte) {
  Simulator sim;
  Link link(sim, fifo_params(1'000'000, 40));
  TimeMs first_byte = -1;
  link.submit(1000, [&](Bytes, bool) {
    if (first_byte < 0) first_byte = sim.now();
  });
  sim.run();
  EXPECT_GE(first_byte, 40);
  EXPECT_LE(first_byte, 50);
}

TEST(Link, ZeroSizeCompletesAfterLatency) {
  Simulator sim;
  Link link(sim, fifo_params(1000, 25));
  TimeMs done = -1;
  Bytes delivered = -1;
  link.submit(0, [&](Bytes b, bool complete) {
    delivered = b;
    if (complete) done = sim.now();
  });
  sim.run();
  EXPECT_EQ(done, 25);
  EXPECT_EQ(delivered, 0);
}

TEST(Link, ProgressSumsToSize) {
  Simulator sim;
  Link link(sim, fifo_params(77'000));
  Bytes total = 0;
  link.submit(123'456, [&](Bytes chunk, bool) { total += chunk; });
  sim.run();
  EXPECT_EQ(total, 123'456);
  EXPECT_EQ(link.bytes_delivered_total(), 123'456);
}

TEST(Link, FifoServesHeadFirst) {
  Simulator sim;
  Link link(sim, fifo_params(100'000));
  TimeMs done_a = -1, done_b = -1;
  link.submit(100'000, [&](Bytes, bool c) { if (c) done_a = sim.now(); });
  link.submit(100'000, [&](Bytes, bool c) { if (c) done_b = sim.now(); });
  sim.run();
  // A completes at ~1s, B only afterwards at ~2s (strict FIFO).
  EXPECT_NEAR(static_cast<double>(done_a), 1000, 15);
  EXPECT_NEAR(static_cast<double>(done_b), 2000, 15);
}

TEST(Link, FairShareSplitsCapacity) {
  Simulator sim;
  Link::Params p = fifo_params(100'000);
  p.sharing = Link::Sharing::kFairShare;
  Link link(sim, p);
  TimeMs done_a = -1, done_b = -1;
  link.submit(100'000, [&](Bytes, bool c) { if (c) done_a = sim.now(); });
  link.submit(100'000, [&](Bytes, bool c) { if (c) done_b = sim.now(); });
  sim.run();
  // Both share: each finishes around 2s.
  EXPECT_NEAR(static_cast<double>(done_a), 2000, 25);
  EXPECT_NEAR(static_cast<double>(done_b), 2000, 25);
}

TEST(Link, FairShareLeftoverGoesToBigTransfer) {
  Simulator sim;
  Link::Params p = fifo_params(100'000);
  p.sharing = Link::Sharing::kFairShare;
  Link link(sim, p);
  TimeMs done_small = -1, done_big = -1;
  link.submit(10'000, [&](Bytes, bool c) { if (c) done_small = sim.now(); });
  link.submit(190'000, [&](Bytes, bool c) { if (c) done_big = sim.now(); });
  sim.run();
  // Small: shares until done (~0.2s). Big: total work 200 KB at 100 KB/s = 2s.
  EXPECT_NEAR(static_cast<double>(done_small), 200, 20);
  EXPECT_NEAR(static_cast<double>(done_big), 2000, 30);
}

TEST(Link, FifoPriorityPreempts) {
  Simulator sim;
  Link link(sim, fifo_params(100'000));
  TimeMs done_low = -1, done_high = -1;
  link.submit(100'000, [&](Bytes, bool c) { if (c) done_low = sim.now(); },
              /*priority=*/0);
  // Submitted later but more important: served first from its start.
  link.submit(50'000, [&](Bytes, bool c) { if (c) done_high = sim.now(); },
              /*priority=*/5);
  sim.run();
  EXPECT_LT(done_high, done_low);
  // High finishes ~0.5 s in; low needs the full 1.5 s of combined work.
  EXPECT_NEAR(static_cast<double>(done_high), 500, 25);
  EXPECT_NEAR(static_cast<double>(done_low), 1500, 25);
}

TEST(Link, EqualPrioritiesKeepSubmissionOrder) {
  Simulator sim;
  Link link(sim, fifo_params(100'000));
  std::vector<int> completion_order;
  for (int i = 0; i < 3; ++i)
    link.submit(20'000, [&completion_order, i](Bytes, bool c) {
      if (c) completion_order.push_back(i);
    }, /*priority=*/7);
  sim.run();
  EXPECT_EQ(completion_order, (std::vector<int>{0, 1, 2}));
}

TEST(Link, FairShareIgnoresPriority) {
  Simulator sim;
  Link::Params p = fifo_params(100'000);
  p.sharing = Link::Sharing::kFairShare;
  Link link(sim, p);
  TimeMs done_a = -1, done_b = -1;
  link.submit(100'000, [&](Bytes, bool c) { if (c) done_a = sim.now(); }, 0);
  link.submit(100'000, [&](Bytes, bool c) { if (c) done_b = sim.now(); }, 9);
  sim.run();
  EXPECT_NEAR(static_cast<double>(done_a), static_cast<double>(done_b), 30);
}

TEST(Link, CancelStopsDelivery) {
  Simulator sim;
  Link link(sim, fifo_params(100'000));
  Bytes received = 0;
  auto id = link.submit(1'000'000, [&](Bytes chunk, bool) { received += chunk; });
  sim.schedule_at(100, [&] { EXPECT_TRUE(link.cancel(id)); });
  sim.run();
  // ~10 KB delivered in 100 ms; nothing after cancellation.
  EXPECT_LE(received, 12'000);
  EXPECT_GT(received, 5'000);
  EXPECT_EQ(link.active_transfers(), 0u);
}

TEST(Link, CancelDuringLatencyNoCallbacks) {
  Simulator sim;
  Link link(sim, fifo_params(100'000, 50));
  bool any = false;
  auto id = link.submit(1000, [&](Bytes, bool) { any = true; });
  sim.schedule_at(10, [&] { link.cancel(id); });
  sim.run();
  EXPECT_FALSE(any);
}

TEST(Link, VariableBandwidthRespected) {
  Simulator sim;
  Link::Params p;
  p.bandwidth = BandwidthTrace::from_slots({100'000, 0, 100'000}, 1000);
  p.quantum_ms = 5;
  Link link(sim, p);
  TimeMs done = -1;
  link.submit(150'000, [&](Bytes, bool c) { if (c) done = sim.now(); });
  sim.run();
  // 100 KB in second 0, nothing in second 1, 50 KB halfway through second 2.
  EXPECT_NEAR(static_cast<double>(done), 2500, 25);
}

TEST(Link, ConsumptionLogRecords) {
  Simulator sim;
  Link::Params p = fifo_params(100'000);
  p.record_consumption = true;
  Link link(sim, p);
  link.submit(50'000, [](Bytes, bool) {});
  sim.run();
  const auto& log = link.consumption_log();
  ASSERT_FALSE(log.empty());
  Bytes total = 0;
  for (auto& [t, b] : log) total += b;
  EXPECT_EQ(total, 50'000);
}

TEST(Link, SubmitFromCompletionCallback) {
  Simulator sim;
  Link link(sim, fifo_params(100'000));
  TimeMs second_done = -1;
  link.submit(10'000, [&](Bytes, bool c) {
    if (c) {
      link.submit(10'000, [&](Bytes, bool c2) {
        if (c2) second_done = sim.now();
      });
    }
  });
  sim.run();
  EXPECT_GT(second_done, 150);  // two sequential 100ms transfers
}

TEST(Link, ManySmallTransfersAllComplete) {
  Simulator sim;
  Link link(sim, fifo_params(1'000'000));
  int completed = 0;
  for (int i = 0; i < 200; ++i)
    link.submit(1000, [&](Bytes, bool c) { if (c) ++completed; });
  sim.run();
  EXPECT_EQ(completed, 200);
}

TEST(Link, CancelSiblingFromProgressCallbackSilencesIt) {
  // Re-entrancy regression: a ProgressFn cancelling a *different* in-flight
  // transfer mid-quantum must not leave the cancelled sibling with a stale
  // delivery — it gets no callbacks from that quantum on.
  Simulator sim;
  Link::Params p;
  p.bandwidth = BandwidthTrace::constant(100'000);
  p.sharing = Link::Sharing::kFairShare;
  Link link(sim, p);

  Link::TransferId victim = Link::kInvalidTransfer;
  int victim_calls_after_cancel = 0;
  bool cancelled = false;
  // Submission order matters: the canceller's callback must run while the
  // victim still has deliveries queued in the same quantum.
  link.submit(50'000, [&](Bytes, bool) {
    if (!cancelled && sim.now() > 100) {
      cancelled = true;
      EXPECT_TRUE(link.cancel(victim));
    }
  });
  victim = link.submit(50'000, [&](Bytes, bool) {
    if (cancelled) ++victim_calls_after_cancel;
  });
  sim.run();
  EXPECT_EQ(victim_calls_after_cancel, 0);
}

TEST(Link, CancelSiblingFromCompletionCallbackSilencesIt) {
  Simulator sim;
  Link::Params p;
  p.bandwidth = BandwidthTrace::constant(100'000);
  p.sharing = Link::Sharing::kFairShare;
  Link link(sim, p);

  Link::TransferId victim = Link::kInvalidTransfer;
  int victim_calls_after_cancel = 0;
  bool cancelled = false;
  // The small transfer completes while the big one is mid-flight; its
  // completion callback kills the big one from inside the delivery loop.
  link.submit(5'000, [&](Bytes, bool c) {
    if (c) {
      cancelled = true;
      EXPECT_TRUE(link.cancel(victim));
    }
  });
  victim = link.submit(200'000, [&](Bytes, bool) {
    if (cancelled) ++victim_calls_after_cancel;
  });
  sim.run();
  EXPECT_EQ(victim_calls_after_cancel, 0);
  EXPECT_EQ(link.active_transfers(), 0u);
}

TEST(Link, SelfCancelFromNonFinalChunkEndsCallbacks) {
  // FaultyLink's truncation path: the ProgressFn cancels its own transfer
  // mid-body. The running callable must survive its transfer's erasure (the
  // captured string is read after the cancel, which ASan would flag), and
  // the transfer gets nothing more.
  for (Link::Sharing sharing : {Link::Sharing::kFifo, Link::Sharing::kFairShare}) {
    Simulator sim;
    Link::Params p = fifo_params(100'000);
    p.sharing = sharing;
    Link link(sim, p);
    Link::TransferId self = Link::kInvalidTransfer;
    int calls = 0;
    std::string label(64, 'x');  // heap-allocated capture
    std::size_t label_seen = 0;
    self = link.submit(50'000, [&, label](Bytes, bool complete) {
      ++calls;
      EXPECT_FALSE(complete);
      if (calls == 3) {
        EXPECT_TRUE(link.cancel(self));
        EXPECT_FALSE(link.cancel(self));
        label_seen = label.size();
      }
    });
    // A sibling keeps the link ticking after the cancel.
    bool sibling_done = false;
    link.submit(20'000, [&](Bytes, bool c) { sibling_done = sibling_done || c; });
    sim.run();
    EXPECT_EQ(calls, 3);
    EXPECT_EQ(label_seen, label.size());
    EXPECT_TRUE(sibling_done);
    EXPECT_EQ(link.active_transfers(), 0u);
  }
}

// Counts every chunk it is handed; reports what it saw at completion.
struct CountingProgress {
  int* calls_at_complete;
  Bytes* bytes_at_complete;
  int calls = 0;
  Bytes bytes = 0;
  void operator()(Bytes chunk, bool complete) {
    ++calls;
    bytes += chunk;
    if (complete) {
      *calls_at_complete = calls;
      *bytes_at_complete = bytes;
    }
  }
};

TEST(Link, StatefulFunctorObservesEveryDelivery) {
  // Each transfer keeps one callable: the state a functor builds up over
  // non-final chunks is the state its final call sees. Fair share with
  // 3 transfers at 100 KB/s splits 500 B/quantum unevenly, so transfers
  // also take multi-round chunks within one quantum.
  for (Link::Sharing sharing : {Link::Sharing::kFifo, Link::Sharing::kFairShare}) {
    Simulator sim;
    Link::Params p = fifo_params(100'000);
    p.sharing = sharing;
    Link link(sim, p);
    constexpr int kTransfers = 3;
    const Bytes sizes[kTransfers] = {7'001, 12'345, 30'000};
    int final_calls[kTransfers] = {};
    Bytes final_bytes[kTransfers] = {};
    for (int i = 0; i < kTransfers; ++i)
      link.submit(sizes[i], CountingProgress{&final_calls[i], &final_bytes[i]});
    sim.run();
    for (int i = 0; i < kTransfers; ++i) {
      EXPECT_EQ(final_bytes[i], sizes[i]) << "transfer " << i;
      // At most 500 B per 5 ms quantum, so every transfer takes many chunks.
      EXPECT_GE(final_calls[i], sizes[i] / 500) << "transfer " << i;
    }
  }
}

}  // namespace
}  // namespace mfhttp
