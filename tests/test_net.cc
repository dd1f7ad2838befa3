// Tests for bandwidth traces and the rate-limited link.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "net/bandwidth_trace.h"
#include "net/link.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/slab.h"

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

// ---------- Ordered active list vs. the per-quantum sort ----------

// Link as it was before it kept its started transfers in serving order:
// each quantum collects the started transfers and sorts them by priority,
// then submission order; each delivery to a transfer that finished this
// quantum finds its callable by binary search in finished transfers sorted
// by id. Water-filling, carry and dispatch are Link's. Kept as the oracle
// the ordered link is held to, delivery for delivery.
class SortedLink {
 public:
  using TransferId = Link::TransferId;
  using ProgressFn = Link::ProgressFn;

  SortedLink(Simulator& sim, Link::Params params) : sim_(sim), params_(std::move(params)) {}

  TransferId submit(Bytes size, ProgressFn on_progress, int priority = 0) {
    const TransferId id = transfers_.insert();
    Transfer& t = *transfers_.find(id);
    t.remaining = size;
    t.on_progress = std::move(on_progress);
    t.order = next_order_++;
    t.priority = priority;
    sim_.schedule_after(params_.latency_ms, [this, id] {
      Transfer* t = transfers_.find(id);
      if (t == nullptr) return;
      if (t->remaining == 0) {
        ProgressFn cb = std::move(t->on_progress);
        transfers_.erase(id);
        cb(0, true);
        return;
      }
      t->started = true;
      arm_tick();
    });
    return id;
  }

  bool cancel(TransferId id) { return transfers_.erase(id); }

 private:
  struct Transfer {
    Bytes remaining = 0;
    ProgressFn on_progress;
    std::uint64_t order = 0;
    int priority = 0;
    bool started = false;

    void reset() { *this = Transfer{}; }
  };
  struct Delivery {
    TransferId id;
    Bytes bytes;
    bool complete;
  };
  struct Finished {
    TransferId id;
    ProgressFn fn;
  };
  using Serving = std::pair<TransferId, Transfer*>;

  void arm_tick() {
    if (tick_event_ != Simulator::kInvalidEvent && sim_.pending(tick_event_)) return;
    tick_event_ = sim_.schedule_after(params_.quantum_ms, [this] { tick(); });
  }

  void tick() {
    tick_event_ = Simulator::kInvalidEvent;
    const TimeMs now = sim_.now();
    double budget =
        params_.bandwidth.bytes_between(now - params_.quantum_ms, now) + carry_bytes_;
    std::vector<Serving> active;
    transfers_.for_each([&active](TransferId id, Transfer& t) {
      if (t.started) active.push_back({id, &t});
    });
    std::sort(active.begin(), active.end(), [](auto& a, auto& b) {
      if (a.second->priority != b.second->priority)
        return a.second->priority > b.second->priority;
      return a.second->order < b.second->order;
    });
    std::vector<Delivery> deliveries;
    std::vector<Finished> finished;
    auto give = [&](TransferId id, Transfer& t, double amount) {
      auto grant = std::min(static_cast<Bytes>(amount), t.remaining);
      if (grant <= 0) return 0.0;
      t.remaining -= grant;
      const bool complete = t.remaining == 0;
      deliveries.push_back({id, grant, complete});
      if (complete) finished.push_back({id, std::move(t.on_progress)});
      return static_cast<double>(grant);
    };
    if (params_.sharing == Link::Sharing::kFifo) {
      for (auto& [id, t] : active) {
        if (budget < 1) break;
        budget -= give(id, *t, budget);
      }
    } else {
      std::vector<Serving> wanting(active), still;
      while (budget >= 1 && !wanting.empty()) {
        double share = budget / static_cast<double>(wanting.size());
        if (share < 1) share = 1;
        double spent = 0;
        still.clear();
        for (auto& [id, t] : wanting) {
          if (budget - spent < 1) break;
          spent += give(id, *t, std::min(share, budget - spent));
          if (t->remaining > 0) still.push_back({id, t});
        }
        budget -= spent;
        if (spent < 1) break;
        wanting.swap(still);
      }
    }
    carry_bytes_ = budget - static_cast<double>(static_cast<Bytes>(budget));
    for (const Finished& f : finished) transfers_.erase(f.id);
    std::sort(finished.begin(), finished.end(),
              [](const Finished& a, const Finished& b) { return a.id < b.id; });
    for (const Delivery& d : deliveries) {
      if (Transfer* t = transfers_.find(d.id)) {
        ProgressFn fn = std::move(t->on_progress);
        fn(d.bytes, false);
        if (Transfer* back = transfers_.find(d.id)) back->on_progress = std::move(fn);
        continue;
      }
      auto f = std::lower_bound(
          finished.begin(), finished.end(), d.id,
          [](const Finished& e, TransferId id) { return e.id < id; });
      if (f == finished.end() || f->id != d.id) continue;
      f->fn(d.bytes, d.complete);
    }
    bool any_started = false;
    transfers_.for_each([&any_started](TransferId, const Transfer& t) {
      any_started = any_started || t.started;
    });
    if (any_started)
      arm_tick();
    else
      carry_bytes_ = 0;
  }

  Simulator& sim_;
  Link::Params params_;
  std::uint64_t next_order_ = 1;
  Slab<Transfer> transfers_;
  Simulator::EventId tick_event_ = Simulator::kInvalidEvent;
  double carry_bytes_ = 0;
};

// A seeded mix of submits (sizes from zero up, priorities 0-3), cancels
// from outside and from inside ProgressFns (of a sibling, of the transfer
// itself, and of itself followed at once by a submit that reuses the freed
// slot), run against a link. The trace is every (time, id, bytes,
// complete) delivery, submit and cancel result; the script's draws follow
// the trace, so two links that deliver alike consume the same draws.
template <class L>
class LinkScript {
 public:
  using Trace = std::vector<std::array<std::int64_t, 5>>;

  LinkScript(std::uint64_t seed, Link::Sharing sharing)
      : rng_(seed), link_(sim_, params(sharing)) {}

  Trace run() {
    for (int i = 0; i < 40; ++i)
      sim_.schedule_at(rng_.uniform_int(0, 3'000), [this] { client(); });
    sim_.run();
    return std::move(trace_);
  }

  int self_cancels() const { return self_cancels_; }
  int slot_reuses() const { return slot_reuses_; }

 private:
  Link::Params params(Link::Sharing sharing) {
    Link::Params p;
    p.bandwidth = BandwidthTrace::constant(
        static_cast<double>(rng_.uniform_int(1, 40)) * 10'000);
    p.latency_ms = rng_.uniform_int(0, 30);
    p.quantum_ms = 5;
    p.sharing = sharing;
    return p;
  }

  void client() {
    const auto n = rng_.uniform_int(1, 3);
    for (std::int64_t i = 0; i < n; ++i) submit();
    if (rng_.uniform_int(0, 2) == 0) cancel_random();
  }

  Link::TransferId submit() {
    const Bytes size = rng_.uniform_int(0, 5) == 0 ? 0 : rng_.uniform_int(1, 30'000);
    const auto priority = static_cast<int>(rng_.uniform_int(0, 3));
    const std::size_t label = ids_.size();
    ids_.push_back(link_.submit(
        size, [this, label](Bytes bytes, bool complete) { progress(label, bytes, complete); },
        priority));
    trace_.push_back({'s', sim_.now(), static_cast<std::int64_t>(ids_[label]), size,
                      priority});
    return ids_[label];
  }

  void progress(std::size_t label, Bytes bytes, bool complete) {
    const Link::TransferId self = ids_[label];
    trace_.push_back({'d', sim_.now(), static_cast<std::int64_t>(self), bytes, complete});
    const bool may_submit = ids_.size() < 400;
    switch (rng_.uniform_int(0, 19)) {
      case 0:
        record_cancel(self);
        ++self_cancels_;
        break;
      case 1:
        cancel_random();
        break;
      case 2:
        if (!may_submit) break;
        // The freed slot is the next one a submit takes.
        if (link_.cancel(self) && (submit() & 0xffffffffu) == (self & 0xffffffffu))
          ++slot_reuses_;
        break;
      case 3:
        if (may_submit) submit();
        break;
      default:
        break;
    }
  }

  void cancel_random() {
    if (ids_.empty()) return;
    record_cancel(ids_[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(ids_.size()) - 1))]);
  }
  void record_cancel(Link::TransferId id) {
    const bool cancelled = link_.cancel(id);
    trace_.push_back({'c', sim_.now(), static_cast<std::int64_t>(id), cancelled, 0});
  }

  Rng rng_;
  Simulator sim_;
  L link_;
  std::vector<Link::TransferId> ids_;
  Trace trace_;
  int self_cancels_ = 0;
  int slot_reuses_ = 0;
};

TEST(LinkOrder, DeliveriesMatchThePerQuantumSort) {
  for (Link::Sharing sharing : {Link::Sharing::kFifo, Link::Sharing::kFairShare}) {
    int self_cancels = 0, slot_reuses = 0;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      LinkScript<Link> ordered(seed, sharing);
      LinkScript<SortedLink> sorted(seed, sharing);
      const auto got = ordered.run();
      const auto want = sorted.run();
      ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
      for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], want[i]) << "seed " << seed << ", trace entry " << i;
      self_cancels += ordered.self_cancels();
      slot_reuses += ordered.slot_reuses();
    }
    EXPECT_GT(self_cancels, 50);
    EXPECT_GT(slot_reuses, 50);
  }
}

TEST(LinkOrder, StartAfterCancelAndSlotReuseTakesItsPriorityPlace) {
  // X and A (priority 1) and Y (priority 0) are mid-flight when A is
  // cancelled and C (priority 3) takes A's freed slot. With no latency, C
  // starts before the next quantum drops A's entry, so that entry must
  // still sort as priority 1, not as the priority its reused slot now
  // holds: C is served ahead of everything.
  Simulator sim;
  Link link(sim, fifo_params(100'000));  // 500 B per quantum, no latency
  Bytes x_bytes_while_c_runs = 0;
  TimeMs c_started = -1, c_done = -1;
  link.submit(100'000, [&](Bytes b, bool) {
    if (c_started >= 0 && c_done < 0) x_bytes_while_c_runs += b;
  }, 1);
  const Link::TransferId a = link.submit(100'000, [](Bytes, bool) {}, 1);
  link.submit(100'000, [](Bytes, bool) {}, 0);
  sim.schedule_at(51, [&] {
    ASSERT_TRUE(link.cancel(a));
    const Link::TransferId c = link.submit(5'000, [&](Bytes, bool complete) {
      if (c_started < 0) c_started = sim.now();
      if (complete) c_done = sim.now();
    }, 3);
    EXPECT_EQ(c & 0xffffffffu, a & 0xffffffffu);  // the freed slot
  });
  sim.run_until(400);
  EXPECT_EQ(c_started, 55);
  EXPECT_EQ(c_done, 100);  // 5,000 B in ten 500 B quanta, nothing shared
  EXPECT_EQ(x_bytes_while_c_runs, 0);
}

}  // namespace
}  // namespace mfhttp
