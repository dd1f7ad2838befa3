// Heap-allocation accounting for the simulated data plane.
//
// The allocation-free contract (DESIGN.md §18): once warm, the Simulator
// schedules and fires events, and a Link dispenses a quantum to transfers
// already in flight, without touching the heap — as long as the callbacks
// fit std::function's small buffer. These tests enforce that with a
// counting global operator new.
//
// The counter is a plain relaxed atomic: the tests run single-threaded and
// only need exact counts between an AllocGuard's construction and delta().

#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "net/link.h"
#include "sim/simulator.h"

namespace {

std::atomic<std::size_t> g_allocs{0};

std::size_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mfhttp {
namespace {

class AllocGuard {
 public:
  AllocGuard() : start_(alloc_count()) {}
  std::size_t delta() const { return alloc_count() - start_; }

 private:
  std::size_t start_;
};

// Long-lived transfers on a 100 KB/s link (500 B per 5 ms quantum), each
// with a one-pointer capture; returns the number of progress calls made
// during a measured window of `quanta` quanta after a warm-up.
struct SteadyLink {
  static constexpr int kTransfers = 3;
  static constexpr Bytes kSize = 10'000'000;  // never finishes in the test

  explicit SteadyLink(Link::Sharing sharing) : link(sim, params(sharing)) {
    for (int i = 0; i < kTransfers; ++i)
      link.submit(kSize, [this](Bytes chunk, bool) {
        ++calls;
        bytes += chunk;
      });
  }

  static Link::Params params(Link::Sharing sharing) {
    Link::Params p;
    p.bandwidth = BandwidthTrace::constant(100'000);
    p.latency_ms = 5;
    p.quantum_ms = 5;
    p.sharing = sharing;
    return p;
  }

  Simulator sim;
  Link link;
  long calls = 0;
  Bytes bytes = 0;
};

TEST(SimAlloc, FifoLinkQuantumIsAllocationFree) {
  SteadyLink s(Link::Sharing::kFifo);
  s.sim.run_until(200);  // warm-up: scratch vectors and slab reach capacity
  const long calls_before = s.calls;
  const Bytes bytes_before = s.bytes;
  AllocGuard guard;
  s.sim.run_until(1200);  // 200 quanta
  EXPECT_EQ(guard.delta(), 0u);
  EXPECT_EQ(s.calls - calls_before, 200);
  EXPECT_EQ(s.bytes - bytes_before, 100'000);
  EXPECT_EQ(s.link.active_transfers(), 3u);
}

TEST(SimAlloc, MultiRoundFairShareQuantumIsAllocationFree) {
  SteadyLink s(Link::Sharing::kFairShare);
  s.sim.run_until(200);
  const long calls_before = s.calls;
  const Bytes bytes_before = s.bytes;
  AllocGuard guard;
  s.sim.run_until(1200);
  EXPECT_EQ(guard.delta(), 0u);
  // 500 B split three ways leaves 2 B for a second water-filling round,
  // so each quantum makes more calls than there are transfers.
  EXPECT_GT(s.calls - calls_before, 200 * SteadyLink::kTransfers);
  EXPECT_EQ(s.bytes - bytes_before, 100'000);
  EXPECT_EQ(s.link.active_transfers(), 3u);
}

TEST(SimAlloc, ScheduleAndStepAreAllocationFree) {
  Simulator sim;
  int fired = 0;
  auto round = [&] {
    // One live event, one cancelled: the stale heap entry is popped by step().
    auto doomed = sim.schedule_after(1, [&fired] { fired += 1000; });
    sim.schedule_after(1, [&fired] { ++fired; });
    EXPECT_TRUE(sim.cancel(doomed));
    EXPECT_TRUE(sim.step());
  };
  for (int i = 0; i < 16; ++i) round();  // warm-up
  fired = 0;
  AllocGuard guard;
  for (int i = 0; i < 1000; ++i) round();
  EXPECT_EQ(guard.delta(), 0u);
  EXPECT_EQ(fired, 1000);
  EXPECT_EQ(sim.pending_count(), 0u);
}

}  // namespace
}  // namespace mfhttp
