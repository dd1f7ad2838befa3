// Rate-limited byte pipe on the discrete-event simulator — the simulated
// WLAN/cellular hop between device, middleware proxy, and origin servers.
//
// Transfers submitted to a link share its BandwidthTrace capacity under one
// of two disciplines:
//   * kFifo      — the highest-priority transfer gets all capacity, ties
//                  broken by submission order (priority 0 for everything
//                  reduces to the in-order scheduling Eq. 13 assumes),
//   * kFairShare — active transfers split each quantum evenly (what N
//                  parallel TCP connections through mitmproxy approximate).
//
// Capacity is dispensed in fixed quanta (default 5 ms) while any transfer is
// active; the link is fully idle (no events) otherwise. Each transfer gets
// streaming progress callbacks, so HTTP response bodies arrive incrementally
// just as they would on a socket.
//
// Started transfers are kept in serving order (priority descending, then
// submission order) as they start, so a quantum walks them without sorting:
// every transfer on a link waits the same latency, so transfers start in
// submission order and each new one goes at the tail of its priority class.
// DESIGN.md §23.1.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/bandwidth_trace.h"
#include "sim/simulator.h"
#include "util/slab.h"
#include "util/types.h"

namespace mfhttp {

class Link {
 public:
  enum class Sharing { kFifo, kFairShare };

  struct Params {
    BandwidthTrace bandwidth = BandwidthTrace::constant(1e6);
    TimeMs latency_ms = 5;   // one-way propagation delay before first byte
    TimeMs quantum_ms = 5;   // capacity dispensing granularity
    Sharing sharing = Sharing::kFifo;
    bool record_consumption = false;  // keep a per-quantum throughput log
  };

  using TransferId = std::uint64_t;
  static constexpr TransferId kInvalidTransfer = 0;

  // delivered_now: bytes newly delivered; complete: true on the final call.
  using ProgressFn = std::function<void(Bytes delivered_now, bool complete)>;

  Link(Simulator& sim, Params params);
  virtual ~Link();

  // Begin transferring `size` bytes. Progress callbacks start after the
  // link's latency. A zero-size transfer completes after latency alone.
  // Higher `priority` preempts lower in kFifo mode (bytes in flight are not
  // clawed back; preemption applies from the next quantum).
  //
  // Virtual so fault decorators (fault/faulty_link.h) can interpose without
  // touching this happy path.
  //
  // Each transfer keeps exactly one callable for its lifetime: every chunk,
  // non-final and final, is delivered to that same object (never to a
  // copy), so a stateful functor observes every delivery of its transfer.
  // Progress callbacks may re-enter the link: submitting new transfers, or
  // cancelling siblings or the transfer itself from inside a ProgressFn, is
  // safe, and a transfer cancelled that way receives no further callbacks
  // (including deliveries already earned in the same quantum). Driving the
  // simulator from inside a ProgressFn is not supported. DESIGN.md §18.
  virtual TransferId submit(Bytes size, ProgressFn on_progress, int priority = 0);

  // Abort a transfer; no further callbacks. False if unknown/finished.
  virtual bool cancel(TransferId id);

  // Room for `transfers` transfers over the link's life (one per response
  // a page load sends, say): submitting and serving up to that many grows
  // none of the link's tables.
  void reserve(std::size_t transfers);

  std::size_t active_transfers() const { return transfers_.size(); }
  Bytes bytes_delivered_total() const { return delivered_total_; }

  // Per-quantum delivery log (time_ms at quantum start, bytes delivered in
  // that quantum); empty unless record_consumption was set.
  const std::vector<std::pair<TimeMs, Bytes>>& consumption_log() const {
    return consumption_log_;
  }

  const BandwidthTrace& bandwidth() const { return params_.bandwidth; }

 private:
  struct Transfer {
    Bytes remaining = 0;
    ProgressFn on_progress;
    int priority = 0;       // higher is served first (kFifo)
    bool started = false;   // latency elapsed, eligible for bandwidth

    void reset() { *this = Transfer{}; }
  };
  static constexpr std::uint32_t kNotFinished = 0xffffffffu;
  // A started transfer's place in serving order. The priority is a copy, so
  // an entry whose transfer was cancelled — dropped at the next quantum —
  // keeps its place even after the slot is reused.
  struct Serving {
    TransferId id;
    Transfer* t;
    int priority;
    std::uint32_t finished;  // index into finished_ this quantum
  };
  // One chunk earned in a quantum by active_[at].
  struct Delivery {
    std::uint32_t at;
    Bytes bytes;
    bool complete;
  };
  // A transfer that finished this quantum, with its callable moved out.
  struct Finished {
    TransferId id;
    ProgressFn fn;
  };

  void start(TransferId id);
  void arm_tick();
  void tick();
  static void note_transfers_completed(std::size_t n);

  Simulator& sim_;
  Params params_;
  Slab<Transfer> transfers_;
  std::size_t started_ = 0;  // live transfers past their latency
  Simulator::EventId tick_event_ = Simulator::kInvalidEvent;
  // Fractional bytes carried between quanta so low rates are not rounded away.
  double carry_bytes_ = 0;
  Bytes delivered_total_ = 0;
  std::vector<std::pair<TimeMs, Bytes>> consumption_log_;
  // Started transfers in serving order, plus entries of transfers finished
  // or cancelled since the last quantum, which the next quantum drops.
  std::vector<Serving> active_;
  // Per-quantum scratch, cleared and refilled by tick(); kept as members so
  // a steady-state quantum reuses their capacity instead of allocating.
  std::vector<std::uint32_t> wanting_, still_;  // indices into active_
  std::vector<Delivery> deliveries_;
  std::vector<Finished> finished_;
};

}  // namespace mfhttp
