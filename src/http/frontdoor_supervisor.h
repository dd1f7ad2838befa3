// Shard health supervision for the self-healing front door (ISSUE 7
// tentpole, DESIGN.md §14).
//
// Each shard worker publishes a ShardHeartbeat: a monotonic progress
// counter bumped once per consumed event, a `busy` flag raised while the
// worker is inside process(), and a `serving` flag it lowers if it crashes.
// The FrontDoorSupervisor samples those heartbeats — from a watchdog thread
// during real runs, or directly via sample(now_ns) with a synthetic clock
// in tests — and classifies each shard:
//
//   healthy — progress moved since the last sample, or the shard is
//             genuinely idle (not busy, queue empty);
//   slow    — no progress for >= slow_after_ms while work is pending.
//             Informational: routing is untouched;
//   wedged  — no progress for >= wedged_after_ms, debounced through a
//             fault::DegradationState (enter_after consecutive breaching
//             samples to declare, exit_after progressing samples to
//             recover) so one scheduler hiccup never triggers failover.
//             A worker that lowered `serving` is force-declared wedged on
//             the next sample — a crashed worker knows it crashed, no
//             inference needed.
//
// Progress — not sim time — is the health signal on purpose: a healthy
// shard's discrete-event Simulator leaps through simulated milliseconds
// instantaneously, so "sim time stopped" cannot distinguish a wedged
// worker from one between events. The watchdog is sim-time *aware* the
// same way the PR-2 MitmProxy deferred-queue watchdog is: it watches for
// the world failing to advance at all, on the wall clock, with hysteresis.
//
// The healthy set is published as one atomic bitmask (+ epoch bumped on
// every change): the producer reads it with a single load per event, and
// an optional on_mask_change callback lets the front door re-distribute
// the wedged shard's admission budget (overload::failover_slice) through
// the shards' own control queues.
//
// Thread/lock order (extends DESIGN.md §12–13): sample() mutates only
// supervisor-private state plus the atomics above and must be serialized
// (the watchdog thread OR a test driver, never both — start() owns it).
// It reads heartbeats and queue depths lock-free and may call
// on_mask_change, which pushes into shard MPSC queues (lock-free, multi-
// producer safe) and touches the obs registry (leaf). It takes no mutex,
// so it can never deadlock against a wedged worker — the one property a
// watchdog must not lose.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fault/degradation.h"
#include "util/types.h"

namespace mfhttp::obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace mfhttp::obs

namespace mfhttp {

enum class ShardHealth { kHealthy, kSlow, kWedged };

struct SupervisorParams {
  bool enabled = false;   // master switch; off = PR-6 behavior exactly
  bool failover = true;   // re-route NEW sessions off wedged shards
  TimeMs check_interval_ms = 2;  // watchdog sampling period
  TimeMs slow_after_ms = 20;     // pending work + no progress => slow
  TimeMs wedged_after_ms = 60;   // no progress this long breaches wedged
  // Consecutive breaching samples to declare wedged / progressing samples
  // to recover (fault::DegradationState semantics).
  fault::DegradationParams hysteresis{2, 2};
};

// Published by a shard worker, read by the supervisor. One cache line per
// shard so heartbeat stores never contend with a neighbour's.
struct alignas(64) ShardHeartbeat {
  // Monotonic consumed-event count (served, shed, or control). The release
  // store pairs with the supervisor's acquire load.
  std::atomic<std::uint64_t> progress{0};
  std::atomic<bool> busy{false};     // worker is inside process()
  std::atomic<bool> serving{true};   // lowered once by a crashed worker
  // Wall stamp of the first chaos fault firing on this shard (0 = none);
  // lets the supervisor report time-to-detect against the true onset.
  std::atomic<std::uint64_t> fault_onset_ns{0};
};

class FrontDoorSupervisor {
 public:
  struct ShardStats {
    ShardHealth final_health = ShardHealth::kHealthy;
    std::uint64_t wedged_spells = 0;
    // First fault onset -> wedged declared (0 when never detected or no
    // recorded onset) and first wedged spell -> recovered (0 when the
    // shard never came back).
    double time_to_detect_ms = 0;
    double time_to_recover_ms = 0;
  };

  using DepthFn = std::function<std::size_t()>;
  using MaskChangeFn =
      std::function<void(std::uint64_t healthy_mask, std::size_t healthy)>;

  // At most 64 shards: the healthy set is one bitmask word.
  FrontDoorSupervisor(SupervisorParams params, std::size_t shards);
  ~FrontDoorSupervisor();

  FrontDoorSupervisor(const FrontDoorSupervisor&) = delete;
  FrontDoorSupervisor& operator=(const FrontDoorSupervisor&) = delete;

  // Wire shard `shard`'s heartbeat and (racy, gauge-grade) queue-depth
  // probe. Call for every shard before start()/sample().
  void attach(std::size_t shard, ShardHeartbeat* heartbeat, DepthFn depth);

  // Fired from within sample() on every healthy-mask change, after the
  // mask/epoch are published. Used for admission re-distribution.
  void set_on_mask_change(MaskChangeFn fn);

  // One classification pass at wall time `now_ns`. Transitions are a pure
  // function of the observation stream, which is what makes the state
  // machine unit-testable under a synthetic clock. Must be serialized;
  // never called concurrently with the watchdog thread.
  void sample(std::uint64_t now_ns);

  // Spawn / join the watchdog thread (samples every check_interval_ms of
  // real time). stop() is idempotent; the destructor calls it.
  void start();
  void stop();

  ShardHealth health(std::size_t shard) const;
  // Bit i set = shard i is NOT wedged. Starts all-healthy.
  std::uint64_t healthy_mask() const {
    return mask_.load(std::memory_order_acquire);
  }
  std::size_t healthy_count() const;
  // Bumped on every mask change; lets pollers detect churn cheaply.
  std::uint32_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  std::uint64_t wedged_declared_total() const { return wedged_total_; }
  std::uint64_t recovered_total() const { return recovered_total_; }
  // Per-shard outcome stats. Read after stop() (or between samples).
  ShardStats shard_stats(std::size_t shard) const;

 private:
  struct Tracked {
    Tracked(std::string name, fault::DegradationParams hysteresis)
        : wedge(std::move(name), hysteresis) {}

    ShardHeartbeat* heartbeat = nullptr;
    DepthFn depth;
    fault::DegradationState wedge;  // debounces the wedged classification
    std::uint64_t last_progress = 0;
    std::uint64_t last_change_ns = 0;  // 0 until the first sample
    std::uint64_t wedged_at_ns = 0;
    double detect_ms = 0;
    double recover_ms = 0;
    std::uint64_t spells = 0;
  };

  void declare_wedged(std::size_t shard, Tracked& t, std::uint64_t now_ns,
                      double stall_ms);
  void declare_recovered(std::size_t shard, Tracked& t, std::uint64_t now_ns);
  void publish_mask_change(std::uint64_t mask);

  SupervisorParams params_;
  std::vector<Tracked> tracked_;
  // Health is published per shard for lock-free readers; Tracked holds the
  // supervisor-private remainder.
  std::unique_ptr<std::atomic<std::uint8_t>[]> health_;
  std::atomic<std::uint64_t> mask_{0};
  std::atomic<std::uint32_t> epoch_{0};
  MaskChangeFn on_mask_change_;
  std::uint64_t wedged_total_ = 0;
  std::uint64_t recovered_total_ = 0;

  std::thread watchdog_;
  std::atomic<bool> stop_{false};
  bool running_ = false;

  obs::Counter* wedged_counter_;
  obs::Counter* recovered_counter_;
  obs::Gauge* healthy_gauge_;
  obs::Histogram* stall_histogram_;
};

}  // namespace mfhttp
