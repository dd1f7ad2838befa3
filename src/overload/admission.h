// Admission control for the multi-session serving path (ISSUE 3, tentpole).
//
// The AdmissionController sits at the front of MitmProxy::fetch and decides,
// per request, one of three verdicts:
//
//   kAdmit  — process normally (subject to the upstream concurrency cap,
//             which parks overflow in a bounded priority dispatch queue);
//   kReject — bounced by a rate limiter or a full queue (HTTP 429): the
//             client may retry later;
//   kShed   — deliberately dropped by priority-aware load shedding under
//             brownout (HTTP 503): the system is protecting higher-priority
//             work and retrying now will not help.
//
// Rate limiting combines a global token bucket with per-session buckets
// (lazily created, same parameters, seed-derived jitterless refill) so a
// single hot session cannot starve its neighbours. Per-session state is
// bounded by the live sessions: every kPruneEvery requests the buckets that
// are full again are dropped (a full bucket answers exactly like a fresh
// one), and a session's deferral count goes when it reaches zero. Shedding is ordered by
// the request's InterceptDecision-style priority: speculative work dies
// first, then transient, then viewport-critical; structural requests are
// never shed — a page that loads nothing is worse than a slow page.
//
// All decisions are functions of (simulated time, seeded RNG state, request
// stream), so the same seed and arrival trace produce the same admit trace.
//
// Threading contract (DESIGN.md §12): an AdmissionController is
// *externally synchronized* — deliberately unlocked, because it belongs to
// exactly one discrete-event world and every call arrives from that world's
// single event loop. The parallel scale engine (sim/session_world.h) keeps
// this sound by sharing nothing: each worker thread owns whole worlds, so
// no controller is ever visible to two threads. Do NOT share one instance
// across concurrently-running simulations; give each world its own.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "overload/token_bucket.h"
#include "util/rng.h"
#include "util/types.h"

namespace mfhttp::overload {

// Request priority classes, aligned with BlockListController's intercept
// priorities (web/blocklist_controller.h) and extended downward with the
// speculative class for prefetch/readahead work.
inline constexpr int kPrioritySpeculative = 0;  // prefetch; first to shed
inline constexpr int kPriorityTransient = 1;    // below-fold media
inline constexpr int kPriorityViewport = 2;     // visible content
inline constexpr int kPriorityStructure = 3;    // HTML/CSS; never shed

// Brownout severity ladder driven by the BrownoutSupervisor (brownout.h).
// Each level subsumes the previous one's restrictions.
enum class BrownoutLevel {
  kNormal = 0,        // full service
  kNoSpeculation = 1, // shed speculative requests, stop prefetch
  kLowResOnly = 2,    // additionally shed transient work, rewrite to low-res
  kShed = 3,          // additionally shed viewport work; structure only
};

struct AdmissionParams {
  // Global token bucket; <= 0 disables (bounded-only arm).
  double global_rate_per_s = 0;
  double global_burst = 0;
  // Per-session buckets, lazily created per session id; <= 0 disables.
  double session_rate_per_s = 0;
  double session_burst = 0;

  // Concurrent requests the proxy may have in service — from upstream
  // dispatch until the client-side stream finishes; overflow parks in the
  // dispatch queue. <= 0 means unlimited.
  int max_inflight_upstream = 0;
  // Bound on the dispatch queue of admitted-but-waiting requests; overflow
  // is rejected. <= 0 means unbounded.
  int max_dispatch_queue = 0;

  // Bounds on the proxy's deferred (scroll-gated) queue; overflow rejected.
  // <= 0 means unbounded.
  int max_deferred_per_session = 0;
  int max_deferred_global = 0;

  // When the global bucket drops below guard * burst, requests below the
  // guarded priority are rejected even though tokens remain — reserving the
  // tail of the bucket for critical work. Jitter widens each threshold by a
  // seeded ±band so the cutoff is not a hard cliff across sessions.
  double speculative_guard = 0.5;  // speculative needs > 50% bucket left
  double transient_guard = 0.25;   // transient needs > 25% bucket left
  double guard_jitter = 0.05;

  // Prefetch headroom: speculative warm-ups are allowed only while inflight
  // upstream work sits below this fraction of max_inflight_upstream, so
  // prefetch never competes with on-demand traffic for the last slots.
  double prefetch_headroom_fraction = 0.75;

  std::uint64_t seed = 1;
};

// Slice one box's admission budget across `shards` front-door workers
// (http/frontdoor.h): rates, bursts, the concurrency cap, and the global
// queue bounds divide evenly (integer bounds round up, never to zero, so a
// tiny budget still admits work on every shard); per-session parameters are
// untouched because a session lives entirely on one shard; the seed is
// remixed per shard so guard-band jitter decorrelates across workers.
// shards == 1 returns `params` byte-identical — the single-shard front door
// must reproduce the unsharded box exactly.
AdmissionParams shard_slice(const AdmissionParams& params, std::size_t shard,
                            std::size_t shards);

// Failover re-slice (ISSUE 7): the box budget spread over the `healthy`
// survivors of an `shards`-way front door, so a wedged shard's admission
// slice is re-distributed instead of stranded. Identical to shard_slice
// except rates and bounds divide by `healthy`; the seed remix stays keyed
// to the shard's ORIGINAL index, so a re-slice never teleports a worker's
// guard-jitter stream mid-run. healthy == shards degenerates to
// shard_slice (and shards == 1 to the byte-identical passthrough).
AdmissionParams failover_slice(const AdmissionParams& params, std::size_t shard,
                               std::size_t shards, std::size_t healthy);

enum class Verdict { kAdmit, kReject, kShed };

struct Decision {
  Verdict verdict = Verdict::kAdmit;
  // Which mechanism produced a non-admit verdict (for logs/metrics):
  // "global_rate", "session_rate", "priority_guard", "brownout",
  // "deferred_full", "dispatch_full".
  const char* reason = "";

  bool admitted() const { return verdict == Verdict::kAdmit; }
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionParams params = {});

  // on_request calls between two sweeps for full per-session buckets.
  static constexpr std::uint64_t kPruneEvery = 1024;

  // Front-door decision for a request from `session` at priority `priority`.
  Decision on_request(std::string_view session, int priority, TimeMs now_ms);

  // Deferred-queue accounting (MitmProxy defer path). try_defer returns
  // false when either the per-session or the global bound is full; the
  // proxy then rejects instead of parking. on_undefer is called when a
  // deferred request is released, failed, or aborted.
  bool try_defer(std::string_view session);
  void on_undefer(std::string_view session);

  // Upstream concurrency slots. try_acquire_upstream returns false when all
  // slots are busy (caller queues in its dispatch queue). has_dispatch_room
  // checks the dispatch-queue bound for a queue currently `depth` deep.
  bool try_acquire_upstream();
  void release_upstream();
  bool has_dispatch_room(int depth) const;

  // Non-consuming headroom probe for speculative warm-ups (prefetch). True
  // only when the system has slack to burn on work nobody asked for yet:
  // brownout is kNormal (any brownout level implies kNoSpeculation), inflight
  // upstream work is below prefetch_headroom_fraction of the concurrency cap,
  // and the global bucket sits above the speculative guard. Never takes a
  // token — a prefetch that later turns into a cache hit must not have
  // charged the rate limiter for traffic that never reached the front door.
  bool allow_prefetch(TimeMs now_ms);

  // Brownout coupling: the supervisor pushes its level here; on_request
  // sheds every priority the level condemns.
  void set_brownout_level(BrownoutLevel level) { brownout_ = level; }
  BrownoutLevel brownout_level() const { return brownout_; }

  // Swap in a new global budget mid-run (front-door failover re-slice,
  // DESIGN.md §14): replaces the global bucket parameters, inflight cap and
  // dispatch bound with `sliced`'s, leaving per-session buckets, deferred
  // queues and in-flight accounting untouched. The global bucket restarts
  // full at the new burst — a re-sliced shard begins its new budget with
  // clean headroom rather than inheriting debt priced under the old rate.
  // Same threading contract as everything else here: callers serialize.
  void apply_budget(const AdmissionParams& sliced);

  int inflight_upstream() const { return inflight_upstream_; }
  // Per-session token buckets currently held (none while per-session
  // limiting is disabled).
  std::size_t session_bucket_count() const { return session_buckets_.size(); }
  // Sessions with at least one deferred request.
  std::size_t deferred_session_count() const { return deferred_by_session_.size(); }
  int deferred_total() const { return deferred_total_; }
  const AdmissionParams& params() const { return params_; }

 private:
  TokenBucket& session_bucket(std::string_view session);
  // Drop the per-session buckets that are full at `now_ms`.
  void prune_full_buckets(TimeMs now_ms);

  AdmissionParams params_;
  Rng rng_;
  TokenBucket global_bucket_;
  std::map<std::string, TokenBucket, std::less<>> session_buckets_;
  std::map<std::string, int, std::less<>> deferred_by_session_;
  std::uint64_t requests_ = 0;
  int deferred_total_ = 0;
  int inflight_upstream_ = 0;
  BrownoutLevel brownout_ = BrownoutLevel::kNormal;
};

}  // namespace mfhttp::overload
