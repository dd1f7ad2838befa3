// Sharded million-session front door (ISSUE 6 tentpole, DESIGN.md §13).
//
// PR 5 made the *simulation* side scale (shared-nothing session worlds on a
// work-stealing runner); the serving path itself — MitmProxy + shared
// HttpCache + AdmissionController — was still one box behind coarse locks.
// This front door shards that box across per-core workers:
//
//   * routing     — a session lands on shard splitmix64(id) % N, a pure
//                   function of (session, N): stable across runs, machines,
//                   and restarts, so per-session state never migrates;
//   * dispatch    — each shard owns one bounded lock-free MPSC queue
//                   (util/mpsc_queue.h). Producers (session/touch event
//                   sources) push; the shard's worker thread is the queue's
//                   single consumer. A full queue back-pressures the
//                   producer (spin-yield), never drops silently;
//   * serving     — each shard owns a full pipeline built through
//                   FetchPipelineBuilder exactly like the single box:
//                   SimHttpOrigin -> MitmProxy with a per-shard HttpCache
//                   *segment* (1/N capacity, TinyLFU admission against the
//                   SHARED CacheGhosts so cross-shard popularity history
//                   survives) and a per-shard AdmissionController holding
//                   1/N of the box's token/queue budget
//                   (overload::shard_slice);
//   * metrics     — shard workers count locally through obs::BatchedCounter
//                   and flush in batches, so the process metrics snapshot
//                   stays ONE JSON document with no per-event atomic
//                   traffic on the hot path.
//
// Determinism contract: the per-session outcome stream is a function of the
// order a shard consumes events in. With the single in-order producer the
// benches use, every shard consumes its sessions' events in global
// timestamp order — and shards=1 consumes the IDENTICAL total order the
// unsharded inline path serves, making run_front_door(p, kThreaded) with
// one shard byte-identical (deterministic_json) to run_front_door(p,
// kInline). That N=1 gate is what lets every existing single-box bench and
// test keep its meaning unchanged. At N>1 the routing table, event/request
// totals, and each shard's consumption order stay exact, but the SHARED
// ghost list is bumped by all workers concurrently: its decay epochs land
// on interleaving-dependent op counts, so cache admission — and with it
// hit ratios and fingerprints — may wobble slightly between repeat runs.
// That is the price of cross-shard popularity history; gates on N>1 rows
// compare ratios within tolerance, never bytes.
//
// Lock/thread order (extends DESIGN.md §12): a shard worker owns its
// Simulator, proxy, and admission controller outright (externally
// synchronized, never shared). The only cross-shard objects are the MPSC
// queues (lock-free), the shared CacheGhosts (leaf mutex below the cache's,
// see http/cache.h), the obs registry (leaf), and the per-session stats
// slots — which are partitioned by routing, each slot written by exactly
// one worker and read only after join.
//
// ISSUE 7 layers self-healing on top (DESIGN.md §14): per-shard heartbeats
// watched by a FrontDoorSupervisor (healthy → slow → wedged with
// hysteresis), rendezvous-hash failover of NEW sessions off wedged shards
// (in-flight sessions never migrate — the determinism contract survives),
// deadline-aware enqueue and serve (stale events shed with an explicit 503
// verdict instead of blocking the producer or serving dead air), admission
// budget re-distribution over the healthy cohort, and seeded chaos faults
// (fault::ShardFault) that stall, crash, or slow individual shard workers.
// With supervision enabled but no faults firing, nothing sheds and nothing
// fails over: the shards=1 kInline/kThreaded byte-identity gate holds
// unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "http/cache.h"
#include "http/frontdoor_supervisor.h"
#include "http/object_store.h"
#include "http/proxy.h"
#include "http/resilient_fetcher.h"
#include "http/url_table.h"
#include "overload/admission.h"
#include "sim/frontdoor_load.h"
#include "util/rng.h"
#include "util/types.h"

namespace mfhttp {

// Stable session -> shard routing. Pure, total, and platform-independent.
inline std::size_t shard_of(std::uint64_t session, std::size_t shards) {
  return shards <= 1 ? 0 : static_cast<std::size_t>(splitmix64(session) %
                                                    static_cast<std::uint64_t>(shards));
}

// FNV-1a over the whole routing table — the cheap witness the TSan smoke
// compares across recomputations to assert routing is deterministic.
std::uint64_t routing_fingerprint(std::size_t sessions, std::size_t shards);

// Failover routing: rendezvous (highest-random-weight) hash over the
// healthy set. Every caller computes the same substitute shard from
// (session, shards, mask) alone — no coordination, no routing table to
// replicate — and when a shard recovers, only sessions first seen during
// its outage stay re-routed; everything else keeps its shard_of home.
// Falls back to shard_of when the mask is empty (nothing to fail over to).
std::size_t failover_shard_of(std::uint64_t session, std::size_t shards,
                              std::uint64_t healthy_mask);

struct FrontDoorParams {
  std::size_t shards = 1;
  sim::FrontDoorLoadConfig load;

  // Whole-box budgets, divided across shards at build time.
  Bytes cache_capacity_total = 8 * 1024 * 1024;
  TimeMs cache_ttl_ms = 0;  // 0: immortal entries (working-set study)
  overload::AdmissionParams admission;  // sliced via overload::shard_slice

  // Shard egress/ingress link shape (per shard = total / shards).
  BytesPerSec client_bytes_per_s_total = 400'000'000;
  BytesPerSec server_bytes_per_s_total = 800'000'000;
  TimeMs client_latency_ms = 2;
  TimeMs server_latency_ms = 1;
  TimeMs origin_delay_ms = 5;

  std::size_t queue_capacity = 8192;     // per-shard MPSC bound
  std::uint64_t counter_flush_batch = 1024;  // obs::BatchedCounter batch

  // ---- Self-healing (ISSUE 7, DESIGN.md §14) -------------------------
  // Shard health supervision + failover. Only the kThreaded path runs a
  // watchdog (kInline has no workers to watch); the flag still echoes into
  // the result so both modes emit identical deterministic_json bytes.
  SupervisorParams supervisor;
  // Per-event freshness budget from the touch's enqueue stamp. The
  // producer's bounded push sheds once the deadline passes instead of
  // spinning, and a worker sheds a dequeued event that is already past it
  // (a scrolled-away viewport is not worth serving). 0 = no deadline: the
  // legacy block-forever producer, now with its wait time counted.
  TimeMs enqueue_deadline_ms = 0;
  // Per-shard retry/breaker stack (PR-2 ResilientFetcher) inside each
  // shard's pipeline; per-shard breaker state surfaces in the report.
  std::optional<ResilientFetcherParams> resilience;
  // Chaos plan: pipeline faults (link/transfer/origin) decorate each
  // shard's stack with per-shard remixed seeds; frontdoor shard faults
  // (fault::ShardFault) stall/crash/slow the workers themselves.
  std::optional<fault::FaultPlan> fault_plan;

  // Fill `admission` with budgets scaled to the configured load: the token
  // rate is provisioned at 50% of the expected gross request rate (fresh
  // cache hits bypass admission, so tokens only meet the miss stream) plus
  // a 25% burst allowance, so a saturating sweep sheds the overflow instead
  // of queueing it forever.
  void apply_scaled_admission();
};

enum class FrontDoorMode {
  kInline,    // the historical single-box path: caller thread, no queues
  kThreaded,  // producer -> per-shard MPSC queues -> shard worker threads
};

// Per-session outcome slot. Padded to a cache line: neighbouring sessions
// usually route to different shards, and two workers must never share a
// line. fingerprint folds (status, delivered bytes, completion time,
// verdict) of every one of the session's requests in completion order.
struct alignas(64) FrontDoorSessionStats {
  std::uint32_t requests = 0;
  std::uint32_t completed = 0;
  std::uint32_t rejected = 0;   // admission bounce or shed (429/503)
  std::uint32_t failed = 0;     // non-2xx, non-rejected
  std::uint64_t bytes_to_client = 0;
  std::uint64_t fingerprint = 1469598103934665603ULL;  // FNV-1a offset
};

struct FrontDoorShardReport {
  std::size_t shard = 0;
  std::size_t sessions = 0;     // sessions routed here
  std::size_t events = 0;       // touch events consumed
  std::size_t requests = 0;
  std::size_t max_queue_depth = 0;  // producer-side high-water mark
  MitmProxy::Stats proxy;
  HttpCache::Stats cache;

  // §14 self-healing fields. worker_sheds counts events this shard drained
  // as 503s (crashed worker, or already past their serve deadline);
  // `breaker` is the shard's per-origin circuit-breaker state ("off" when
  // resilience is not configured). Supervision outcome fields are filled
  // from the supervisor after join and are all zero in healthy runs.
  std::size_t worker_sheds = 0;
  std::string breaker = "off";
  ShardHealth final_health = ShardHealth::kHealthy;
  std::uint64_t wedged_spells = 0;
  double time_to_detect_ms = 0;   // wall; excluded from deterministic_json
  double time_to_recover_ms = 0;  // wall; excluded from deterministic_json
};

struct FrontDoorResult {
  std::size_t shards = 0;
  bool threaded = false;
  sim::FrontDoorLoadConfig load;

  // Deterministic aggregates (merged in session-id / shard-index order).
  std::size_t events = 0;
  std::size_t requests = 0;
  std::size_t completed = 0;
  std::size_t rejected = 0;  // admission 429 + brownout/queue 503
  std::size_t failed = 0;
  std::size_t cache_hits = 0;
  Bytes bytes_to_client = 0;
  Bytes upstream_bytes_saved = 0;
  double cache_hit_ratio = 0;  // cache_hits / requests
  double shed_rate = 0;        // rejected / requests
  std::uint64_t fingerprint = 0;          // fold of per-session fingerprints
  std::uint64_t routing_fp = 0;           // routing_fingerprint(sessions, shards)
  std::vector<FrontDoorShardReport> per_shard;

  // §14 self-healing aggregates. All zero when no fault fires, which keeps
  // them safe to include in deterministic_json(): the byte-identity gate
  // only ever compares fault-free runs. `shed_events` counts whole touch
  // events shed (producer deadline/wedged sheds + worker drains); their
  // requests are already inside `rejected`.
  bool supervised = false;
  std::size_t failover_sessions = 0;  // sessions re-routed off wedged shards
  std::size_t shed_events = 0;
  std::size_t deadline_shed_events = 0;  // subset of shed_events

  // Wall-clock measurements — excluded from deterministic_json().
  double wall_ms = 0;
  double sessions_per_sec = 0;  // load.sessions / wall seconds
  double events_per_sec = 0;
  double p50_touch_to_policy_us = 0;  // enqueue -> policy verdict issued
  double p99_touch_to_policy_us = 0;
  std::uint64_t wedged_declared = 0;  // supervisor wedged declarations
  double first_detect_ms = 0;   // earliest shard time-to-detect (0: none)
  double first_recover_ms = 0;  // earliest shard time-to-recover (0: none)

  // One JSON document over config + every deterministic field above. The
  // byte-comparable artifact: kInline and kThreaded with shards=1 must
  // produce the same bytes.
  std::string deterministic_json() const;
};

// Everything a run serves that is a pure function of the load config,
// built once and served by any number of runs (DESIGN.md §26). Runs only
// read it, so threaded runs may share it; each run keeps its own caches,
// ghost counts, admission and links, so serving a load twice gives the same
// document as building it twice.
struct FrontDoorLoad {
  sim::FrontDoorLoadConfig config;
  // Object i at path /obj/i, sized by sim::frontdoor_object_bytes.
  ObjectStore store;
  // http://origin.example/obj/i interned as UrlId i, then frozen, so shard
  // workers read it without a lock and agree on every id in the ghost list.
  // Held by pointer so that a run, which sees the load as const, can lend
  // it to its CacheGhosts: a frozen table is read-only, intern() included.
  std::unique_ptr<UrlTable> urls;
  // sim::generate_frontdoor_load(config).
  std::vector<sim::TouchEvent> timeline;
};

FrontDoorLoad build_front_door_load(const sim::FrontDoorLoadConfig& config);

// Serve `load` through an N-shard front door; params.load must equal
// load.config. kThreaded spawns params.shards worker threads plus uses the
// calling thread as the single in-order producer; kInline serves every
// event on the calling thread in the same global order (the unsharded
// reference path when shards == 1).
FrontDoorResult run_front_door(const FrontDoorLoad& load,
                               const FrontDoorParams& params,
                               FrontDoorMode mode);

// Build params.load, then serve it once.
FrontDoorResult run_front_door(const FrontDoorParams& params,
                               FrontDoorMode mode);

}  // namespace mfhttp
