// Multi-session cache/prefetch experiment (ISSUE 4 tentpole, bench driver).
//
// N sessions browse a shared Zipf-popularity catalog through per-session
// MitmProxy instances that share one validating HttpCache, one admission
// controller, and one origin hop — the middleware-server deployment of
// §4.2, where "the screen scrolling tracker can access the related data on
// the cache of the middleware server". Arrivals are open-loop Poisson per
// session; every request is a viewport-class object with a load deadline.
//
// A prediction stream models the scroll tracker: each request is announced
// prediction_lead_ms before it fires, correctly with probability
// prediction_accuracy (a wrong announcement names a decoy object — the
// source of prefetch-wasted bytes). The kCachePrefetch arm feeds those
// announcements through the PrefetchPlanner into MitmProxy::prefetch.
//
// Three arms over the identical seeded trace:
//   kNoCache       — every request pays the full origin round trip,
//   kCache         — shared validating cache, no speculation,
//   kCachePrefetch — cache plus prediction-driven warm-up.
#pragma once

#include <cstdint>
#include <string>

#include "net/bandwidth_trace.h"
#include "prefetch/cache_config.h"
#include "util/types.h"

namespace mfhttp::prefetch {

enum class CacheArm { kNoCache, kCache, kCachePrefetch };

const char* to_string(CacheArm arm);

struct CacheExperimentConfig {
  int sessions = 16;
  double rate_per_session_per_s = 1.2;  // open-loop viewport requests
  TimeMs horizon_ms = 15'000;           // arrivals stop here; drain continues
  std::uint64_t seed = 1;

  // Shared catalog: catalog_size objects, Zipf(zipf_s) popularity, sizes
  // uniform in [min_object_bytes, max_object_bytes].
  int catalog_size = 48;
  double zipf_s = 0.9;
  Bytes min_object_bytes = 12'000;
  Bytes max_object_bytes = 60'000;

  TimeMs viewport_deadline_ms = 1'200;  // on-deadline goodput accounting

  // Prediction stream (kCachePrefetch arm only).
  TimeMs prediction_lead_ms = 600;
  double prediction_accuracy = 0.8;

  // Per-session client links share this trace shape; the origin hop is the
  // contended resource the cache relieves.
  std::string trace_name = "steady";
  BandwidthTrace client_bandwidth = BandwidthTrace::constant(1'500'000);
  TimeMs client_latency_ms = 10;
  BytesPerSec server_bytes_per_s = 700'000;
  TimeMs server_latency_ms = 5;
  TimeMs origin_delay_ms = 40;

  // Upstream concurrency cap shared by all sessions; prefetch headroom
  // gating (allow_prefetch) works against this.
  int max_inflight_upstream = 24;

  CacheConfig cache;  // cache + prefetch tuning (kNoCache ignores it)
  CacheArm arm = CacheArm::kCachePrefetch;

  CacheExperimentConfig();  // fills `cache` with driver-scaled defaults
};

struct CacheExperimentResult {
  std::string arm;
  std::string trace;
  int sessions = 0;

  std::size_t requests = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t on_time = 0;  // completed within viewport_deadline_ms

  double p50_load_ms = 0;  // viewport load time over completed requests
  double p99_load_ms = 0;
  Bytes on_time_bytes = 0;
  double goodput_bytes_per_s = 0;  // on_time_bytes / makespan
  TimeMs makespan_ms = 0;

  Bytes server_link_bytes = 0;  // origin-hop bytes (incl. prefetch traffic)
  Bytes client_link_bytes = 0;  // sum over per-session links
  Bytes total_link_bytes = 0;

  // Cache + prefetch accounting (zero in the kNoCache arm).
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t stale_served = 0;
  std::size_t revalidations = 0;
  std::size_t evictions = 0;
  std::size_t prefetch_issued = 0;
  std::size_t prefetch_denied = 0;
  std::size_t prefetch_useful = 0;
  Bytes prefetch_wasted_bytes = 0;  // evicted-unused plus still-unused warm-ups
};

CacheExperimentResult run_cache_experiment(const CacheExperimentConfig& config);

}  // namespace mfhttp::prefetch
