// Cache/prefetch matrix (ISSUE 4 tentpole driver): N sessions × bandwidth
// trace × {no-cache, cache, cache+prefetch} over the identical seeded
// workload (prefetch/cache_experiment.h). Reports the paper-style triple —
// viewport load time (P50/exact P99), on-deadline goodput, bytes-on-link —
// plus the cache and speculation accounting (hits, revalidations, prefetch
// issued/denied/useful, and prefetch-wasted bytes: the cost of acting on
// wrong scroll predictions).
//
// The acceptance gate this binary demonstrates: at >=16 sessions on at
// least one trace, the cache+prefetch arm must *strictly* beat no-cache on
// both P99 viewport load time and total bytes-on-link. The final VERDICT
// lines print that comparison per trace, and the binary exits 1 unless some
// trace passes. Tier-1 ctest runs `--smoke` (cache_matrix_smoke).
//
// Flags (cli/standard_options.h plus locals):
//   --smoke            one 16-session sweep only (CI-sized)
//   --scenario <p>     a spec whose "cache" section overrides cache sizing /
//                      prefetch budget
//   --metrics-json <p> obs registry snapshot at exit
#include <cstdio>
#include <string>
#include <vector>

#include "cli/standard_options.h"
#include "net/bandwidth_trace.h"
#include "prefetch/cache_experiment.h"
#include "util/rng.h"

namespace {

using namespace mfhttp;
using namespace mfhttp::prefetch;

struct TraceSpec {
  std::string name;
  BandwidthTrace bandwidth;
};

std::vector<TraceSpec> make_traces() {
  std::vector<TraceSpec> traces;
  traces.push_back({"steady", BandwidthTrace::constant(1'500'000)});
  // LTE-like walk: per-session downlink wobbling around 1.2 MB/s. Seeded
  // here so every run (and every arm) sees the same trace.
  Rng rng(7);
  traces.push_back({"lte-walk", BandwidthTrace::random_walk(
                                    rng, 1'200'000, 300'000, 400'000,
                                    2'000'000, 40, 500)});
  return traces;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  mfhttp::cli::StandardOptions standard_options(
      argc, argv, [&](CliOptions& options) {
        options.add_flag("--smoke", "single 16-session sweep (CI-sized)", &smoke);
      });

  const std::vector<int> session_counts =
      smoke ? std::vector<int>{16} : std::vector<int>{8, 16, 32};
  const std::vector<TraceSpec> traces = make_traces();
  const CacheArm arms[] = {CacheArm::kNoCache, CacheArm::kCache,
                           CacheArm::kCachePrefetch};

  std::printf("=== Cache/prefetch matrix: sessions x trace x arm ===\n");
  std::printf("(shared origin hop is the contended resource; shared validating\n"
              " cache + prediction-driven warm-up relieve it — §4.2)\n\n");
  std::printf("%-10s %-9s %9s %9s %9s %10s %10s %9s %7s %7s %9s %11s\n", "trace",
              "arm", "sessions", "p50(ms)", "p99(ms)", "goodput/s", "MB-link",
              "hit-rate", "reval", "pf-iss", "pf-deny", "pf-wasteKB");

  bool any_trace_passes = false;
  for (const TraceSpec& trace : traces) {
    // The >=16-session no-cache / cache+prefetch pair the verdict compares.
    double nocache_p99 = 0, prefetch_p99 = 0;
    Bytes nocache_bytes = 0, prefetch_bytes = 0;
    bool have_pair = false;

    for (int sessions : session_counts) {
      for (CacheArm arm : arms) {
        CacheExperimentConfig config;
        config.sessions = sessions;
        config.arm = arm;
        config.trace_name = trace.name;
        config.client_bandwidth = trace.bandwidth;
        if (standard_options.has_cache_config())
          config.cache = standard_options.cache_config();

        const CacheExperimentResult r = run_cache_experiment(config);
        const double lookups =
            static_cast<double>(r.cache_hits + r.cache_misses);
        std::printf(
            "%-10s %-9s %9d %9.0f %9.0f %10.0f %10.2f %8.0f%% %7zu %7zu %9zu %11.1f\n",
            r.trace.c_str(), r.arm.c_str(), r.sessions, r.p50_load_ms,
            r.p99_load_ms, r.goodput_bytes_per_s,
            static_cast<double>(r.total_link_bytes) / 1e6,
            lookups > 0 ? 100.0 * static_cast<double>(r.cache_hits) / lookups
                        : 0.0,
            r.revalidations, r.prefetch_issued, r.prefetch_denied,
            static_cast<double>(r.prefetch_wasted_bytes) / 1e3);

        if (sessions >= 16 && !have_pair) {
          if (arm == CacheArm::kNoCache) {
            nocache_p99 = r.p99_load_ms;
            nocache_bytes = r.total_link_bytes;
          } else if (arm == CacheArm::kCachePrefetch) {
            prefetch_p99 = r.p99_load_ms;
            prefetch_bytes = r.total_link_bytes;
            have_pair = true;
          }
        }
      }
      std::printf("\n");
    }

    const bool passes = have_pair && prefetch_p99 < nocache_p99 &&
                        prefetch_bytes < nocache_bytes;
    any_trace_passes = any_trace_passes || passes;
    if (have_pair) {
      std::printf(
          "VERDICT %-10s cache+prefetch vs no-cache @16+: p99 %.0f -> %.0f ms, "
          "link %.2f -> %.2f MB  [%s]\n\n",
          trace.name.c_str(), nocache_p99, prefetch_p99,
          static_cast<double>(nocache_bytes) / 1e6,
          static_cast<double>(prefetch_bytes) / 1e6,
          passes ? "PASS" : "FAIL");
    }
  }

  if (!any_trace_passes) {
    std::fprintf(stderr,
                 "FAIL: no trace shows cache+prefetch strictly beating "
                 "no-cache on p99 AND bytes at >=16 sessions\n");
    return 1;
  }
  return 0;
}
