// Overload matrix — what admission control buys when many sessions share
// one middleware box (ISSUE 3 acceptance scenario).
//
// Sweeps session count x per-session arrival rate x protection arm over the
// identical seeded open-loop arrival trace:
//
//   none    — every request is served; the shared downlink degrades for
//             everyone and tail latency explodes,
//   bounded — bounded queues + the in-service concurrency cap (no rate
//             limiting, no brownout),
//   full    — token buckets, priority guards, concurrency caps, and the
//             brownout supervisor shedding speculative work first.
//
// Columns: goodput counts only bytes that arrived within their priority
// class's deadline (late bytes are waste, not goodput); P99 viewport is the
// exact 99th percentile load time of completed viewport-class requests;
// shed% is the fraction of requests explicitly bounced (429/503). The
// stranded column must read 0 in every arm: a request may complete or be
// rejected, but never hang forever. The binary exits 1 if any arm strands a
// request or a repeated run of one seed diverges; tier-1 ctest runs it as
// overload_matrix_smoke.
#include <cstdio>

#include "cli/standard_options.h"
#include "sim/multi_session.h"

namespace {

using namespace mfhttp;
using overload::MultiSessionConfig;
using overload::MultiSessionResult;
using overload::Protection;

// Prints one arm's row; false if the arm stranded a request.
bool row(const MultiSessionResult& r) {
  std::printf("%4d %6.1f %-8s %6zu %6zu %6zu %6zu %8zu %9.1f %9.0f %9.0f %6.1f%% %5d\n",
              r.sessions, r.rate_per_session_per_s, r.protection.c_str(),
              r.requests, r.completed, r.rejected + r.shed, r.failed, r.stranded,
              r.goodput_bytes_per_s / 1000.0, r.p50_viewport_ms, r.p99_viewport_ms,
              100.0 * r.shed_ratio, r.max_brownout_level);
  return r.stranded == 0;
}

}  // namespace

int main(int argc, char** argv) {
  mfhttp::cli::StandardOptions standard_options(argc, argv);

  std::printf("=== Overload matrix: N sessions, one proxy, shared downlink ===\n");
  std::printf("(open-loop Poisson arrivals; goodput counts on-deadline bytes only;\n"
              " bounce = rejected + shed; stranded must be 0 in every arm)\n\n");
  std::printf("%4s %6s %-8s %6s %6s %6s %6s %8s %9s %9s %9s %7s %5s\n", "sess",
              "rate/s", "arm", "reqs", "done", "bounce", "fail", "stranded",
              "goodKB/s", "p50vp ms", "p99vp ms", "shed%", "bmax");

  bool none_stranded = true;
  for (int sessions : {8, 32, 64}) {
    for (double rate : {1.5}) {
      for (Protection arm :
           {Protection::kNone, Protection::kBoundedOnly, Protection::kFull}) {
        MultiSessionConfig config;
        config.sessions = sessions;
        config.rate_per_session_per_s = rate;
        config.protection = arm;
        none_stranded &= row(run_multi_session(config));
      }
      std::printf("\n");
    }
  }

  // The saturation point the acceptance criterion names: 64 sessions at
  // double rate, an order of magnitude past the downlink.
  std::printf("--- deep overload: 64 sessions, 3.0 req/s each ---\n");
  for (Protection arm :
       {Protection::kNone, Protection::kBoundedOnly, Protection::kFull}) {
    MultiSessionConfig config;
    config.sessions = 64;
    config.rate_per_session_per_s = 3.0;
    config.protection = arm;
    none_stranded &= row(run_multi_session(config));
  }

  std::printf(
      "\n(the full arm keeps viewport-class tail latency flat by spending the\n"
      " downlink on work that can still meet its deadline; the unprotected arm\n"
      " serves everything eventually and nothing on time)\n");

  if (!none_stranded) {
    std::fprintf(stderr, "FAIL: an arm stranded a request\n");
    return 1;
  }

  // Determinism gate: the same seeded config must reproduce the identical
  // result document — including every per-session shard — on a repeat run.
  // Aggregation is keyed by session id, so completion order can't leak in.
  MultiSessionConfig repeat;
  repeat.sessions = 32;
  repeat.protection = Protection::kFull;
  const std::string first = run_multi_session(repeat).to_json();
  const std::string second = run_multi_session(repeat).to_json();
  if (first != second) {
    std::fprintf(stderr,
                 "FAIL: repeated run of the same seed diverged\n%s\nvs\n%s\n",
                 first.c_str(), second.c_str());
    return 1;
  }
  std::printf("\ndeterminism gate passed: repeat run byte-identical "
              "(%zu sessions, per-session shards included)\n",
              static_cast<std::size_t>(repeat.sessions));
  return 0;
}
