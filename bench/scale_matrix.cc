// Scale matrix — the parallel session engine's acceptance artifact
// (DESIGN.md §12): sessions x workers -> wall-clock, speedup over the
// serial baseline, and the exact touch-to-policy latency tail, with a
// byte-identity check proving worker count never changes results.
//
// Every row re-runs the identical seeded workload; the workers=1 row is the
// serial baseline (ParallelRunner executes inline, in index order). Before a
// row is reported its deterministic JSON — config, per-session aggregates,
// and a per-session FNV fingerprint over every policy decision — is compared
// byte-for-byte against the baseline's. Any divergence is a hard failure:
// a parallel speedup that changes answers is not an optimization.
//
//   scale_matrix [--sessions N] [--gestures N] [--workers 1,2,8]
//                [--seed S] [--json BENCH_scale.json]
//                [--assert-speedup X]   # fail unless best speedup >= X
//
// --assert-speedup is meant for CI's multi-core perf-smoke job; on a
// single-core container the matrix still proves determinism, but no wall-
// clock claim is made (speedup there is noise, not signal).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "cli/standard_options.h"
#include "sim/session_world.h"
#include "util/json.h"
#include "util/stats.h"

namespace {

using namespace mfhttp;

struct Row {
  std::size_t workers = 1;
  double wall_ms = 0;
  double speedup = 1.0;
  double p50_touch_ms = 0;
  double p99_touch_ms = 0;
  std::uint64_t steals = 0;
  bool deterministic = true;
};

}  // namespace

int main(int argc, char** argv) {
  std::string sessions_s, gestures_s, workers_s, seed_s, json_path, assert_speedup_s;
  cli::StandardOptions standard_options(argc, argv, [&](CliOptions& options) {
    options.add_string("--sessions", "N", "session count (default 16)", &sessions_s)
        .add_string("--gestures", "N", "gestures per session (default 40)",
                    &gestures_s)
        .add_string("--workers", "LIST",
                    "comma-separated worker counts (default 1,2,4)", &workers_s)
        .add_string("--seed", "S", "master seed (default 1)", &seed_s)
        .add_string("--json", "PATH",
                    "result document (default BENCH_scale.json)", &json_path)
        .add_string("--assert-speedup", "X",
                    "exit 1 unless best speedup >= X (CI perf gate)",
                    &assert_speedup_s);
  });

  sim::ScaleSessionConfig config;
  if (!sessions_s.empty())
    config.sessions = CliOptions::positive_size("--sessions", sessions_s);
  if (!gestures_s.empty())
    config.gestures_per_session = CliOptions::positive_size("--gestures", gestures_s);
  if (!seed_s.empty()) config.seed = CliOptions::positive_size("--seed", seed_s);
  if (json_path.empty()) json_path = "BENCH_scale.json";
  std::vector<std::size_t> worker_counts =
      workers_s.empty() ? std::vector<std::size_t>{1, 2, 4}
                        : CliOptions::positive_size_list("--workers", workers_s);

  std::printf("=== Scale matrix: %zu sessions, %zu gestures each, seed %llu ===\n",
              config.sessions, config.gestures_per_session,
              static_cast<unsigned long long>(config.seed));
  std::printf("(hardware threads: %u; workers=1 is the serial baseline every\n"
              " other row must reproduce byte for byte)\n\n",
              std::thread::hardware_concurrency());
  std::printf("%8s %10s %8s %12s %12s %7s %6s\n", "workers", "wall ms",
              "speedup", "p50 t2p ms", "p99 t2p ms", "steals", "ident");

  std::string baseline_json;
  double baseline_wall_ms = 0;
  double best_speedup = 0;
  bool all_identical = true;
  std::vector<Row> rows;

  for (std::size_t workers : worker_counts) {
    config.workers = workers;
    sim::ScaleRunResult result = sim::run_scale_sessions(config);

    Row row;
    row.workers = workers;
    row.wall_ms = result.wall_ms;
    row.steals = result.stats.steals;

    Samples touch;
    for (const sim::ScaleSessionResult& s : result.sessions)
      for (double ms : s.touch_to_policy_ms) touch.add(ms);
    row.p50_touch_ms = touch.count() ? touch.percentile(50) : 0;
    row.p99_touch_ms = touch.count() ? touch.percentile(99) : 0;

    const std::string doc = result.deterministic_json();
    if (baseline_json.empty()) {
      // First row is the baseline (run workers=1 first for a meaningful
      // speedup column; any row works for the identity check).
      baseline_json = doc;
      baseline_wall_ms = result.wall_ms;
    }
    row.deterministic = doc == baseline_json;
    all_identical = all_identical && row.deterministic;
    row.speedup = row.wall_ms > 0 ? baseline_wall_ms / row.wall_ms : 0;
    best_speedup = std::max(best_speedup, row.speedup);

    std::printf("%8zu %10.1f %7.2fx %12.3f %12.3f %7llu %6s\n", row.workers,
                row.wall_ms, row.speedup, row.p50_touch_ms, row.p99_touch_ms,
                static_cast<unsigned long long>(row.steals),
                row.deterministic ? "yes" : "NO");
    rows.push_back(row);
  }

  JsonWriter w;
  w.begin_object();
  w.key("bench").value("scale_matrix");
  w.key("sessions").value(config.sessions);
  w.key("gestures_per_session").value(config.gestures_per_session);
  w.key("seed").value(static_cast<unsigned long long>(config.seed));
  w.key("hardware_threads").value(
      static_cast<unsigned long long>(std::thread::hardware_concurrency()));
  w.key("deterministic_across_workers").value(all_identical);
  w.key("rows").begin_array();
  for (const Row& row : rows) {
    w.begin_object();
    w.key("workers").value(row.workers);
    w.key("wall_ms").value(row.wall_ms);
    w.key("speedup").value(row.speedup);
    w.key("p50_touch_to_policy_ms").value(row.p50_touch_ms);
    w.key("p99_touch_to_policy_ms").value(row.p99_touch_ms);
    w.key("steals").value(static_cast<unsigned long long>(row.steals));
    w.key("deterministic").value(row.deterministic);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) CliOptions::fail("--json", json_path, "cannot open for writing");
  std::fputs(w.str().c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("\nwrote %s\n", json_path.c_str());

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: per-session results diverged across worker counts\n");
    return 1;
  }
  if (!assert_speedup_s.empty()) {
    char* end = nullptr;
    const double want = std::strtod(assert_speedup_s.c_str(), &end);
    if (end == nullptr || *end != '\0' || want <= 0)
      CliOptions::fail("--assert-speedup", assert_speedup_s,
                       "expected a positive number");
    if (best_speedup < want) {
      std::fprintf(stderr, "FAIL: best speedup %.2fx < required %.2fx\n",
                   best_speedup, want);
      return 1;
    }
    std::printf("speedup gate passed: %.2fx >= %.2fx\n", best_speedup, want);
  }
  return 0;
}
