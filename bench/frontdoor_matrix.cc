// Front-door matrix — the sharded serving path's acceptance artifact
// (DESIGN.md §13): sessions x shards -> sessions/sec, shed rate, cache hit
// ratio, and the P99 touch-to-policy tail, with two hard determinism gates:
//
//   * byte identity — for every session count, --shards 1 run through the
//     threaded producer/consumer path must emit deterministic_json() bytes
//     identical to the historical unsharded inline path. A shard layer that
//     changes answers at N=1 is a bug, not an optimization.
//   * routing stability (--assert-routing) — the session -> shard table is
//     recomputed after every row and its fingerprint must match the run's;
//     the TSan smoke leans on this to prove routing never races.
//
// Every (sessions, shards) row serves the one load built for its session
// count (universe and seeded touch timeline, build_front_door_load); speedup
// is sessions/sec relative to that session count's shards=1 row.
//
//   frontdoor_matrix [--sessions 10000,100000] [--shards 1,2,4]
//                    [--touches N] [--universe N] [--seed S]
//                    [--json BENCH_frontdoor.json]
//                    [--assert-speedup X]   # fail unless best speedup >= X
//                    [--assert-routing]     # fail on any routing divergence
//
// --assert-speedup is for CI's multi-core perf jobs; on a single-core
// container the matrix still proves byte identity and routing stability,
// but wall-clock speedup there is noise, not signal.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "cli/standard_options.h"
#include "http/frontdoor.h"
#include "util/json.h"

namespace {

using namespace mfhttp;

struct Row {
  std::size_t sessions = 0;
  std::size_t shards = 1;
  double wall_ms = 0;
  double sessions_per_sec = 0;
  double events_per_sec = 0;
  double speedup = 1.0;  // vs this session count's shards=1 row
  double shed_rate = 0;
  double cache_hit_ratio = 0;
  double p50_t2p_us = 0;
  double p99_t2p_us = 0;
  std::size_t requests = 0;
  std::size_t rejected = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t routing_fp = 0;
  bool byte_identical = true;  // shards=1 threaded vs unsharded inline
  bool routing_stable = true;
};

}  // namespace

int main(int argc, char** argv) {
  std::string sessions_s, shards_s, touches_s, universe_s, arrival_s, seed_s,
      json_path, assert_speedup_s;
  bool assert_routing = false;
  cli::StandardOptions standard_options(argc, argv, [&](CliOptions& options) {
    options
        .add_string("--sessions", "LIST",
                    "comma-separated session counts (default 10000)",
                    &sessions_s)
        .add_string("--shards", "LIST",
                    "comma-separated shard counts (default 1,2,4)", &shards_s)
        .add_string("--touches", "N", "touches per session (default 4)",
                    &touches_s)
        .add_string("--universe", "N", "URL universe size (default 4096)",
                    &universe_s)
        .add_string("--arrival", "R",
                    "session arrivals per second (default 2000)", &arrival_s)
        .add_string("--seed", "S", "master seed (default 1)", &seed_s)
        .add_string("--json", "PATH",
                    "result document (default BENCH_frontdoor.json)",
                    &json_path)
        .add_string("--assert-speedup", "X",
                    "exit 1 unless best speedup >= X (CI perf gate)",
                    &assert_speedup_s)
        .add_flag("--assert-routing",
                  "exit 1 if the routing table ever diverges", &assert_routing);
  });

  FrontDoorParams params;
  if (!seed_s.empty()) params.load.seed = CliOptions::positive_size("--seed", seed_s);
  if (!touches_s.empty())
    params.load.touches_per_session = CliOptions::positive_size("--touches", touches_s);
  if (!universe_s.empty())
    params.load.url_universe = CliOptions::positive_size("--universe", universe_s);
  if (!arrival_s.empty())
    params.load.session_arrival_per_s =
        static_cast<double>(CliOptions::positive_size("--arrival", arrival_s));
  if (json_path.empty()) json_path = "BENCH_frontdoor.json";
  const std::vector<std::size_t> session_counts =
      sessions_s.empty() ? std::vector<std::size_t>{10000}
                         : CliOptions::positive_size_list("--sessions", sessions_s);
  const std::vector<std::size_t> shard_counts =
      shards_s.empty() ? std::vector<std::size_t>{1, 2, 4}
                       : CliOptions::positive_size_list("--shards", shards_s);

  std::printf(
      "=== Front-door matrix: %zu touches/session, universe %zu, seed %llu "
      "===\n",
      params.load.touches_per_session, params.load.url_universe,
      static_cast<unsigned long long>(params.load.seed));
  std::printf(
      "(hardware threads: %u; every shards=1 row is byte-checked against the\n"
      " unsharded inline path before it is reported)\n\n",
      std::thread::hardware_concurrency());
  std::printf("%9s %7s %10s %12s %8s %7s %7s %12s %6s\n", "sessions", "shards",
              "wall ms", "sess/s", "speedup", "shed", "hit", "p99 t2p us",
              "ident");

  std::vector<Row> rows;
  double best_speedup = 0;
  bool have_baseline = true;  // every session count had a shards=1 row
  bool all_identical = true;
  bool routing_ok = true;

  for (std::size_t sessions : session_counts) {
    params.load.sessions = sessions;
    params.apply_scaled_admission();
    const FrontDoorLoad load = build_front_door_load(params.load);

    // The historical unsharded path: one box, caller thread, no queues.
    // Its deterministic document is the byte-identity reference.
    params.shards = 1;
    const FrontDoorResult inline_ref =
        run_front_door(load, params, FrontDoorMode::kInline);
    const std::string reference_doc = inline_ref.deterministic_json();

    const std::size_t first_row = rows.size();
    for (std::size_t shards : shard_counts) {
      params.shards = shards;
      const FrontDoorResult r =
          run_front_door(load, params, FrontDoorMode::kThreaded);

      Row row;
      row.sessions = sessions;
      row.shards = shards;
      row.wall_ms = r.wall_ms;
      row.sessions_per_sec = r.sessions_per_sec;
      row.events_per_sec = r.events_per_sec;
      row.shed_rate = r.shed_rate;
      row.cache_hit_ratio = r.cache_hit_ratio;
      row.p50_t2p_us = r.p50_touch_to_policy_us;
      row.p99_t2p_us = r.p99_touch_to_policy_us;
      row.requests = r.requests;
      row.rejected = r.rejected;
      row.fingerprint = r.fingerprint;
      row.routing_fp = r.routing_fp;
      if (shards == 1) row.byte_identical = r.deterministic_json() == reference_doc;
      // Recompute the routing table from scratch: a pure function of
      // (session, shards) must land every session on the same shard again.
      row.routing_stable =
          routing_fingerprint(sessions, shards) == r.routing_fp;

      all_identical = all_identical && row.byte_identical;
      routing_ok = routing_ok && row.routing_stable;
      rows.push_back(row);
    }

    // Speedup is strictly relative to this session count's shards=1 row,
    // wherever it appears in the --shards list. Without a shards=1 row the
    // ratio has no baseline: speedups stay 0 and the --assert-speedup gate
    // refuses to pass below.
    double base_sessions_per_sec = 0;
    for (std::size_t i = first_row; i < rows.size(); ++i)
      if (rows[i].shards == 1) base_sessions_per_sec = rows[i].sessions_per_sec;
    have_baseline = have_baseline && base_sessions_per_sec > 0;

    for (std::size_t i = first_row; i < rows.size(); ++i) {
      Row& row = rows[i];
      row.speedup = base_sessions_per_sec > 0
                        ? row.sessions_per_sec / base_sessions_per_sec
                        : 0;
      best_speedup = std::max(best_speedup, row.speedup);
      std::printf("%9zu %7zu %10.1f %12.0f %7.2fx %6.1f%% %6.1f%% %12.1f %6s\n",
                  row.sessions, row.shards, row.wall_ms, row.sessions_per_sec,
                  row.speedup, row.shed_rate * 100.0,
                  row.cache_hit_ratio * 100.0, row.p99_t2p_us,
                  row.byte_identical && row.routing_stable ? "yes" : "NO");
    }
  }

  JsonWriter w;
  w.begin_object();
  w.key("bench").value("frontdoor_matrix");
  w.key("touches_per_session").value(params.load.touches_per_session);
  w.key("url_universe").value(params.load.url_universe);
  w.key("seed").value(static_cast<unsigned long long>(params.load.seed));
  w.key("hardware_threads")
      .value(static_cast<unsigned long long>(std::thread::hardware_concurrency()));
  w.key("byte_identical_at_one_shard").value(all_identical);
  w.key("routing_stable").value(routing_ok);
  w.key("rows").begin_array();
  for (const Row& row : rows) {
    w.begin_object();
    w.key("sessions").value(row.sessions);
    w.key("shards").value(row.shards);
    w.key("wall_ms").value(row.wall_ms);
    w.key("sessions_per_sec").value(row.sessions_per_sec);
    w.key("events_per_sec").value(row.events_per_sec);
    w.key("speedup").value(row.speedup);
    w.key("shed_rate").value(row.shed_rate);
    w.key("cache_hit_ratio").value(row.cache_hit_ratio);
    w.key("p50_touch_to_policy_us").value(row.p50_t2p_us);
    w.key("p99_touch_to_policy_us").value(row.p99_t2p_us);
    w.key("requests").value(row.requests);
    w.key("rejected").value(row.rejected);
    w.key("fingerprint").value(static_cast<unsigned long long>(row.fingerprint));
    w.key("routing_fingerprint")
        .value(static_cast<unsigned long long>(row.routing_fp));
    w.key("byte_identical").value(row.byte_identical);
    w.key("routing_stable").value(row.routing_stable);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr)
    CliOptions::fail("--json", json_path, "cannot open for writing");
  std::fputs(w.str().c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("\nwrote %s\n", json_path.c_str());

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: shards=1 threaded diverged from the unsharded path\n");
    return 1;
  }
  if (assert_routing && !routing_ok) {
    std::fprintf(stderr, "FAIL: session->shard routing diverged\n");
    return 1;
  }
  if (!assert_speedup_s.empty()) {
    char* end = nullptr;
    const double want = std::strtod(assert_speedup_s.c_str(), &end);
    if (end == nullptr || *end != '\0' || want <= 0)
      CliOptions::fail("--assert-speedup", assert_speedup_s,
                       "expected a positive number");
    if (!have_baseline) {
      std::fprintf(stderr,
                   "FAIL: --assert-speedup needs a shards=1 baseline row; "
                   "add 1 to --shards\n");
      return 1;
    }
    if (best_speedup < want) {
      std::fprintf(stderr, "FAIL: best speedup %.2fx < required %.2fx\n",
                   best_speedup, want);
      return 1;
    }
    std::printf("speedup gate passed: %.2fx >= %.2fx\n", best_speedup, want);
  }
  return 0;
}
