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
//     the TSan job runs this (frontdoor_matrix_smoke) to prove routing never
//     races.
//
// Every (sessions, shards) row serves the one load built for its session
// count (universe and seeded touch timeline, build_front_door_load); speedup
// is sessions/sec relative to that session count's shards=1 row. Wall-clock
// columns are printed, not gated: mfbench's frontdoor_* workloads measure
// them. The exact columns are tier-1 goldens (FrontDoorMatrixGolden).
//
//   frontdoor_matrix [--sessions 10000,100000] [--shards 1,2,4]
//                    [--touches N] [--universe N] [--arrival R] [--seed S]
//                    [--assert-routing]     # fail on any routing divergence
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "cli/standard_options.h"
#include "http/frontdoor.h"

namespace {

using namespace mfhttp;

struct Row {
  std::size_t sessions = 0;
  std::size_t shards = 1;
  double wall_ms = 0;
  double sessions_per_sec = 0;
  double speedup = 1.0;  // vs this session count's shards=1 row
  double shed_rate = 0;
  double cache_hit_ratio = 0;
  double p99_t2p_us = 0;
  bool byte_identical = true;  // shards=1 threaded vs unsharded inline
  bool routing_stable = true;
};

}  // namespace

int main(int argc, char** argv) {
  std::string sessions_s, shards_s, touches_s, universe_s, arrival_s, seed_s;
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
      row.shed_rate = r.shed_rate;
      row.cache_hit_ratio = r.cache_hit_ratio;
      row.p99_t2p_us = r.p99_touch_to_policy_us;
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
    // wherever it appears in the --shards list; without one it reads 0.
    double base_sessions_per_sec = 0;
    for (std::size_t i = first_row; i < rows.size(); ++i)
      if (rows[i].shards == 1) base_sessions_per_sec = rows[i].sessions_per_sec;

    for (std::size_t i = first_row; i < rows.size(); ++i) {
      Row& row = rows[i];
      row.speedup = base_sessions_per_sec > 0
                        ? row.sessions_per_sec / base_sessions_per_sec
                        : 0;
      std::printf("%9zu %7zu %10.1f %12.0f %7.2fx %6.1f%% %6.1f%% %12.1f %6s\n",
                  row.sessions, row.shards, row.wall_ms, row.sessions_per_sec,
                  row.speedup, row.shed_rate * 100.0,
                  row.cache_hit_ratio * 100.0, row.p99_t2p_us,
                  row.byte_identical && row.routing_stable ? "yes" : "NO");
    }
  }

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: shards=1 threaded diverged from the unsharded path\n");
    return 1;
  }
  if (assert_routing && !routing_ok) {
    std::fprintf(stderr, "FAIL: session->shard routing diverged\n");
    return 1;
  }
  return 0;
}
