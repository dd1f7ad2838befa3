// Chaos matrix — the self-healing front door's acceptance artifact
// (DESIGN.md §14): seeded shard-fault plans x shard counts, each run three
// ways —
//
//   baseline     — no fault injected, supervision off: the fault-free
//                  goodput reference every retained ratio divides by;
//   unsupervised — the fault fires, nobody watches: the producer's only
//                  defence is the deadline-bounded push, so the wedged
//                  shard's sessions shed at the deadline and its backlog
//                  drains as stale 503s;
//   supervised   — the same fault under the FrontDoorSupervisor: the
//                  wedge is detected (time-to-detect), NEW sessions
//                  rendezvous-fail-over to the healthy cohort, the wedged
//                  slice's admission budget is re-distributed, and goodput
//                  holds.
//
// Every arm replays the identical seeded timeline, so events and request
// totals are exact across arms — every touch resolves to served or shed,
// never lost — and `goodput_retained` (completed / fault-free completed)
// is the figure of merit. Two hard gates ride along:
//
//   * byte identity — shards=1 threaded with the supervisor WATCHING (no
//     faults) must stay byte-identical to the unsharded inline path: the
//     §13 gate survives §14;
//   * --assert-retained X / --assert-supervised — CI's resilience gate:
//     the supervised arm must retain at least X of fault-free goodput and
//     never complete less than the unsupervised arm.
//
//   chaos_matrix [--sessions N] [--shards LIST] [--plan PATH]
//                [--touches N] [--universe N] [--arrival R] [--seed S]
//                [--queue N] [--deadline-ms N]
//                [--json BENCH_chaos.json]
//                [--assert-retained X] [--assert-supervised]
//
// Without --plan the matrix sweeps the two built-in plans: "shard-stall"
// (fault::FaultPlan::shard_stall — shard 0 freezes 1000 ms mid-run) and
// "shard-crash" (shard 0 stops serving for good at its 30th event).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "cli/standard_options.h"
#include "fault/fault_plan.h"
#include "http/frontdoor.h"
#include "util/json.h"

namespace {

using namespace mfhttp;

struct Row {
  std::string plan;
  std::size_t shards = 1;
  std::string arm;  // baseline | unsupervised | supervised
  double wall_ms = 0;
  std::size_t events = 0;
  std::size_t requests = 0;
  std::size_t completed = 0;
  std::size_t rejected = 0;
  double goodput_retained = 1.0;  // completed / this cell's baseline arm
  double shed_rate = 0;
  std::size_t shed_events = 0;
  std::size_t deadline_shed_events = 0;
  std::size_t failover_sessions = 0;
  std::uint64_t wedged_declared = 0;
  double time_to_detect_ms = 0;   // 0 = never detected (or no fault)
  double time_to_recover_ms = 0;  // 0 = not recovered within the run
  double p50_t2p_us = 0;
  double p99_t2p_us = 0;
};

// Supervisor tuning for the chaos arms: thresholds small enough that
// detection lands well inside a 1-second stall, large enough that a noisy
// shared runner de-scheduling a healthy worker cannot trip a false wedge
// (the fault-free baseline arm runs unsupervised either way).
SupervisorParams chaos_supervisor() {
  SupervisorParams p;
  p.enabled = true;
  p.check_interval_ms = 2;
  p.slow_after_ms = 10;
  p.wedged_after_ms = 25;
  p.hysteresis = {2, 2};
  return p;
}

Row run_arm(FrontDoorParams params, const std::string& plan_name,
            const std::string& arm, const fault::FaultPlan* plan,
            bool supervised) {
  if (plan != nullptr) params.fault_plan = *plan;
  params.supervisor = supervised ? chaos_supervisor() : SupervisorParams{};

  const FrontDoorResult r = run_front_door(params, FrontDoorMode::kThreaded);

  Row row;
  row.plan = plan_name;
  row.shards = params.shards;
  row.arm = arm;
  row.wall_ms = r.wall_ms;
  row.events = r.events;
  row.requests = r.requests;
  row.completed = r.completed;
  row.rejected = r.rejected;
  row.shed_rate = r.shed_rate;
  row.shed_events = r.shed_events;
  row.deadline_shed_events = r.deadline_shed_events;
  row.failover_sessions = r.failover_sessions;
  row.wedged_declared = r.wedged_declared;
  row.time_to_detect_ms = r.first_detect_ms;
  row.time_to_recover_ms = r.first_recover_ms;
  row.p50_t2p_us = r.p50_touch_to_policy_us;
  row.p99_t2p_us = r.p99_touch_to_policy_us;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::string sessions_s, shards_s, plan_path, touches_s, universe_s,
      arrival_s, seed_s, queue_s, deadline_s, json_path, assert_retained_s;
  bool assert_supervised = false;
  cli::StandardOptions standard_options(argc, argv, [&](CliOptions& options) {
    options
        .add_string("--sessions", "N", "sessions per arm (default 2000)",
                    &sessions_s)
        .add_string("--shards", "LIST",
                    "comma-separated shard counts (default 2,4)", &shards_s)
        .add_string("--plan", "PATH",
                    "chaos plan JSON; replaces the built-in plan sweep",
                    &plan_path)
        .add_string("--touches", "N", "touches per session (default 3)",
                    &touches_s)
        .add_string("--universe", "N", "URL universe size (default 2048)",
                    &universe_s)
        .add_string("--arrival", "R",
                    "session arrivals per second (default 2000)", &arrival_s)
        .add_string("--seed", "S", "master seed (default 1)", &seed_s)
        .add_string("--queue", "N", "per-shard queue capacity (default 256)",
                    &queue_s)
        .add_string("--deadline-ms", "N",
                    "per-event freshness budget (default 20)", &deadline_s)
        .add_string("--json", "PATH",
                    "result document (default BENCH_chaos.json)", &json_path)
        .add_string("--assert-retained", "X",
                    "exit 1 unless every supervised arm retains >= X of "
                    "fault-free goodput",
                    &assert_retained_s)
        .add_flag("--assert-supervised",
                  "exit 1 if any supervised arm is worse than its "
                  "unsupervised twin on BOTH goodput and P99",
                  &assert_supervised);
  });

  FrontDoorParams params;
  params.load.sessions =
      sessions_s.empty() ? 2000 : CliOptions::positive_size("--sessions", sessions_s);
  params.load.touches_per_session =
      touches_s.empty() ? 3 : CliOptions::positive_size("--touches", touches_s);
  params.load.url_universe =
      universe_s.empty() ? 2048 : CliOptions::positive_size("--universe", universe_s);
  params.load.session_arrival_per_s =
      arrival_s.empty()
          ? 2000
          : static_cast<double>(CliOptions::positive_size("--arrival", arrival_s));
  if (!seed_s.empty()) params.load.seed = CliOptions::positive_size("--seed", seed_s);
  params.queue_capacity =
      queue_s.empty() ? 256 : CliOptions::positive_size("--queue", queue_s);
  params.enqueue_deadline_ms =
      deadline_s.empty()
          ? 20
          : static_cast<TimeMs>(CliOptions::positive_size("--deadline-ms", deadline_s));
  params.apply_scaled_admission();
  if (json_path.empty()) json_path = "BENCH_chaos.json";
  const std::vector<std::size_t> shard_counts =
      shards_s.empty() ? std::vector<std::size_t>{2, 4}
                       : CliOptions::positive_size_list("--shards", shards_s);

  // Plan sweep: one plan from --plan, else the two built-in scenarios.
  std::vector<fault::FaultPlan> plans;
  if (!plan_path.empty()) {
    std::string error;
    const auto loaded = fault::FaultPlan::load(plan_path, &error);
    if (!loaded) CliOptions::fail("--plan", plan_path, error.c_str());
    plans.push_back(*loaded);
  } else {
    plans.push_back(fault::FaultPlan::shard_stall(0, 20, 1000));
    fault::FaultPlan crash;
    crash.name = "shard-crash";
    fault::ShardFault f;
    f.kind = fault::ShardFault::Kind::kCrash;
    f.shard = 0;
    f.at_event = 30;
    crash.frontdoor.push_back(f);
    plans.push_back(crash);
  }
  for (fault::FaultPlan& plan : plans)
    if (plan.name.empty()) plan.name = "unnamed";

  // Gate first: shards=1 threaded with the supervisor watching (and no
  // fault) must stay byte-identical to the unsharded inline path.
  bool byte_identical = true;
  {
    FrontDoorParams gate = params;
    gate.shards = 1;
    gate.enqueue_deadline_ms = 0;  // inline has no queue for staleness
    gate.supervisor = chaos_supervisor();
    gate.supervisor.slow_after_ms = 5'000;  // generous: watch, never trip
    gate.supervisor.wedged_after_ms = 10'000;
    const FrontDoorResult inline_ref =
        run_front_door(gate, FrontDoorMode::kInline);
    const FrontDoorResult threaded =
        run_front_door(gate, FrontDoorMode::kThreaded);
    byte_identical =
        inline_ref.deterministic_json() == threaded.deterministic_json();
  }

  std::printf(
      "=== Chaos matrix: %zu sessions x %zu touches, universe %zu, seed %llu "
      "===\n",
      params.load.sessions, params.load.touches_per_session,
      params.load.url_universe,
      static_cast<unsigned long long>(params.load.seed));
  std::printf(
      "(hardware threads: %u; queue %zu, deadline %lld ms; shards=1 "
      "supervised byte-identity: %s)\n\n",
      std::thread::hardware_concurrency(), params.queue_capacity,
      static_cast<long long>(params.enqueue_deadline_ms),
      byte_identical ? "yes" : "NO");
  std::printf("%12s %7s %13s %9s %9s %8s %7s %8s %9s %12s\n", "plan", "shards",
              "arm", "completed", "retained", "shed", "failov",
              "detect", "recover", "p99 t2p us");

  std::vector<Row> rows;
  double worst_retained = 1.0;
  bool supervised_never_worse = true;

  for (const fault::FaultPlan& plan : plans) {
    for (std::size_t shards : shard_counts) {
      params.shards = shards;

      Row baseline =
          run_arm(params, plan.name, "baseline", nullptr, false);
      Row unsupervised =
          run_arm(params, plan.name, "unsupervised", &plan, false);
      Row supervised = run_arm(params, plan.name, "supervised", &plan, true);

      for (Row* row : {&baseline, &unsupervised, &supervised}) {
        row->goodput_retained =
            baseline.completed > 0
                ? static_cast<double>(row->completed) /
                      static_cast<double>(baseline.completed)
                : 0;
        std::printf(
            "%12s %7zu %13s %9zu %8.1f%% %7.1f%% %7zu %7.1f %8.1f %12.1f\n",
            row->plan.c_str(), row->shards, row->arm.c_str(), row->completed,
            row->goodput_retained * 100.0, row->shed_rate * 100.0,
            row->failover_sessions, row->time_to_detect_ms,
            row->time_to_recover_ms, row->p99_t2p_us);
        rows.push_back(*row);
      }
      worst_retained =
          std::min(worst_retained, supervised.goodput_retained);
      // "Never worse" is per-axis: under a crash, supervision wins goodput
      // outright; under a stall it deliberately trades a few percent of
      // goodput (instant sheds for sessions pinned to the wedged shard)
      // for an order-of-magnitude better P99 tail. Losing BOTH axes to the
      // unsupervised arm is the regression this flag exists to catch.
      supervised_never_worse =
          supervised_never_worse &&
          (supervised.completed >= unsupervised.completed ||
           supervised.p99_t2p_us <= unsupervised.p99_t2p_us);
    }
  }

  JsonWriter w;
  w.begin_object();
  w.key("bench").value("chaos_matrix");
  w.key("sessions").value(params.load.sessions);
  w.key("touches_per_session").value(params.load.touches_per_session);
  w.key("url_universe").value(params.load.url_universe);
  w.key("seed").value(static_cast<unsigned long long>(params.load.seed));
  w.key("queue_capacity").value(params.queue_capacity);
  w.key("deadline_ms")
      .value(static_cast<long long>(params.enqueue_deadline_ms));
  w.key("hardware_threads")
      .value(static_cast<unsigned long long>(
          std::thread::hardware_concurrency()));
  w.key("byte_identical_with_supervision").value(byte_identical);
  w.key("supervised_never_worse").value(supervised_never_worse);
  w.key("rows").begin_array();
  for (const Row& row : rows) {
    w.begin_object();
    w.key("plan").value(row.plan);
    w.key("shards").value(row.shards);
    w.key("arm").value(row.arm);
    w.key("wall_ms").value(row.wall_ms);
    w.key("events").value(row.events);
    w.key("requests").value(row.requests);
    w.key("completed").value(row.completed);
    w.key("rejected").value(row.rejected);
    w.key("goodput_retained").value(row.goodput_retained);
    w.key("shed_rate").value(row.shed_rate);
    w.key("shed_events").value(row.shed_events);
    w.key("deadline_shed_events").value(row.deadline_shed_events);
    w.key("failover_sessions").value(row.failover_sessions);
    w.key("wedged_declared")
        .value(static_cast<unsigned long long>(row.wedged_declared));
    w.key("time_to_detect_ms").value(row.time_to_detect_ms);
    w.key("time_to_recover_ms").value(row.time_to_recover_ms);
    w.key("p50_touch_to_policy_us").value(row.p50_t2p_us);
    w.key("p99_touch_to_policy_us").value(row.p99_t2p_us);
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

  if (!byte_identical) {
    std::fprintf(stderr,
                 "FAIL: shards=1 threaded with supervision diverged from the "
                 "unsharded inline path\n");
    return 1;
  }
  if (!assert_retained_s.empty()) {
    char* end = nullptr;
    const double want = std::strtod(assert_retained_s.c_str(), &end);
    if (end == nullptr || *end != '\0' || want <= 0 || want > 1)
      CliOptions::fail("--assert-retained", assert_retained_s,
                       "expected a number in (0, 1]");
    if (worst_retained < want) {
      std::fprintf(stderr,
                   "FAIL: supervised goodput retained %.1f%% < required "
                   "%.1f%%\n",
                   worst_retained * 100.0, want * 100.0);
      return 1;
    }
    std::printf("retained gate passed: %.1f%% >= %.1f%%\n",
                worst_retained * 100.0, want * 100.0);
  }
  if (assert_supervised && !supervised_never_worse) {
    std::fprintf(stderr,
                 "FAIL: a supervised arm lost both goodput and P99 to its "
                 "unsupervised twin\n");
    return 1;
  }
  return 0;
}
