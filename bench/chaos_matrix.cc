// Chaos matrix — the self-healing front door's acceptance artifact
// (DESIGN.md §14): seeded shard-fault plans x shard counts, each run three
// ways —
//
//   baseline     — no fault injected, supervision off, no freshness
//                  deadline (the producer blocks instead of shedding, and
//                  no worker sheds a stale event, DESIGN.md §14.3): the
//                  exact fault-free reference every retained ratio divides
//                  by;
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
// Every arm replays the identical seeded timeline, and `goodput_retained`
// (completed / fault-free completed) is the figure of merit. The binary
// exits 1 unless all of these hold:
//
//   * byte identity — shards=1 threaded with the supervisor WATCHING (no
//     faults) must stay byte-identical to the unsharded inline path: the
//     §13 gate survives §14;
//   * conservation — on every arm, events == sessions x touches, requests
//     equal the baseline arm's, and completed + rejected == requests: every
//     touch resolves to served or shed, never lost;
//   * an exact baseline — the fault-free arm rejects nothing;
//   * --assert-retained X / --assert-supervised — the supervised arm must
//     retain at least X of fault-free goodput and never lose both goodput
//     and P99 to the unsupervised arm;
//   * recorded bands (with --assert-supervised, built-in sweep at the
//     default load) — each unsupervised arm's goodput retained lies within
//     0.08 of the value recorded for it (kRecorded), so an arm that sheds
//     everything, or whose fault never fires, fails; each supervised arm's
//     is at most 0.08 below its recorded value. Every arm conserves
//     requests, so shed_rate == 1 - retained and the bands hold both
//     columns.
//
// Tier-1 ctest runs the bench/plans/shard_stall plan at 600 sessions
// (chaos_matrix_plan_smoke), and ChaosMatrixGolden pins the default load's
// event and request counts. The default sweep with --assert-retained 0.75
// --assert-supervised runs alone in CI's release job: the goodput a fault
// costs is spent on the wall clock, and under a loaded sanitizer build the
// supervised arms retained as little as 35%.
//
//   chaos_matrix [--sessions N] [--shards LIST] [--plan PATH]
//                [--touches N] [--universe N] [--arrival R] [--seed S]
//                [--queue N] [--deadline-ms N]
//                [--assert-retained X] [--assert-supervised]
//
// Without --plan the matrix sweeps the two built-in plans: "shard-stall"
// (fault::FaultPlan::shard_stall — shard 0 freezes 1000 ms mid-run) and
// "shard-crash" (shard 0 stops serving for good at its 30th event).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "cli/standard_options.h"
#include "fault/fault_plan.h"
#include "http/frontdoor.h"

namespace {

using namespace mfhttp;

struct Row {
  std::string plan;
  std::size_t shards = 1;
  std::string arm;  // baseline | unsupervised | supervised
  std::size_t events = 0;
  std::size_t requests = 0;
  std::size_t completed = 0;
  std::size_t rejected = 0;
  double goodput_retained = 1.0;  // completed / this cell's baseline arm
  double shed_rate = 0;
  std::size_t failover_sessions = 0;
  double time_to_detect_ms = 0;   // 0 = never detected (or no fault)
  double time_to_recover_ms = 0;  // 0 = not recovered within the run
  double p99_t2p_us = 0;
};

// Goodput retained by the built-in sweep's fault arms at the default load,
// as the matrix recorded it (a one-thread machine, Release). On four vCPUs
// the unsupervised arms read within 0.002 of these and the supervised ones
// 0 to 0.055 above. The unsupervised crash arms sit near 1 - 1/shards: the
// crashed shard sheds every later event of its sessions.
struct RecordedCell {
  const char* plan;
  std::size_t shards;
  double unsupervised;
  double supervised;
};
constexpr RecordedCell kRecorded[] = {
    {"shard-stall", 2, 0.950016688919, 0.898447930574},
    {"shard-stall", 4, 0.949599465955, 0.915720961282},
    {"shard-crash", 2, 0.503838451268, 0.871328437917},
    {"shard-crash", 4, 0.746829105474, 0.871829105474},
};
constexpr double kRecordedBand = 0.08;

const RecordedCell* recorded_cell(const std::string& plan, std::size_t shards) {
  for (const RecordedCell& cell : kRecorded)
    if (plan == cell.plan && shards == cell.shards) return &cell;
  return nullptr;
}

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
  // The fault-free arm blocks rather than sheds, so no wall-clock hiccup
  // can shed an event: its row is exact.
  if (plan == nullptr) params.enqueue_deadline_ms = 0;
  params.supervisor = supervised ? chaos_supervisor() : SupervisorParams{};

  const FrontDoorResult r = run_front_door(params, FrontDoorMode::kThreaded);

  Row row;
  row.plan = plan_name;
  row.shards = params.shards;
  row.arm = arm;
  row.events = r.events;
  row.requests = r.requests;
  row.completed = r.completed;
  row.rejected = r.rejected;
  row.shed_rate = r.shed_rate;
  row.failover_sessions = r.failover_sessions;
  row.time_to_detect_ms = r.first_detect_ms;
  row.time_to_recover_ms = r.first_recover_ms;
  row.p99_t2p_us = r.p99_touch_to_policy_us;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::string sessions_s, shards_s, plan_path, touches_s, universe_s,
      arrival_s, seed_s, queue_s, deadline_s, assert_retained_s;
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
        .add_string("--assert-retained", "X",
                    "exit 1 unless every supervised arm retains >= X of "
                    "fault-free goodput",
                    &assert_retained_s)
        .add_flag("--assert-supervised",
                  "exit 1 if any supervised arm is worse than its "
                  "unsupervised twin on BOTH goodput and P99, or (built-in "
                  "sweep, default load) any fault arm's goodput retained "
                  "leaves the 0.08 band around its recorded value",
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

  // The recorded bands hold only for the load they were recorded at.
  const bool check_recorded = assert_supervised && plan_path.empty() &&
                              sessions_s.empty() && touches_s.empty() &&
                              universe_s.empty() && arrival_s.empty() &&
                              seed_s.empty() && queue_s.empty() &&
                              deadline_s.empty();
  double worst_retained = 1.0;
  bool supervised_never_worse = true;
  bool in_recorded_band = true;
  bool conserved = true;
  const std::size_t events_per_arm =
      params.load.sessions * params.load.touches_per_session;

  for (const fault::FaultPlan& plan : plans) {
    for (std::size_t shards : shard_counts) {
      params.shards = shards;

      Row baseline =
          run_arm(params, plan.name, "baseline", nullptr, false);
      Row unsupervised =
          run_arm(params, plan.name, "unsupervised", &plan, false);
      Row supervised = run_arm(params, plan.name, "supervised", &plan, true);

      for (Row* row : {&baseline, &unsupervised, &supervised}) {
        // Every arm conserves the timeline's events and requests, and the
        // fault-free arm sheds nothing.
        if (row->events != events_per_arm || row->requests != baseline.requests ||
            row->completed + row->rejected != row->requests ||
            (row == &baseline && row->rejected != 0)) {
          conserved = false;
          std::fprintf(stderr,
                       "FAIL: %s/%zu/%s: events %zu (want %zu), requests %zu "
                       "(baseline %zu), completed %zu, rejected %zu\n",
                       row->plan.c_str(), row->shards, row->arm.c_str(),
                       row->events, events_per_arm, row->requests,
                       baseline.requests, row->completed, row->rejected);
        }
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

      const RecordedCell* cell =
          check_recorded ? recorded_cell(plan.name, shards) : nullptr;
      if (cell == nullptr) continue;
      // A fault costs what it cost when recorded; supervision may win back
      // more than it did then, never lose more.
      if (std::abs(unsupervised.goodput_retained - cell->unsupervised) >
              kRecordedBand ||
          supervised.goodput_retained < cell->supervised - kRecordedBand) {
        in_recorded_band = false;
        std::fprintf(stderr,
                     "FAIL: %s/%zu: goodput retained unsupervised %.3f "
                     "(recorded %.3f, band +-%.2f), supervised %.3f (recorded "
                     "%.3f, floor -%.2f)\n",
                     plan.name.c_str(), shards, unsupervised.goodput_retained,
                     cell->unsupervised, kRecordedBand,
                     supervised.goodput_retained, cell->supervised, kRecordedBand);
      }
    }
  }

  if (!byte_identical) {
    std::fprintf(stderr,
                 "FAIL: shards=1 threaded with supervision diverged from the "
                 "unsharded inline path\n");
    return 1;
  }
  if (!conserved) return 1;
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
  if (!in_recorded_band) return 1;
  return 0;
}
