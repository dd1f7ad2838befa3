// feed_scroll: touch-to-policy on an infinite-scroll social feed.
//
// The work set is 16 sessions. Each is a fresh TouchEventMonitor ->
// Middleware (sim = nullptr, so every gesture is served synchronously) over
// its own seeded 2,000-post feed, fed 200 BrowsingGestureSource swipes that
// set-up generates. A 2,000-post feed is ~1.8M px tall, so almost every
// fling lands mid-content: gesture, scroll, geom and core do all the work,
// http and sim do none. Touch-to-policy (t2p) is the wall time of the
// touch-UP event's on_touch_event() call that delivers a policy.
//
// One unit replays the whole work set. Every unit does identical work and
// must deliver identical policies, so units differ only by interference.
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "core/middleware.h"
#include "feed/feed.h"
#include "gesture/synthetic.h"
#include "trace.h"
#include "util/rng.h"

namespace mfbench {

namespace {

using namespace mfhttp;

constexpr double kFrameBudgetUs = 16'000;  // §3.4.2: one 60 Hz frame

void fold_policy(Fnv& fp, const DownloadPolicy& p) {
  fp.u64(p.decisions.size());
  fp.f64(p.objective);
  fp.u64(static_cast<std::uint64_t>(p.total_bytes));
  for (const DownloadDecision& d : p.decisions) {
    fp.u64(d.object_index);
    fp.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(d.version)));
    fp.f64(d.entry_time_ms);
    fp.f64(d.value);
  }
}

struct SessionInput {
  Feed feed;
  std::vector<TouchTrace> swipes;
};

// One replay of the work set.
struct Pass {
  std::vector<double> t2p_us;   // one per scrolling gesture
  std::vector<double> setup_s;  // Middleware + monitor construction
  double busy_us = 0;           // every touch event's handling time
  std::uint64_t misses = 0;     // t2p over the frame budget
  std::uint64_t still = 0;      // scrolls predicted to move < 1 px
  std::uint64_t involved = 0;
  std::uint64_t rows_computed = 0;
  std::uint64_t solves = 0;
  std::uint64_t full_reuses = 0;
  std::uint64_t fingerprint = 0;  // policies as delivered
  bool replay_identical = true;
};

class FeedScroll {
 public:
  FeedScroll(const Options& options, Tracer& tracer)
      : tracer_(tracer), device_(DeviceProfile::nexus6()),
        bandwidth_(BandwidthTrace::constant(2.0e6)) {
    const std::size_t sessions = options.quick ? 2 : 16;
    const std::size_t swipes = options.quick ? 20 : 200;
    FeedSpec spec;
    spec.post_count = options.quick ? 200 : 2000;
    for (std::size_t i = 0; i < sessions; ++i) {
      Rng rng(splitmix64(options.seed ^ splitmix64(i + 1)));
      SessionInput& in = inputs_.emplace_back();
      in.feed = generate_feed(spec, device_, rng);
      BrowsingGestureSource source(device_, {}, rng);
      TimeMs next_down_ms = 0;
      for (std::size_t g = 0; g < swipes; ++g) {
        in.swipes.push_back(source.next_swipe(next_down_ms));
        next_down_ms = in.swipes.back().back().time_ms;
      }
    }
  }

  // Every swipe ends in its touch-UP, the event t2p times.
  bool swipes_end_in_up() const {
    for (const SessionInput& in : inputs_)
      for (const TouchTrace& t : in.swipes)
        if (t.back().action != TouchAction::kUp) return false;
    return true;
  }

  // With the tracer active, each session is also replayed stage by stage.
  Pass run() {
    Pass pass;
    Fnv fp;
    for (const SessionInput& in : inputs_) run_session(in, pass, fp);
    pass.fingerprint = fp.h;
    return pass;
  }

 private:
  void run_session(const SessionInput& in, Pass& pass, Fnv& fp) {
    const Clock::time_point setup_start = Clock::now();
    Middleware::Params params;
    params.tracker.scroll = ScrollConfig(device_);
    params.tracker.content_bounds = in.feed.bounds();
    params.flow.weights = {1.0, 0.3};
    params.initial_viewport = {0, 0, device_.screen_w_px, device_.screen_h_px};
    Middleware middleware(params, in.feed.media, bandwidth_, /*sim=*/nullptr);

    Fnv live;
    bool delivered = false;
    const bool replay = tracer_.active();
    std::vector<ScrollPrediction> predictions;
    middleware.set_policy_callback(
        [&](const ScrollAnalysis& analysis, const DownloadPolicy& policy) {
          delivered = true;
          fold_policy(live, policy);
          pass.involved += policy.decisions.size();
          if (analysis.prediction.displacement.norm() < 1.0) ++pass.still;
          if (replay) predictions.push_back(analysis.prediction);
        });
    TouchEventMonitor monitor(device_, [&](const Gesture& g) {
      Scope span(tracer_, "core.middleware.on_gesture", gesture_id_);
      middleware.on_gesture(g);
    });
    pass.setup_s.push_back(seconds_since(setup_start));

    for (const TouchTrace& swipe : in.swipes) {
      ++gesture_id_;
      const Clock::time_point start = Clock::now();
      for (std::size_t i = 0; i + 1 < swipe.size(); ++i)
        monitor.on_touch_event(swipe[i]);
      delivered = false;
      const Clock::time_point up = Clock::now();
      {
        Scope span(tracer_, "gesture.on_touch_event", gesture_id_);
        monitor.on_touch_event(swipe.back());
      }
      const Clock::time_point end = Clock::now();
      pass.busy_us += us_between(start, end);
      if (!delivered) continue;
      const double t2p = us_between(up, end);
      pass.t2p_us.push_back(t2p);
      if (t2p > kFrameBudgetUs) ++pass.misses;
    }

    const KnapsackScratch& scratch =
        middleware.flow_controller().replan_scratch();
    pass.rows_computed += scratch.rows_computed;
    pass.solves += scratch.solves;
    pass.full_reuses += scratch.full_reuses;
    fp.u64(live.h);
    if (replay && replay_stages(middleware, predictions) != live.h)
      pass.replay_identical = false;
  }

  // Every recorded ScrollPrediction goes through predict, the indexed
  // analyze, and a fresh per-session FlowController::replan, in delivery
  // order, each under its own span. Returns the replayed policies'
  // fingerprint, which must equal the delivered one.
  std::uint64_t replay_stages(const Middleware& middleware,
                              const std::vector<ScrollPrediction>& recorded) {
    const ScrollTracker& tracker = middleware.tracker();
    FlowController flow(middleware.flow_controller().params());
    Fnv fp;
    for (const ScrollPrediction& rec : recorded) {
      ++replay_id_;
      std::optional<ScrollPrediction> pred;
      {
        Scope span(tracer_, "core.tracker.predict", replay_id_);
        pred = tracker.predict(rec.gesture, rec.viewport0);
      }
      std::optional<ScrollAnalysis> analysis;
      {
        Scope span(tracer_, "core.tracker.analyze", replay_id_);
        analysis = tracker.analyze(*pred, middleware.objects(),
                                   middleware.object_index());
      }
      std::optional<DownloadPolicy> policy;
      {
        Scope span(tracer_, "core.flow.replan", replay_id_);
        policy = flow.replan(*analysis, middleware.objects(), bandwidth_);
      }
      fold_policy(fp, *policy);
    }
    return fp.h;
  }

  Tracer& tracer_;
  DeviceProfile device_;
  BandwidthTrace bandwidth_;
  std::vector<SessionInput> inputs_;
  std::uint64_t gesture_id_ = 0;
  std::uint64_t replay_id_ = 0;
};

}  // namespace

Result run_feed_scroll(const Options& options, Tracer& tracer) {
  FeedScroll bench(options, tracer);
  Result result;
  const Pass first = bench.run();  // warm-up; its outputs are the reference
  result.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  result.fingerprint = first.fingerprint;
  result.check(bench.swipes_end_in_up(),
               "feed_scroll: a swipe does not end in its touch-UP");

  // Per-unit t2p percentiles and throughput of untraced units give the
  // end-to-end numbers; traced units only feed the overhead estimate.
  // A frame miss leaves the gesture served, late: it lowers served_ratio
  // but is not a failed operation.
  std::vector<double> p50, p99, ops, traced_p50, setup_s;
  std::uint64_t misses = 0;
  bool identical = true, replay_identical = true;
  const Window window(options.seconds, options.quick ? 2 : 3);
  for (std::size_t unit = 0; window.more(unit); ++unit) {
    tracer.set_active(options.trace && unit % 2 == 1);
    const Pass pass = bench.run();
    result.attempted += pass.t2p_us.size();
    misses += pass.misses;
    identical = identical && pass.fingerprint == first.fingerprint;
    replay_identical = replay_identical && pass.replay_identical;
    setup_s.insert(setup_s.end(), pass.setup_s.begin(), pass.setup_s.end());
    if (tracer.active()) {
      traced_p50.push_back(percentile(pass.t2p_us, 50));
    } else {
      p50.push_back(percentile(pass.t2p_us, 50));
      p99.push_back(percentile(pass.t2p_us, 99));
      ops.push_back(static_cast<double>(pass.t2p_us.size()) * 1e6 /
                    pass.busy_us);
    }
  }
  tracer.set_active(false);
  result.check(!first.t2p_us.empty(),
               "feed_scroll: no gesture delivered a policy");
  result.check(identical,
               "feed_scroll: a unit delivered policies that differ from the "
               "first unit's");
  result.check(replay_identical,
               "feed_scroll: stage replay policies differ from the delivered "
               "ones");

  const double n = static_cast<double>(first.t2p_us.size());
  const double attempted = static_cast<double>(result.attempted);
  result.metric("op_p50_us", fastest(p50), "us");
  result.metric("op_p99_us", fastest(p99), "us");
  result.metric("op_samples", n, "count");
  result.metric("ops_per_s", highest(ops), "1/s");
  result.metric("served_ratio",
                1.0 - static_cast<double>(misses) / attempted, "ratio");
  result.metric("setup_s", median(setup_s), "s");
  result.metric("core.tracker.still_share", static_cast<double>(first.still) / n,
                "ratio");
  result.metric("core.tracker.involved_per_gesture",
                static_cast<double>(first.involved) / n, "count");
  result.metric("core.flow.rows_computed_per_gesture",
                static_cast<double>(first.rows_computed) / n, "count");
  result.metric("core.flow.full_reuse_ratio",
                static_cast<double>(first.full_reuses) /
                    static_cast<double>(first.solves),
                "ratio");
  if (!options.trace) return result;

  const std::vector<double> on_touch = tracer.self_us("gesture.on_touch_event");
  const std::vector<double> on_gesture =
      tracer.self_us("core.middleware.on_gesture");
  const std::vector<double> predict = tracer.self_us("core.tracker.predict");
  const std::vector<double> analyze = tracer.self_us("core.tracker.analyze");
  const std::vector<double> replan = tracer.self_us("core.flow.replan");
  result.metric("gesture.recognize_us.p50", percentile(on_touch, 50), "us");
  result.metric("gesture.recognize_us.p99", percentile(on_touch, 99), "us");
  result.metric("core.middleware.on_gesture_us.p50", percentile(on_gesture, 50),
                "us");
  result.metric("core.middleware.on_gesture_us.p99", percentile(on_gesture, 99),
                "us");
  result.metric("core.tracker.predict_us.p50", percentile(predict, 50), "us");
  result.metric("core.tracker.predict_us.p99", percentile(predict, 99), "us");
  result.metric("core.tracker.analyze_us.p50", percentile(analyze, 50), "us");
  result.metric("core.tracker.analyze_us.p99", percentile(analyze, 99), "us");
  result.metric("core.flow.replan_us.p50", percentile(replan, 50), "us");
  result.metric("core.flow.replan_us.p99", percentile(replan, 99), "us");
  // Shares of total time, so they add up: the recognizer's share of t2p,
  // and each replayed stage's share of on_gesture (the rest is the
  // middleware's own bookkeeping: viewport update, copies, the callback).
  const double touch_self = sum(on_touch), gesture_self = sum(on_gesture);
  const double stages = sum(predict) + sum(analyze) + sum(replan);
  result.metric("gesture.recognize_share",
                touch_self / (touch_self + gesture_self), "ratio");
  result.metric("core.tracker.predict_share", sum(predict) / gesture_self,
                "ratio");
  result.metric("core.tracker.analyze_share", sum(analyze) / gesture_self,
                "ratio");
  result.metric("core.flow.replan_share", sum(replan) / gesture_self, "ratio");
  result.metric("core.unattributed_share", 1.0 - stages / gesture_self,
                "ratio");
  result.metric("trace.overhead_share",
                overhead_share(fastest(traced_p50), fastest(p50)), "ratio");
  return result;
}

}  // namespace mfbench
