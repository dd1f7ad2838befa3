#include "http/frontdoor.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>

#include "http/fetch_pipeline.h"
#include "http/object_store.h"
#include "http/sim_http.h"
#include "net/link.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/json.h"
#include "util/mpsc_queue.h"
#include "util/stats.h"

namespace mfhttp {

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

// Every front-door URL is this origin plus an object path.
constexpr std::string_view kOrigin = "http://origin.example";

void fnv_fold(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xffULL;
    h *= kFnvPrime;
  }
}

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Forwards the request's priority hint into the intercept decision so the
// proxy's dispatch queue orders admitted-but-waiting work by class (the
// multi-session overload driver does the same).
class HintInterceptor : public Interceptor {
 public:
  InterceptDecision on_request(const HttpRequest& request) override {
    return InterceptDecision::allow(
        request.priority_hint(overload::kPriorityViewport));
  }
};

// A touch event travelling through a shard's dispatch queue, stamped at
// enqueue so the consumer can measure queue wait + service as one
// touch-to-policy latency. kRebudget entries are control messages from the
// supervisor: they ride the same queue so the worker applies admission
// re-slices in-order with the traffic, never racing its own controller.
struct QueuedEvent {
  enum Kind : std::uint8_t { kTouch = 0, kRebudget = 1 };

  sim::TouchEvent event;
  std::uint64_t enqueue_ns = 0;
  std::uint32_t healthy = 0;  // kRebudget payload: healthy cohort size
  std::uint8_t kind = kTouch;
};

// One shard: a complete single-box serving stack (own Simulator, origin,
// pipeline) plus the dispatch queue feeding it. Owned by exactly one worker
// thread once the run starts; the only cross-shard state it touches is the
// shared CacheGhosts and its frozen UrlTable (through its cache segment),
// the lock-free queue, and the obs registry via batched flushes.
class Shard {
 public:
  Shard(std::size_t index, const FrontDoorParams& params,
        const ObjectStore* store, const std::shared_ptr<CacheGhosts>& ghosts,
        FrontDoorSessionStats* slots)
      : queue(params.queue_capacity),
        index_(index),
        shards_total_(params.shards),
        box_admission_(params.admission),
        deadline_budget_ns_(static_cast<std::uint64_t>(
                                std::max<TimeMs>(params.enqueue_deadline_ms,
                                                 0)) *
                            1'000'000ULL),
        urls_(&ghosts->urls()),
        slots_(slots),
        server_link_(sim_,
                     {BandwidthTrace::constant(params.server_bytes_per_s_total /
                                              static_cast<double>(params.shards)),
                      params.server_latency_ms, 5, Link::Sharing::kFifo}),
        origin_(sim_, store, &server_link_,
                {origin_delay_under(params, index)}),
        events_counter_(obs::metrics().counter("http.frontdoor.events_total"),
                        params.counter_flush_batch),
        requests_counter_(
            obs::metrics().counter("http.frontdoor.requests_total"),
            params.counter_flush_batch) {
    CacheParams cache_params;
    cache_params.capacity_bytes = static_cast<Bytes>(
        params.cache_capacity_total / static_cast<Bytes>(params.shards));
    cache_params.default_ttl_ms = params.cache_ttl_ms;
    cache_params.cost_aware_admission = true;
    cache_params.shared_ghosts = ghosts;

    FetchPipelineBuilder builder(sim_, &origin_);
    builder
        .client_link(Link::Params{
            BandwidthTrace::constant(params.client_bytes_per_s_total /
                                     static_cast<double>(params.shards)),
            params.client_latency_ms, 5, Link::Sharing::kFairShare})
        .with_cache(cache_params)
        .with_admission(
            overload::shard_slice(params.admission, index_, params.shards))
        .interceptor(&interceptor_);
    if (params.fault_plan && !params.fault_plan->pipeline_empty()) {
      // Per-shard remix: shards draw decorrelated fault streams from one
      // plan, the same derivation shard_slice uses for guard jitter.
      fault::FaultPlan shard_plan = *params.fault_plan;
      shard_plan.seed =
          splitmix64(params.fault_plan->seed ^ splitmix64(index_ + 1));
      builder.with_faults(&shard_plan);
    }
    if (params.resilience) {
      ResilientFetcherParams resilience = *params.resilience;
      resilience.seed = splitmix64(resilience.seed ^ splitmix64(index_ + 1));
      builder.with_resilience(resilience);
    }
    pipeline_ = builder.build();
    request_.headers.set(HeaderId::kHost, kOrigin.substr(7));

    if (params.fault_plan) {
      for (const fault::ShardFault& f : params.fault_plan->frontdoor) {
        if (!f.applies_to(index_)) continue;
        switch (f.kind) {
          case fault::ShardFault::Kind::kStall:
            stall_at_ = f.at_event;
            stall_ms_ = f.stall_ms;
            break;
          case fault::ShardFault::Kind::kCrash:
            crash_at_ = f.at_event;
            break;
          case fault::ShardFault::Kind::kSaturate:
            saturate_begin_ = f.at_event;
            saturate_end_ = f.at_event + f.count;
            saturate_ms_ = f.stall_ms;
            break;
          case fault::ShardFault::Kind::kOriginSlow:
            break;  // consumed in origin_delay_under
        }
      }
    }
  }

  // The run-finished flag (threaded mode): a chaos sleep outliving the run
  // aborts its remainder so joins never wait out dead air.
  void set_run_over_flag(const std::atomic<bool>* flag) { run_over_ = flag; }

  void process(const QueuedEvent& qe) {
    if (qe.kind == QueuedEvent::kRebudget) {
      // Applied on the worker thread, in queue order: the controller is
      // externally synchronized and this worker is its only owner.
      if (overload::AdmissionController* admission = pipeline_->admission())
        admission->apply_budget(overload::failover_slice(
            box_admission_, index_, shards_total_, qe.healthy));
      note_progress();
      return;
    }
    if (!serving_ || events_ >= crash_at_) {
      if (serving_) crash_now();
      shed(qe);
      return;
    }
    heartbeat.busy.store(true, std::memory_order_relaxed);
    if (events_ == stall_at_) {
      mark_fault_onset();
      chaos_sleep(stall_ms_);
    }
    if (events_ >= saturate_begin_ && events_ < saturate_end_) {
      mark_fault_onset();
      chaos_sleep(saturate_ms_);
    }
    // Deadline-aware serve: an event already past its freshness budget is
    // shed, not served — the viewport it described has scrolled away, and
    // burning origin/link budget on it only lengthens the backlog.
    if (deadline_budget_ns_ > 0 &&
        wall_ns() > qe.enqueue_ns + deadline_budget_ns_) {
      heartbeat.busy.store(false, std::memory_order_relaxed);
      ++deadline_sheds_;
      shed(qe);
      return;
    }
    const sim::TouchEvent& e = qe.event;
    if (static_cast<TimeMs>(e.ts_ms) > sim_.now())
      sim_.run_until(static_cast<TimeMs>(e.ts_ms));
    FrontDoorSessionStats& slot = slots_[e.session];
    // One request per event, its target swapped per URL: the session and
    // priority headers are the same for all of the event's URLs.
    char session[24] = {'s'};
    const char* session_end =
        std::to_chars(session + 1, session + sizeof(session), e.session).ptr;
    request_.set_session(std::string_view(session, session_end - session));
    request_.set_priority_hint(e.priority);
    for (std::size_t u = 0; u < e.n_urls; ++u) {
      request_.target.assign(urls_->url(e.urls[u]).substr(kOrigin.size()));
      ++slot.requests;
      ++requests_;
      requests_counter_.inc();
      FetchCallbacks callbacks;
      callbacks.on_complete = [&slot](const FetchResult& r) {
        if (r.rejected) {
          ++slot.rejected;
        } else if (r.status == 200 && !r.blocked) {
          ++slot.completed;
          slot.bytes_to_client += static_cast<std::uint64_t>(r.body_size);
        } else {
          ++slot.failed;
        }
        fnv_fold(slot.fingerprint,
                 (static_cast<std::uint64_t>(static_cast<std::uint32_t>(r.status))
                  << 32) |
                     (r.rejected ? 2u : 0u) | (r.blocked ? 1u : 0u));
        fnv_fold(slot.fingerprint, static_cast<std::uint64_t>(r.body_size));
        fnv_fold(slot.fingerprint, static_cast<std::uint64_t>(r.complete_ms));
      };
      pipeline_->proxy().fetch(request_, std::move(callbacks));
    }
    ++events_;
    events_counter_.inc();
    // Touch-to-policy: event production to every policy verdict issued
    // (admission decided, upstream dispatched or bounce scheduled).
    latencies_us_.push_back(static_cast<double>(wall_ns() - qe.enqueue_ns) /
                            1000.0);
    heartbeat.busy.store(false, std::memory_order_relaxed);
    heartbeat.progress.fetch_add(1, std::memory_order_release);
  }

  // Run the shard's world dry (deferred completions, queued dispatch) and
  // push the batched counters out. Call after the last event.
  void drain() {
    sim_.run();
    events_counter_.flush();
    requests_counter_.flush();
  }

  FrontDoorShardReport report() const {
    FrontDoorShardReport r;
    r.shard = index_;
    r.events = events_;
    r.requests = requests_;
    r.worker_sheds = worker_sheds_;
    r.proxy = pipeline_->proxy().stats();
    r.cache = pipeline_->cache()->stats();
    if (ResilientFetcher* resilient = pipeline_->resilient())
      r.breaker = CircuitBreaker::state_name(
          resilient->breaker().state("origin.example"));
    return r;
  }

  const std::vector<double>& latencies_us() const { return latencies_us_; }
  std::vector<double> take_latencies_us() { return std::move(latencies_us_); }
  std::size_t worker_sheds() const { return worker_sheds_; }
  std::size_t deadline_sheds() const { return deadline_sheds_; }

  // Single-consumer dispatch queue; producers push, the owning worker pops.
  MpscQueue<QueuedEvent> queue;
  // Published by this shard's worker, sampled by the supervisor.
  ShardHeartbeat heartbeat;

 private:
  static TimeMs origin_delay_under(const FrontDoorParams& params,
                                   std::size_t index) {
    double delay = static_cast<double>(params.origin_delay_ms);
    if (params.fault_plan) {
      for (const fault::ShardFault& f : params.fault_plan->frontdoor)
        if (f.kind == fault::ShardFault::Kind::kOriginSlow &&
            f.applies_to(index))
          delay *= f.factor;
    }
    return static_cast<TimeMs>(delay);
  }

  void note_progress() {
    heartbeat.progress.fetch_add(1, std::memory_order_release);
  }

  void mark_fault_onset() {
    std::uint64_t expected = 0;
    heartbeat.fault_onset_ns.compare_exchange_strong(
        expected, wall_ns(), std::memory_order_relaxed);
  }

  void crash_now() {
    serving_ = false;
    mark_fault_onset();
    heartbeat.serving.store(false, std::memory_order_relaxed);
  }

  // Wall-clock worker sleep in small slices: a stall that outlives the run
  // stops sleeping once the producer is done (the backlog then drains as
  // past-deadline sheds), so nothing ever waits out a stall against an
  // already-finished timeline.
  void chaos_sleep(TimeMs ms) {
    constexpr TimeMs kSliceMs = 5;
    for (TimeMs slept = 0; slept < ms;) {
      const TimeMs slice = std::min<TimeMs>(kSliceMs, ms - slept);
      std::this_thread::sleep_for(std::chrono::milliseconds(slice));
      slept += slice;
      if (run_over_ != nullptr &&
          run_over_->load(std::memory_order_acquire))
        return;
    }
  }

  // Drain one event as an explicit 503 shed: counted per session (the
  // requests land in `rejected`), never folded into the fingerprint — the
  // fingerprint witnesses the *served* stream, and sheds only occur in
  // fault runs where bytes are not compared anyway.
  void shed(const QueuedEvent& qe) {
    const sim::TouchEvent& e = qe.event;
    FrontDoorSessionStats& slot = slots_[e.session];
    slot.requests += e.n_urls;
    slot.rejected += e.n_urls;
    ++events_;
    ++worker_sheds_;
    events_counter_.inc();
    latencies_us_.push_back(static_cast<double>(wall_ns() - qe.enqueue_ns) /
                            1000.0);
    note_progress();
  }

  std::size_t index_;
  std::size_t shards_total_;
  overload::AdmissionParams box_admission_;
  std::uint64_t deadline_budget_ns_;
  const UrlTable* urls_;  // the shared, frozen URL universe
  FrontDoorSessionStats* slots_;
  Simulator sim_;
  Link server_link_;
  SimHttpOrigin origin_;
  HintInterceptor interceptor_;
  std::unique_ptr<FetchPipeline> pipeline_;
  HttpRequest request_;  // reused for every request this shard issues
  std::size_t events_ = 0;
  std::size_t requests_ = 0;
  std::size_t worker_sheds_ = 0;
  std::size_t deadline_sheds_ = 0;
  bool serving_ = true;
  std::size_t crash_at_ = SIZE_MAX;
  std::size_t stall_at_ = SIZE_MAX;
  TimeMs stall_ms_ = 0;
  std::size_t saturate_begin_ = SIZE_MAX;
  std::size_t saturate_end_ = 0;
  TimeMs saturate_ms_ = 0;
  const std::atomic<bool>* run_over_ = nullptr;
  std::vector<double> latencies_us_;
  obs::BatchedCounter events_counter_;
  obs::BatchedCounter requests_counter_;
};

}  // namespace

std::uint64_t routing_fingerprint(std::size_t sessions, std::size_t shards) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t s = 0; s < sessions; ++s)
    fnv_fold(h, static_cast<std::uint64_t>(shard_of(s, shards)));
  return h;
}

std::size_t failover_shard_of(std::uint64_t session, std::size_t shards,
                              std::uint64_t healthy_mask) {
  // Highest-random-weight: every (session, shard) pair gets a stable
  // pseudo-random weight; the healthy shard with the largest weight wins.
  // When a shard recovers, sessions it would have won revert to it and
  // nobody else moves — the minimal-disruption property rendezvous hashing
  // exists for.
  std::size_t best = shard_of(session, shards);
  std::uint64_t best_weight = 0;
  bool found = false;
  const std::uint64_t mixed = splitmix64(session + 0x517cc1b727220a95ULL);
  for (std::size_t i = 0; i < shards && i < 64; ++i) {
    if (((healthy_mask >> i) & 1ULL) == 0) continue;
    const std::uint64_t weight =
        splitmix64(mixed ^ splitmix64(0xb5026f5aa96619e9ULL + i));
    if (!found || weight > best_weight) {
      best = i;
      best_weight = weight;
      found = true;
    }
  }
  return best;
}

void FrontDoorParams::apply_scaled_admission() {
  // Expected steady-state request rate: every arriving session eventually
  // issues touches x mean-URLs requests, so the long-run rate is the
  // arrival rate times requests per session. Fresh cache hits bypass
  // admission entirely (proxy front door, PR 4), so the token budget only
  // meets the *miss* stream — provision at half the gross rate and a
  // saturating sweep sheds its overflow deterministically instead of
  // queueing it without bound.
  const double mean_urls =
      (1.0 + static_cast<double>(load.max_urls_per_touch)) / 2.0;
  const double expected_rps =
      load.session_arrival_per_s *
      static_cast<double>(load.touches_per_session) * mean_urls;
  admission.global_rate_per_s = expected_rps * 0.50;
  admission.global_burst = expected_rps * 0.25;
  admission.session_rate_per_s = 0;  // a million lazy buckets help nobody
  admission.session_burst = 0;
  admission.max_inflight_upstream = 4096;
  admission.max_dispatch_queue = 16384;
  admission.seed = load.seed;
}

std::string FrontDoorResult::deterministic_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("bench").value("frontdoor");
  w.key("shards").value(shards);
  w.key("sessions").value(load.sessions);
  w.key("touches_per_session").value(load.touches_per_session);
  w.key("url_universe").value(load.url_universe);
  w.key("skew_exponent").value(load.skew_exponent);
  w.key("touch_rate_per_s").value(load.touch_rate_per_s);
  w.key("session_arrival_per_s").value(load.session_arrival_per_s);
  w.key("seed").value(static_cast<unsigned long long>(load.seed));
  w.key("events").value(events);
  w.key("requests").value(requests);
  w.key("completed").value(completed);
  w.key("rejected").value(rejected);
  w.key("failed").value(failed);
  w.key("cache_hits").value(cache_hits);
  w.key("bytes_to_client").value(static_cast<unsigned long long>(bytes_to_client));
  w.key("upstream_bytes_saved")
      .value(static_cast<unsigned long long>(upstream_bytes_saved));
  w.key("cache_hit_ratio").value(cache_hit_ratio);
  w.key("shed_rate").value(shed_rate);
  w.key("fingerprint").value(static_cast<unsigned long long>(fingerprint));
  w.key("routing_fingerprint").value(static_cast<unsigned long long>(routing_fp));
  // §14 fields: all zero ("off"/healthy) in fault-free runs, so including
  // them keeps the kInline/kThreaded byte-identity gate meaningful.
  w.key("supervised").value(supervised);
  w.key("failover_sessions").value(failover_sessions);
  w.key("shed_events").value(shed_events);
  w.key("deadline_shed_events").value(deadline_shed_events);
  w.key("per_shard").begin_array();
  for (const FrontDoorShardReport& s : per_shard) {
    w.begin_object();
    w.key("shard").value(s.shard);
    w.key("sessions").value(s.sessions);
    w.key("events").value(s.events);
    w.key("requests").value(s.requests);
    w.key("cache_hits").value(s.proxy.cache_hits);
    w.key("rejected").value(s.proxy.rejected);
    w.key("shed").value(s.proxy.shed);
    w.key("cache_insertions").value(s.cache.insertions);
    w.key("cache_evictions").value(s.cache.evictions);
    w.key("worker_sheds").value(s.worker_sheds);
    w.key("breaker").value(s.breaker);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

FrontDoorLoad build_front_door_load(const sim::FrontDoorLoadConfig& config) {
  MFHTTP_CHECK(config.sessions <= 0xffffffffULL);
  FrontDoorLoad load;
  load.config = config;
  load.urls = std::make_unique<UrlTable>();
  load.store.reserve(config.url_universe);
  load.urls->reserve(config.url_universe);
  std::string url(kOrigin);
  for (std::size_t i = 0; i < config.url_universe; ++i) {
    url.resize(kOrigin.size());
    url += "/obj/";
    url += std::to_string(i);
    load.store.put(std::string_view(url).substr(kOrigin.size()),
                   sim::frontdoor_object_bytes(config, i), "image/jpeg");
    MFHTTP_CHECK(load.urls->intern(url) == i);
  }
  load.urls->freeze();
  load.timeline = sim::generate_frontdoor_load(config);
  return load;
}

FrontDoorResult run_front_door(const FrontDoorParams& params,
                               FrontDoorMode mode) {
  return run_front_door(build_front_door_load(params.load), params, mode);
}

FrontDoorResult run_front_door(const FrontDoorLoad& load,
                               const FrontDoorParams& params,
                               FrontDoorMode mode) {
  MFHTTP_CHECK(params.shards >= 1);
  MFHTTP_CHECK_MSG(load.config == params.load,
                   "the load was built from another config");

  // Every shard's origin serves from the load's store, and every shard's
  // cache segment keys by the load's frozen URL table through this run's
  // own ghost list (DESIGN.md §21, §26).
  auto ghosts = std::make_shared<CacheGhosts>(*load.urls);

  std::vector<FrontDoorSessionStats> slots(params.load.sessions);
  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(params.shards);
  for (std::size_t i = 0; i < params.shards; ++i)
    shards.push_back(
        std::make_unique<Shard>(i, params, &load.store, ghosts, slots.data()));

  std::vector<std::size_t> max_depth(params.shards, 0);
  // Producer-owned shed accounting: a shed decided before an event reaches
  // a worker must not write the worker-owned stats slot (two writers, one
  // cache line). Merged with the worker slots, in session-id order, after
  // join. All-zero in fault-free runs.
  std::vector<FrontDoorSessionStats> producer_slots(params.load.sessions);
  std::vector<double> producer_latencies_us;
  std::uint64_t blocked_pushes = 0;
  std::uint64_t push_blocked_ns = 0;
  std::size_t producer_shed_events = 0;
  std::size_t producer_deadline_sheds = 0;
  std::size_t failover_sessions = 0;
  std::unique_ptr<FrontDoorSupervisor> supervisor;
  const bool supervised =
      mode == FrontDoorMode::kThreaded && params.supervisor.enabled;
  const std::uint64_t deadline_budget_ns =
      static_cast<std::uint64_t>(
          std::max<TimeMs>(params.enqueue_deadline_ms, 0)) *
      1'000'000ULL;
  const auto wall_start = std::chrono::steady_clock::now();

  if (mode == FrontDoorMode::kInline) {
    // The historical single-box path: every event served on this thread in
    // global order. With shards == 1 this is the byte-identity reference.
    // Supervision and deadlines are no-ops here: there is no worker to
    // watch and no queue for an event to grow stale in.
    for (const sim::TouchEvent& e : load.timeline) {
      QueuedEvent qe{e, wall_ns()};
      shards[shard_of(e.session, params.shards)]->process(qe);
    }
    for (auto& shard : shards) shard->drain();
  } else {
    std::atomic<bool> producers_done{false};
    for (auto& shard : shards) shard->set_run_over_flag(&producers_done);

    if (supervised) {
      supervisor = std::make_unique<FrontDoorSupervisor>(params.supervisor,
                                                         params.shards);
      for (std::size_t i = 0; i < params.shards; ++i) {
        Shard* shard = shards[i].get();
        supervisor->attach(i, &shard->heartbeat,
                           [shard] { return shard->queue.approx_size(); });
      }
      // Budget re-distribution rides the shards' own control queues: each
      // healthy worker applies its failover_slice in-order with traffic,
      // so the supervisor never touches a controller it does not own.
      std::vector<Shard*> shard_ptrs;
      shard_ptrs.reserve(shards.size());
      for (auto& shard : shards) shard_ptrs.push_back(shard.get());
      supervisor->set_on_mask_change(
          [shard_ptrs](std::uint64_t mask, std::size_t healthy) {
            QueuedEvent control;
            control.kind = QueuedEvent::kRebudget;
            control.healthy = static_cast<std::uint32_t>(healthy);
            control.enqueue_ns = wall_ns();
            for (std::size_t i = 0; i < shard_ptrs.size(); ++i) {
              if (((mask >> i) & 1ULL) == 0) continue;
              // Best-effort: a full queue skips the re-slice; the next
              // mask change (or recovery) re-issues it.
              shard_ptrs[i]->queue.try_push(control);
            }
          });
      supervisor->start();
    }

    std::vector<std::thread> workers;
    workers.reserve(params.shards);
    for (auto& shard_ptr : shards) {
      Shard* shard = shard_ptr.get();
      workers.emplace_back([shard, &producers_done] {
        QueuedEvent qe;
        for (;;) {
          if (shard->queue.try_pop(qe)) {
            shard->process(qe);
            continue;
          }
          if (producers_done.load(std::memory_order_acquire)) {
            // One more look: the flag may have been raised between our
            // failed pop and the producer's final push landing.
            if (shard->queue.try_pop(qe)) {
              shard->process(qe);
              continue;
            }
            break;
          }
          std::this_thread::yield();
        }
        shard->drain();
      });
    }

    // This thread is the single in-order producer: pushing the globally
    // sorted timeline means every shard consumes its sessions' events in
    // timestamp order, which is what makes any shard count reproducible.
    // A session's shard is pinned at its FIRST event — primary routing
    // when that shard is healthy, rendezvous failover when it is wedged —
    // and never migrates afterwards: determinism is per-session, and a
    // mid-stream move would split one session's state across two worlds.
    const std::uint64_t all_healthy =
        params.shards >= 64 ? ~0ULL : (1ULL << params.shards) - 1;
    std::vector<std::int32_t> assigned(params.load.sessions, -1);
    auto producer_shed = [&](const sim::TouchEvent& e,
                             std::uint64_t enqueue_ns) {
      FrontDoorSessionStats& slot = producer_slots[e.session];
      slot.requests += e.n_urls;
      slot.rejected += e.n_urls;
      ++producer_shed_events;
      producer_latencies_us.push_back(
          static_cast<double>(wall_ns() - enqueue_ns) / 1000.0);
    };
    for (const sim::TouchEvent& e : load.timeline) {
      std::uint64_t mask =
          supervised ? supervisor->healthy_mask() : all_healthy;
      std::int32_t s = assigned[e.session];
      if (s < 0) {
        const std::size_t primary = shard_of(e.session, params.shards);
        // A crashed worker lowers `serving` at the crash event itself, a
        // watchdog sample or two before the mask shows it: pin no new
        // session to it from that event on.
        if (supervised &&
            !shards[primary]->heartbeat.serving.load(std::memory_order_relaxed))
          mask &= ~(1ULL << primary);
        if (!supervised || !params.supervisor.failover || mask == 0 ||
            ((mask >> primary) & 1ULL) != 0) {
          s = static_cast<std::int32_t>(primary);
        } else {
          s = static_cast<std::int32_t>(
              failover_shard_of(e.session, params.shards, mask));
          ++failover_sessions;
        }
        assigned[e.session] = s;
      }
      const std::uint64_t enqueue_ns = wall_ns();
      if (supervised && ((mask >> s) & 1ULL) == 0) {
        // The session's pinned shard is wedged: shed instantly rather than
        // feeding a queue nobody is draining.
        producer_shed(e, enqueue_ns);
        continue;
      }
      Shard& shard = *shards[static_cast<std::size_t>(s)];
      QueuedEvent qe{e, enqueue_ns};
      const std::uint64_t deadline =
          deadline_budget_ns > 0 ? enqueue_ns + deadline_budget_ns : 0;
      const std::uint64_t blocked_before = push_blocked_ns;
      if (!shard.queue.push_until(qe, deadline, wall_ns, &push_blocked_ns)) {
        ++producer_deadline_sheds;
        producer_shed(e, enqueue_ns);
        continue;
      }
      if (push_blocked_ns != blocked_before) ++blocked_pushes;
      max_depth[static_cast<std::size_t>(s)] =
          std::max(max_depth[static_cast<std::size_t>(s)],
                   shard.queue.approx_size());
    }
    producers_done.store(true, std::memory_order_release);
    for (std::thread& t : workers) t.join();
    if (supervisor) supervisor->stop();
  }

  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                wall_start)
          .count();

  FrontDoorResult result;
  result.shards = params.shards;
  result.threaded = mode == FrontDoorMode::kThreaded;
  result.load = params.load;
  result.wall_ms = wall_ms;
  result.supervised = params.supervisor.enabled;
  result.failover_sessions = failover_sessions;
  result.deadline_shed_events = producer_deadline_sheds;

  // Merge strictly in session-id order: completion interleavings already
  // collapsed into per-slot state, so these totals (and the fingerprint
  // fold) are pure functions of per-shard processing order. Producer-side
  // shed slots merge alongside; the fingerprint folds worker slots only —
  // it witnesses the served stream, and producer sheds happen exclusively
  // in fault runs where bytes are never compared.
  result.fingerprint = 1469598103934665603ULL;
  for (std::size_t s = 0; s < params.load.sessions; ++s) {
    const FrontDoorSessionStats& slot = slots[s];
    const FrontDoorSessionStats& shed_slot = producer_slots[s];
    result.requests += slot.requests + shed_slot.requests;
    result.completed += slot.completed;
    result.rejected += slot.rejected + shed_slot.rejected;
    result.failed += slot.failed;
    result.bytes_to_client += static_cast<Bytes>(slot.bytes_to_client);
    fnv_fold(result.fingerprint, slot.fingerprint);
  }
  result.routing_fp = routing_fingerprint(params.load.sessions, params.shards);

  result.events = producer_shed_events;
  result.shed_events = producer_shed_events;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    FrontDoorShardReport report = shards[i]->report();
    report.max_queue_depth = max_depth[i];
    if (supervisor) {
      const FrontDoorSupervisor::ShardStats stats = supervisor->shard_stats(i);
      report.final_health = stats.final_health;
      report.wedged_spells = stats.wedged_spells;
      report.time_to_detect_ms = stats.time_to_detect_ms;
      report.time_to_recover_ms = stats.time_to_recover_ms;
      if (stats.time_to_detect_ms > 0 &&
          (result.first_detect_ms == 0 ||
           stats.time_to_detect_ms < result.first_detect_ms))
        result.first_detect_ms = stats.time_to_detect_ms;
      if (stats.time_to_recover_ms > 0 &&
          (result.first_recover_ms == 0 ||
           stats.time_to_recover_ms < result.first_recover_ms))
        result.first_recover_ms = stats.time_to_recover_ms;
    }
    result.events += report.events;
    result.shed_events += report.worker_sheds;
    result.deadline_shed_events += shards[i]->deadline_sheds();
    result.cache_hits += report.proxy.cache_hits;
    result.upstream_bytes_saved += report.proxy.bytes_from_upstream_saved;
    result.per_shard.push_back(std::move(report));
  }
  if (supervisor) result.wedged_declared = supervisor->wedged_declared_total();
  for (std::size_t s = 0; s < params.load.sessions; ++s)
    ++result.per_shard[shard_of(s, params.shards)].sessions;

  result.cache_hit_ratio =
      result.requests > 0
          ? static_cast<double>(result.cache_hits) /
                static_cast<double>(result.requests)
          : 0;
  result.shed_rate = result.requests > 0
                         ? static_cast<double>(result.rejected) /
                               static_cast<double>(result.requests)
                         : 0;

  // Touch-to-policy spans every event verdict, sheds included: a shed IS
  // the policy answer the touch got, and excluding it would make a
  // collapsing run look fast.
  std::vector<double> latencies = shards[0]->take_latencies_us();
  for (std::size_t i = 1; i < shards.size(); ++i) {
    const std::vector<double>& more = shards[i]->latencies_us();
    latencies.insert(latencies.end(), more.begin(), more.end());
  }
  latencies.insert(latencies.end(), producer_latencies_us.begin(),
                   producer_latencies_us.end());
  result.p50_touch_to_policy_us = select_percentile(latencies, 50);
  result.p99_touch_to_policy_us = select_percentile(latencies, 99);
  if (wall_ms > 0) {
    result.sessions_per_sec =
        static_cast<double>(params.load.sessions) * 1000.0 / wall_ms;
    result.events_per_sec =
        static_cast<double>(result.events) * 1000.0 / wall_ms;
  }

  // Saturation + shedding observability (satellite: the old silent spin is
  // now a counted, bounded wait).
  obs::Registry& registry = obs::metrics();
  registry.counter("http.frontdoor.backpressure_retries_total")
      .inc(blocked_pushes);
  registry.counter("http.frontdoor.blocked_pushes_total").inc(blocked_pushes);
  registry.counter("http.frontdoor.push_blocked_ns_total").inc(push_blocked_ns);
  registry.counter("http.frontdoor.shed.deadline_total")
      .inc(result.deadline_shed_events);
  registry.counter("http.frontdoor.shed.wedged_total")
      .inc(producer_shed_events - producer_deadline_sheds);
  std::size_t worker_shed_total = 0;
  for (const auto& shard : shards) worker_shed_total += shard->worker_sheds();
  registry.counter("http.frontdoor.shed.worker_total").inc(worker_shed_total);
  registry.counter("http.frontdoor.failover_sessions_total")
      .inc(failover_sessions);

  return result;
}

}  // namespace mfhttp
