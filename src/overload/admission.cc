#include "overload/admission.h"

#include "obs/metrics.h"
#include "util/check.h"

namespace mfhttp::overload {

namespace {

obs::Counter& admitted_counter() {
  static obs::Counter& c = obs::metrics().counter("overload.admission.admitted_total");
  return c;
}

obs::Counter& rejected_counter() {
  static obs::Counter& c = obs::metrics().counter("overload.admission.rejected_total");
  return c;
}

obs::Counter& shed_counter() {
  static obs::Counter& c = obs::metrics().counter("overload.admission.shed_total");
  return c;
}

}  // namespace

AdmissionParams shard_slice(const AdmissionParams& params, std::size_t shard,
                            std::size_t shards) {
  MFHTTP_CHECK(shards > 0 && shard < shards);
  if (shards == 1) return params;
  const double n = static_cast<double>(shards);
  // Positive integer bounds split ceil-wise so no shard's bound rounds to
  // zero (a shard that can admit nothing is a routing black hole);
  // non-positive sentinels ("unlimited") pass through untouched.
  const auto split = [shards](int bound) {
    if (bound <= 0) return bound;
    return static_cast<int>((static_cast<std::size_t>(bound) + shards - 1) /
                            shards);
  };
  AdmissionParams out = params;
  out.global_rate_per_s = params.global_rate_per_s / n;
  out.global_burst = params.global_burst / n;
  out.max_inflight_upstream = split(params.max_inflight_upstream);
  out.max_dispatch_queue = split(params.max_dispatch_queue);
  out.max_deferred_global = split(params.max_deferred_global);
  out.seed = splitmix64(params.seed ^ splitmix64(shard + 1));
  return out;
}

AdmissionParams failover_slice(const AdmissionParams& params, std::size_t shard,
                               std::size_t shards, std::size_t healthy) {
  MFHTTP_CHECK(shards > 0 && shard < shards);
  MFHTTP_CHECK(healthy > 0 && healthy <= shards);
  if (shards == 1) return params;
  const double n = static_cast<double>(healthy);
  const auto split = [healthy](int bound) {
    if (bound <= 0) return bound;
    return static_cast<int>((static_cast<std::size_t>(bound) + healthy - 1) /
                            healthy);
  };
  AdmissionParams out = params;
  out.global_rate_per_s = params.global_rate_per_s / n;
  out.global_burst = params.global_burst / n;
  out.max_inflight_upstream = split(params.max_inflight_upstream);
  out.max_dispatch_queue = split(params.max_dispatch_queue);
  out.max_deferred_global = split(params.max_deferred_global);
  // Keyed to the original shard index (NOT the healthy-cohort rank): the
  // jitter stream must survive re-slicing without a discontinuity.
  out.seed = splitmix64(params.seed ^ splitmix64(shard + 1));
  return out;
}

AdmissionController::AdmissionController(AdmissionParams params)
    : params_(params),
      rng_(params.seed),
      global_bucket_(params.global_rate_per_s, params.global_burst) {}

void AdmissionController::apply_budget(const AdmissionParams& sliced) {
  params_.global_rate_per_s = sliced.global_rate_per_s;
  params_.global_burst = sliced.global_burst;
  params_.max_inflight_upstream = sliced.max_inflight_upstream;
  params_.max_dispatch_queue = sliced.max_dispatch_queue;
  params_.max_deferred_global = sliced.max_deferred_global;
  global_bucket_ = TokenBucket(sliced.global_rate_per_s, sliced.global_burst);
}

TokenBucket& AdmissionController::session_bucket(std::string_view session) {
  auto it = session_buckets_.find(session);
  if (it == session_buckets_.end()) {
    it = session_buckets_
             .emplace(std::string(session),
                      TokenBucket(params_.session_rate_per_s, params_.session_burst))
             .first;
  }
  return it->second;
}

void AdmissionController::prune_full_buckets(TimeMs now_ms) {
  // full_at() reads without refilling: a refill split into two steps is not
  // bitwise equal to one, so touching a bucket that stays could flip a later
  // verdict. A dropped bucket comes back fresh, which is what it was.
  for (auto it = session_buckets_.begin(); it != session_buckets_.end();)
    it = it->second.full_at(now_ms) ? session_buckets_.erase(it) : std::next(it);
}

Decision AdmissionController::on_request(std::string_view session, int priority,
                                         TimeMs now_ms) {
  if (++requests_ % kPruneEvery == 0) prune_full_buckets(now_ms);

  // Brownout shedding first: under pressure the cheapest thing to do with a
  // condemned request is to never touch a bucket or a queue on its behalf.
  // Level 1 sheds speculative work, level 2 also transient, level 3 also
  // viewport; structural requests always pass this gate.
  const int shed_below = static_cast<int>(brownout_);
  if (priority < shed_below && priority < kPriorityStructure) {
    shed_counter().inc();
    return {Verdict::kShed, "brownout"};
  }

  // Priority guard: low-priority work may not drain the global bucket's
  // reserve. The threshold gets a small seeded jitter so the cutoff dithers
  // instead of synchronising every session at one hard level.
  if (global_bucket_.enabled() && priority < kPriorityViewport) {
    const double guard =
        priority <= kPrioritySpeculative ? params_.speculative_guard
                                         : params_.transient_guard;
    if (guard > 0) {
      const double jitter =
          params_.guard_jitter > 0
              ? rng_.uniform(-params_.guard_jitter, params_.guard_jitter)
              : 0.0;
      const double floor = (guard + jitter) * global_bucket_.burst();
      if (global_bucket_.level(now_ms) < floor) {
        rejected_counter().inc();
        return {Verdict::kReject, "priority_guard"};
      }
    }
  }

  // A disabled per-session bucket always admits, so none is created for it:
  // the map would otherwise grow by one node per session ever seen.
  if (params_.session_rate_per_s > 0 && !session_bucket(session).try_take(now_ms)) {
    rejected_counter().inc();
    return {Verdict::kReject, "session_rate"};
  }
  if (!global_bucket_.try_take(now_ms)) {
    rejected_counter().inc();
    return {Verdict::kReject, "global_rate"};
  }

  admitted_counter().inc();
  return {Verdict::kAdmit, ""};
}

bool AdmissionController::try_defer(std::string_view session) {
  if (params_.max_deferred_global > 0 && deferred_total_ >= params_.max_deferred_global) {
    return false;
  }
  auto it = deferred_by_session_.find(session);
  const int per_session = it == deferred_by_session_.end() ? 0 : it->second;
  if (params_.max_deferred_per_session > 0 &&
      per_session >= params_.max_deferred_per_session) {
    return false;
  }
  if (it == deferred_by_session_.end())
    deferred_by_session_.emplace(std::string(session), 1);
  else
    ++it->second;
  ++deferred_total_;
  return true;
}

void AdmissionController::on_undefer(std::string_view session) {
  auto it = deferred_by_session_.find(session);
  if (it == deferred_by_session_.end()) return;
  --deferred_total_;
  if (--it->second == 0) deferred_by_session_.erase(it);
}

bool AdmissionController::try_acquire_upstream() {
  if (params_.max_inflight_upstream > 0 &&
      inflight_upstream_ >= params_.max_inflight_upstream) {
    return false;
  }
  ++inflight_upstream_;
  return true;
}

void AdmissionController::release_upstream() {
  if (inflight_upstream_ > 0) --inflight_upstream_;
}

bool AdmissionController::has_dispatch_room(int depth) const {
  return params_.max_dispatch_queue <= 0 || depth < params_.max_dispatch_queue;
}

bool AdmissionController::allow_prefetch(TimeMs now_ms) {
  static obs::Counter& denied =
      obs::metrics().counter("overload.admission.prefetch_denied_total");
  if (brownout_ != BrownoutLevel::kNormal) {
    denied.inc();
    return false;
  }
  if (params_.max_inflight_upstream > 0 &&
      static_cast<double>(inflight_upstream_) >=
          params_.prefetch_headroom_fraction *
              static_cast<double>(params_.max_inflight_upstream)) {
    denied.inc();
    return false;
  }
  if (global_bucket_.enabled() && params_.speculative_guard > 0 &&
      global_bucket_.level(now_ms) <
          params_.speculative_guard * global_bucket_.burst()) {
    denied.inc();
    return false;
  }
  return true;
}

}  // namespace mfhttp::overload
