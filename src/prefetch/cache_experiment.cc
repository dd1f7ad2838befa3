#include "prefetch/cache_experiment.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "http/cache.h"
#include "http/fetch_pipeline.h"
#include "http/proxy.h"
#include "http/sim_http.h"
#include "net/link.h"
#include "overload/admission.h"
#include "prefetch/planner.h"
#include "sim/arrivals.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/stats.h"

namespace mfhttp::prefetch {

namespace {

struct Outcome {
  bool done = false;
  FetchResult result;
};

}  // namespace

const char* to_string(CacheArm arm) {
  switch (arm) {
    case CacheArm::kNoCache: return "no-cache";
    case CacheArm::kCache: return "cache";
    case CacheArm::kCachePrefetch: return "cache+prefetch";
  }
  return "?";
}

CacheExperimentConfig::CacheExperimentConfig() {
  // Driver-scaled defaults: capacity holds roughly half the catalog (so
  // eviction and admission actually run), TTL covers a fraction of the
  // horizon (so revalidation actually runs), and the prefetch budget allows
  // a handful of warm-ups per prediction.
  cache.cache.capacity_bytes = 1'200'000;
  cache.cache.default_ttl_ms = 6'000;
  cache.cache.stale_while_revalidate_ms = 2'000;
  cache.cache.max_object_fraction = 0.25;
  cache.cache.cost_aware_admission = true;
  cache.prefetch.min_value = 0.0;
  cache.prefetch.max_bytes_per_plan = 250'000;
  cache.prefetch.lead_time_ms = 300;
}

CacheExperimentResult run_cache_experiment(const CacheExperimentConfig& config) {
  Simulator sim;

  // Shared catalog with Zipf popularity.
  Rng master(config.seed);
  Rng size_rng = master.fork();
  ObjectStore store;
  std::vector<std::string> paths;
  std::vector<Bytes> sizes;
  std::vector<double> popularity;
  for (int i = 0; i < config.catalog_size; ++i) {
    const std::string path = "/obj/" + std::to_string(i) + ".bin";
    const Bytes size = static_cast<Bytes>(
        size_rng.uniform(static_cast<double>(config.min_object_bytes),
                         static_cast<double>(config.max_object_bytes)));
    store.put(path, size);
    paths.push_back(path);
    sizes.push_back(size);
    popularity.push_back(1.0 / std::pow(static_cast<double>(i + 1), config.zipf_s));
  }

  // Shared origin hop; per-session client links.
  Link server_link(sim, {BandwidthTrace::constant(config.server_bytes_per_s),
                         config.server_latency_ms, 5, Link::Sharing::kFifo});
  SimHttpOrigin origin(sim, &store, &server_link, {config.origin_delay_ms});

  const bool with_cache = config.arm != CacheArm::kNoCache;
  const bool with_prefetch = config.arm == CacheArm::kCachePrefetch;
  std::unique_ptr<HttpCache> cache;
  if (with_cache) cache = std::make_unique<HttpCache>(config.cache.cache);

  overload::AdmissionParams admission_params;
  admission_params.max_inflight_upstream = config.max_inflight_upstream;
  admission_params.seed = config.seed;
  overload::AdmissionController admission(admission_params);

  // One pipeline per session, all sharing the origin, the validating cache,
  // and the admission front door — the middleware-server deployment.
  std::vector<std::unique_ptr<FetchPipeline>> pipelines;
  for (int s = 0; s < config.sessions; ++s) {
    FetchPipelineBuilder builder(sim, &origin);
    builder.client_link(Link::Params{config.client_bandwidth,
                                     config.client_latency_ms, 5,
                                     Link::Sharing::kFairShare});
    if (with_cache) builder.with_cache(cache.get());
    builder.with_admission(&admission);
    pipelines.push_back(builder.build());
  }

  PrefetchPlanner planner(config.cache.prefetch);

  // Pre-draw every session's arrival schedule and object sequence so the
  // trace is a pure function of the seed, identical across arms.
  std::vector<Outcome> outcomes;
  for (int s = 0; s < config.sessions; ++s) {
    Rng arrivals_rng = master.fork();
    Rng object_rng = master.fork();
    Rng predict_rng = master.fork();
    const std::string session = "s" + std::to_string(s);
    MitmProxy* proxy = &pipelines[static_cast<std::size_t>(s)]->proxy();
    for (TimeMs at :
         poisson_arrivals({config.rate_per_session_per_s, 0, config.horizon_ms},
                          arrivals_rng)) {
      const std::size_t obj = object_rng.weighted_index(popularity);
      const std::string url = "http://origin.test" + paths[obj];

      // Prediction stream: announced lead_ms early, sometimes naming a decoy.
      // Drawn for every arm so the object sequence stays identical; only the
      // prefetch arm acts on it.
      const bool correct = predict_rng.chance(config.prediction_accuracy);
      const std::size_t predicted =
          correct ? obj
                  : static_cast<std::size_t>(predict_rng.uniform_int(
                        0, static_cast<std::int64_t>(paths.size()) - 1));
      if (with_prefetch && at > config.prediction_lead_ms) {
        const TimeMs announce_at = at - config.prediction_lead_ms;
        PrefetchCandidate candidate;
        candidate.object_index = predicted;
        candidate.url = "http://origin.test" + paths[predicted];
        candidate.bytes = sizes[predicted];
        candidate.entry_time_ms = static_cast<double>(config.prediction_lead_ms);
        candidate.value = 1.0;
        sim.schedule_at(announce_at, [&sim, &planner, proxy, candidate] {
          PrefetchPlan plan = planner.plan({candidate}, sim.now());
          for (const PrefetchItem& item : plan.items) {
            sim.schedule_at(item.launch_at_ms,
                            [proxy, url = item.url] { proxy->prefetch(url); });
          }
        });
      }

      const std::size_t index = outcomes.size();
      outcomes.push_back({false, {}});
      sim.schedule_at(at, [proxy, &outcomes, index, session, url] {
        HttpRequest request = HttpRequest::get(url);
        request.set_session(session);
        request.set_priority_hint(overload::kPriorityViewport);
        FetchCallbacks cb;
        cb.on_complete = [&outcomes, index](const FetchResult& r) {
          outcomes[index].done = true;
          outcomes[index].result = r;
        };
        proxy->fetch(request, std::move(cb));
      });
    }
  }

  sim.run();

  CacheExperimentResult out;
  out.arm = to_string(config.arm);
  out.trace = config.trace_name;
  out.sessions = config.sessions;
  out.requests = outcomes.size();

  Samples load_ms;
  for (const Outcome& o : outcomes) {
    if (!o.done || o.result.status != 200) {
      ++out.failed;
      continue;
    }
    ++out.completed;
    out.makespan_ms = std::max(out.makespan_ms, o.result.complete_ms);
    load_ms.add(static_cast<double>(o.result.latency_ms()));
    if (o.result.latency_ms() <= config.viewport_deadline_ms) {
      ++out.on_time;
      out.on_time_bytes += o.result.body_size;
    }
  }
  if (out.makespan_ms == 0) out.makespan_ms = config.horizon_ms;
  out.goodput_bytes_per_s = static_cast<double>(out.on_time_bytes) * 1000.0 /
                            static_cast<double>(out.makespan_ms);
  if (load_ms.count() > 0) {
    out.p50_load_ms = load_ms.percentile(50);
    out.p99_load_ms = load_ms.percentile(99);
  }

  out.server_link_bytes = server_link.bytes_delivered_total();
  for (const auto& pipeline : pipelines)
    out.client_link_bytes += pipeline->client_link().bytes_delivered_total();
  out.total_link_bytes = out.server_link_bytes + out.client_link_bytes;

  if (cache != nullptr) {
    const HttpCache::Stats cs = cache->stats();
    out.cache_hits = cs.hits;
    out.cache_misses = cs.misses;
    out.stale_served = cs.stale_served;
    out.revalidations = cs.revalidations;
    out.evictions = cs.evictions;
    out.prefetch_useful = cs.prefetch_useful;
    out.prefetch_wasted_bytes =
        cs.prefetch_wasted_bytes + cache->prefetched_unused_bytes();
  }
  for (const auto& pipeline : pipelines) {
    out.prefetch_issued += pipeline->proxy().stats().prefetches;
    out.prefetch_denied += pipeline->proxy().stats().prefetch_denied;
  }
  return out;
}

}  // namespace mfhttp::prefetch
