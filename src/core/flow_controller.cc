#include "core/flow_controller.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/logging.h"

namespace mfhttp {

const DownloadDecision* DownloadPolicy::find(std::size_t object_index) const {
  for (const DownloadDecision& d : decisions)
    if (d.object_index == object_index) return &d;
  return nullptr;
}

FlowController::FlowController(Params params) : params_(std::move(params)) {
  MFHTTP_CHECK(params_.cost != nullptr);
  MFHTTP_CHECK(params_.capacity_unit_bytes > 0);
  MFHTTP_CHECK(params_.weights.p >= 0 && params_.weights.q >= 0);
}

void FlowController::reserve(const std::vector<MediaObject>& objects) {
  std::size_t versions = 0;
  for (const MediaObject& obj : objects) versions += obj.versions.size();
  buffers_.involved.reserve(objects.size());
  buffers_.coverage.reserve(objects.size());
  buffers_.items.reserve(objects.size());
  buffers_.qoe.reserve(versions);
  buffers_.cost.reserve(versions);
  scratch_.items.reserve(objects.size());
  scratch_.caps.reserve(objects.size());
  scratch_.row_begin.reserve(objects.size() + 2);
}

DownloadPolicy FlowController::optimize(const ScrollAnalysis& analysis,
                                        const std::vector<MediaObject>& objects,
                                        const BandwidthTrace& bandwidth) const {
  BuildBuffers buffers;  // stateless entry point: fresh buffers, no DP reuse
  return plan(analysis, objects, bandwidth, nullptr, buffers);
}

DownloadPolicy FlowController::replan(const ScrollAnalysis& analysis,
                                      const std::vector<MediaObject>& objects,
                                      const BandwidthTrace& bandwidth) {
  static obs::Counter& replans_total =
      obs::metrics().counter("core.flow.replans_total");
  static obs::Counter& full_reuse_total =
      obs::metrics().counter("core.flow.replan_full_reuse_total");
  replans_total.inc();
  const std::uint64_t reuses_before = scratch_.full_reuses;
  DownloadPolicy policy = plan(analysis, objects, bandwidth, &scratch_, buffers_);
  if (scratch_.full_reuses != reuses_before) full_reuse_total.inc();
  return policy;
}

DownloadPolicy FlowController::plan(const ScrollAnalysis& analysis,
                                    const std::vector<MediaObject>& objects,
                                    const BandwidthTrace& bandwidth,
                                    KnapsackScratch* scratch,
                                    BuildBuffers& buffers) const {
  static obs::Counter& policies_total =
      obs::metrics().counter("core.flow.policies_total");
  policies_total.inc();
  DownloadPolicy policy;

  // The listed objects already come in entry order (Eq. 13's t_1 <= t_2
  // <= ...); the knapsack takes the involved ones.
  std::vector<std::size_t>& involved = buffers.involved;
  std::vector<const ObjectCoverage*>& coverage = buffers.coverage;
  involved.clear();
  coverage.clear();
  for (const ObjectCoverage& cov : analysis.listed) {
    if (!cov.involved) continue;
    MFHTTP_CHECK(cov.object_index < objects.size());
    if (!speculation_enabled_ && !cov.in_initial_viewport &&
        !cov.in_final_viewport) {
      static obs::Counter& speculation_dropped = obs::metrics().counter(
          "core.flow.speculation_dropped_total");
      speculation_dropped.inc();
      continue;
    }
    involved.push_back(cov.object_index);
    coverage.push_back(&cov);
  }
  if (involved.empty()) return policy;

  if (degraded_) {
    static obs::Counter& degraded_total =
        obs::metrics().counter("core.flow.degraded_policies_total");
    degraded_total.inc();
    for (const ObjectCoverage* cov : coverage) {
      DownloadDecision d;
      d.object_index = cov->object_index;
      d.entry_time_ms = cov->entry_time_ms;
      d.version = 0;  // lowest version: cheap and certain to arrive
      policy.total_bytes += objects[cov->object_index].versions.front().size;
      policy.decisions.push_back(d);
    }
    MFHTTP_DEBUG << "flow policy (degraded): " << policy.decisions.size()
                 << " involved, " << policy.total_bytes << " bytes";
    return policy;
  }

  const ScrollPrediction& pred = analysis.prediction;
  const double S = pred.viewport0.area();
  const double T = pred.duration_ms;
  const TimeMs start = pred.start_time_ms;

  // c_M — Eq. 10's normalizer; guard against degenerate zero (e.g. zero-size
  // objects): costs then normalize to 0.
  double c_m = max_cost(params_.cost, objects, involved, bandwidth, start, T);

  // Build the knapsack instance in entry order. The buffers (and the inner
  // values/weights vectors of recycled items) keep their capacity across
  // calls, so steady-state replans build the instance without allocating.
  std::vector<KnapsackItem>& items = buffers.items;
  items.resize(involved.size());
  Bytes total_top_weight = 0;
  for (std::size_t idx : involved)
    total_top_weight += objects[idx].top_version().size;

  std::vector<double>& qoe_cache = buffers.qoe;  // per (item, version), row-major
  std::vector<double>& cost_cache = buffers.cost;
  qoe_cache.clear();
  cost_cache.clear();
  for (std::size_t k = 0; k < involved.size(); ++k) {
    const MediaObject& obj = objects[involved[k]];
    MFHTTP_CHECK_MSG(obj.versions_sorted(), "versions must ascend by resolution");
    const ObjectCoverage& cov = *coverage[k];
    const double r_m = obj.top_version().resolution;

    KnapsackItem& item = items[k];
    item.values.clear();
    item.weights.clear();
    for (const MediaVersion& ver : obj.versions) {
      double q = qoe_score(params_.qoe, cov, S, T, ver.resolution, r_m);
      double c = c_m > 0 ? params_.cost(ver.size) / c_m : 0.0;
      item.values.push_back(params_.weights.p * q - params_.weights.q * c);
      item.weights.push_back(ver.size);
      qoe_cache.push_back(q);
      cost_cache.push_back(c);
    }
    if (params_.ignore_bandwidth_constraint) {
      // Effectively unconstrained; the 2x slack keeps the DP's conservative
      // weight round-up from clipping the last item at the exact boundary.
      item.capacity = 2 * total_top_weight + 1;
    } else {
      double w = bandwidth.bytes_between(
          start, start + static_cast<TimeMs>(std::ceil(
                             std::max(0.0, cov.entry_time_ms))));
      item.capacity = static_cast<Bytes>(w);
    }
  }

  KnapsackSolution sol;
  {
    static obs::Histogram& solve_ms = obs::metrics().histogram(
        "core.flow.solve_ms", obs::latency_ms_bounds());
    obs::ScopedTimer timer(solve_ms);
    switch (params_.solver) {
      case Params::Solver::kGreedy:
        sol = solve_prefix_knapsack_greedy(items);
        break;
      case Params::Solver::kBranchAndBound:
        sol = solve_prefix_knapsack_bnb(items).solution;
        break;
      case Params::Solver::kDp:
        // The incremental entry point is bit-identical to the base DP; only
        // the replan path carries a scratch, so optimize() stays stateless.
        sol = scratch != nullptr
                  ? solve_prefix_knapsack_incremental(
                        items, params_.capacity_unit_bytes, scratch)
                  : solve_prefix_knapsack(items, params_.capacity_unit_bytes);
        break;
    }
  }

  std::size_t cache_pos = 0;
  policy.decisions.reserve(involved.size());
  for (std::size_t k = 0; k < involved.size(); ++k) {
    const std::size_t idx = involved[k];
    const MediaObject& obj = objects[idx];
    DownloadDecision d;
    d.object_index = idx;
    d.entry_time_ms = coverage[k]->entry_time_ms;
    d.version = sol.chosen[k];
    if (d.version >= 0) {
      std::size_t flat = cache_pos + static_cast<std::size_t>(d.version);
      d.qoe = qoe_cache[flat];
      d.cost = cost_cache[flat];
      d.value = params_.weights.p * d.qoe - params_.weights.q * d.cost;
      policy.total_bytes += obj.versions[static_cast<std::size_t>(d.version)].size;
    }
    cache_pos += obj.versions.size();
    policy.decisions.push_back(d);
  }
  policy.objective = sol.total_value;
  static obs::Counter& allowed_total =
      obs::metrics().counter("core.flow.objects_allowed_total");
  static obs::Counter& skipped_total =
      obs::metrics().counter("core.flow.objects_skipped_total");
  static obs::Counter& bytes_total =
      obs::metrics().counter("core.flow.policy_bytes_total");
  std::size_t downloads = 0;
  for (const DownloadDecision& d : policy.decisions)
    if (d.download()) ++downloads;
  allowed_total.inc(downloads);
  skipped_total.inc(policy.decisions.size() - downloads);
  bytes_total.inc(static_cast<std::uint64_t>(policy.total_bytes));
  MFHTTP_DEBUG << "flow policy: " << policy.decisions.size() << " involved, "
               << policy.total_bytes << " bytes, objective " << policy.objective;
  return policy;
}

std::vector<PrefetchCandidate> FlowController::prefetch_candidates(
    const ScrollAnalysis& analysis, const std::vector<MediaObject>& objects,
    const DownloadPolicy& policy) const {
  std::vector<PrefetchCandidate> candidates;
  if (degraded_ || !speculation_enabled_) return candidates;
  for (const ObjectCoverage& cov : analysis.listed) {  // in the policy's order
    if (!cov.involved || cov.in_initial_viewport) continue;  // on screen: fetch
    const DownloadDecision* d = policy.find(cov.object_index);
    if (d == nullptr || !d->download()) continue;
    const MediaObject& obj = objects[d->object_index];
    const MediaVersion& ver = obj.versions[static_cast<std::size_t>(d->version)];
    PrefetchCandidate c;
    c.object_index = d->object_index;
    c.version = d->version;
    c.url = ver.url;
    c.bytes = ver.size;
    c.entry_time_ms = std::max(0.0, d->entry_time_ms);
    c.value = d->value;
    candidates.push_back(std::move(c));
  }
  static obs::Counter& candidates_total =
      obs::metrics().counter("core.flow.prefetch_candidates_total");
  candidates_total.inc(candidates.size());
  return candidates;
}

}  // namespace mfhttp
