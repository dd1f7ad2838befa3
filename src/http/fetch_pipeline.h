// One assembly point for the middleware fetch stack (ISSUE 4 satellite).
//
// Every experiment, bench, and example used to hand-wire the same decorator
// chain — client link (optionally fault-injected), SimHttpOrigin, optional
// FaultyFetcher, optional ResilientFetcher, MitmProxy with its cache and
// admission controller — and each copy had to repeat the layer ordering.
// FetchPipelineBuilder defines that ordering exactly once:
//
//   origin → FaultyFetcher (origin faults) → ResilientFetcher (retries,
//   breaker) → MitmProxy (interception, cache, admission) → client link
//   (FaultyLink when a plan is active).
//
// The builder is a fluent one-shot: configure the layers you want, call
// build(), and the returned FetchPipeline owns every decorator it created.
// Layers the caller supplies by pointer (a shared HttpCache, a shared
// AdmissionController, an external client Link) are *not* owned and must
// outlive the pipeline — that is what lets N per-session pipelines share
// one middleware-server cache (§4.2) and one admission front door.
//
// Fault plans resolve the same way run_browsing_session always did:
// an explicit with_faults(plan) wins, otherwise the ambient
// fault::global_plan() applies, and an empty plan is no plan — the stack
// stays pristine (no decorators, no watchdog), preserving byte-identical
// seed behavior. Client-hop fault injection requires a builder-owned link
// (FaultyLink shapes the link's own bandwidth trace at construction), so an
// external link only ever receives origin-side faults.
#pragma once

#include <memory>

#include "fault/fault_plan.h"
#include "fault/faulty_fetcher.h"
#include "http/cache.h"
#include "http/proxy.h"
#include "http/resilient_fetcher.h"
#include "http/transport.h"
#include "net/link.h"
#include "overload/admission.h"
#include "sim/simulator.h"

namespace mfhttp {

// The built stack. Accessors expose the layers policy code hooks into:
// proxy() for fetching and interception, client_link() for byte accounting,
// resilient() for the degraded-mode callback, cache()/admission() for stats.
class FetchPipeline {
 public:
  ~FetchPipeline();
  FetchPipeline(const FetchPipeline&) = delete;
  FetchPipeline& operator=(const FetchPipeline&) = delete;

  MitmProxy& proxy() { return *proxy_; }
  Link& client_link() { return *client_link_; }
  const Link& client_link() const { return *client_link_; }

  // Null when the corresponding layer was not configured.
  HttpCache* cache() { return cache_; }
  ResilientFetcher* resilient() { return resilient_.get(); }
  overload::AdmissionController* admission() { return admission_; }

  // The plan the pipeline was built under (null when fault-free).
  const fault::FaultPlan* fault_plan() const { return plan_ ? &*plan_ : nullptr; }

  // The innermost fetcher the decorator chain wraps. Always non-null.
  HttpFetcher& origin() { return *origin_; }
  // Which backend serves origin fetches (--transport; DESIGN.md §15).
  TransportKind transport_kind() const { return transport_kind_; }
  // The real-socket backend; null under --transport=sim.
  SocketTransport* transport() { return transport_.get(); }

 private:
  friend class FetchPipelineBuilder;
  FetchPipeline() = default;

  // Destruction runs bottom-up (members in reverse order): the proxy dies
  // first, then the upstream decorators, then the owned origin/transport,
  // then the owned link.
  std::optional<fault::FaultPlan> plan_;
  std::optional<fault::FaultPlan> socket_plan_;  // transport-side chaos
  TransportKind transport_kind_ = TransportKind::kSim;
  std::unique_ptr<SocketTransport> transport_;
  std::unique_ptr<SimHttpOrigin> owned_origin_;
  HttpFetcher* origin_ = nullptr;
  std::unique_ptr<Link> owned_link_;
  Link* client_link_ = nullptr;
  std::unique_ptr<HttpCache> owned_cache_;
  HttpCache* cache_ = nullptr;
  std::unique_ptr<overload::AdmissionController> owned_admission_;
  overload::AdmissionController* admission_ = nullptr;
  std::unique_ptr<fault::FaultyFetcher> faulty_;
  std::unique_ptr<ResilientFetcher> resilient_;
  std::unique_ptr<MitmProxy> proxy_;
};

class FetchPipelineBuilder {
 public:
  // origin: the innermost HttpFetcher (usually a SimHttpOrigin). Not owned.
  FetchPipelineBuilder(Simulator& sim, HttpFetcher* origin);

  // Origin-less form: the builder creates the origin itself from an
  // ObjectStore + origin access link, honoring with_transport() — a
  // SimHttpOrigin under kSim, a SocketTransport (real epoll loopback
  // origin) under kSocket. Requires with_origin() before build().
  explicit FetchPipelineBuilder(Simulator& sim);

  // Store + origin link the builder-owned origin serves from (both
  // caller-owned, must outlive the pipeline). Replaces any constructor-
  // supplied origin.
  FetchPipelineBuilder& with_origin(const ObjectStore* store, Link* origin_link,
                                    SimHttpOriginParams params = {});

  // Select the origin transport backend (default kSim). kSocket requires
  // with_origin(). When config.plan is null, the socket section of the
  // with_faults() plan (if any) drives the wire chaos.
  FetchPipelineBuilder& with_transport(TransportConfig config);

  // Client (bottleneck) hop. Params → pipeline-owned link, wrapped in
  // FaultyLink when a fault plan is active; pointer → caller-owned, used
  // as-is. Default: an owned link with default Link::Params.
  FetchPipelineBuilder& client_link(Link::Params params);
  FetchPipelineBuilder& client_link(Link* link);

  // Install a fault plan. Explicit plan wins; nullptr falls back to the
  // ambient fault::global_plan(); an empty plan disables injection.
  FetchPipelineBuilder& with_faults(const fault::FaultPlan* plan = nullptr);
  // True when build() will inject faults — callers gate resilience and
  // defer-watchdog tuning on this, exactly as the hand-wired stacks did.
  bool has_faults() const { return plan_.has_value(); }

  FetchPipelineBuilder& with_resilience(ResilientFetcher::Params params = {});

  // Middleware-server cache: params → pipeline-owned; pointer → shared
  // across pipelines (the multi-session deployment).
  FetchPipelineBuilder& with_cache(CacheParams params);
  FetchPipelineBuilder& with_cache(HttpCache* cache);

  // Overload protection: params → pipeline-owned; pointer → shared.
  FetchPipelineBuilder& with_admission(overload::AdmissionParams params);
  FetchPipelineBuilder& with_admission(overload::AdmissionController* admission);

  FetchPipelineBuilder& proxy_params(MitmProxy::Params params);
  FetchPipelineBuilder& interceptor(Interceptor* interceptor);

  // Assembles the stack in the canonical order. The builder is one-shot.
  std::unique_ptr<FetchPipeline> build();

 private:
  Simulator& sim_;
  HttpFetcher* origin_;
  const ObjectStore* origin_store_ = nullptr;
  Link* origin_link_ = nullptr;
  SimHttpOriginParams origin_params_;
  TransportConfig transport_config_;
  std::optional<fault::FaultPlan> socket_plan_;
  Link::Params link_params_;
  Link* external_link_ = nullptr;
  std::optional<fault::FaultPlan> plan_;
  std::optional<ResilientFetcher::Params> resilience_;
  std::optional<CacheParams> cache_params_;
  HttpCache* shared_cache_ = nullptr;
  std::optional<overload::AdmissionParams> admission_params_;
  overload::AdmissionController* shared_admission_ = nullptr;
  MitmProxy::Params proxy_params_;
  Interceptor* interceptor_ = nullptr;
  bool built_ = false;
};

}  // namespace mfhttp
