#include "scenario/scenario_spec.h"

#include <algorithm>
#include <cmath>

#include "util/json.h"
#include "util/json_config.h"
#include "util/logging.h"
#include "util/rng.h"

namespace mfhttp::scenario {

// ---------------------------------------------------------------------------
// Registries
// ---------------------------------------------------------------------------

std::optional<DeviceClassSpec> DeviceClassSpec::named(std::string_view name) {
  DeviceClassSpec d;
  if (name == "phone_flagship") {
    // The defaults: Nexus 6, the paper's test device, BrowsingGestureSource
    // baseline velocity distribution.
    d.name = "phone_flagship";
    return d;
  }
  if (name == "phone_midrange") {
    d.name = "phone_midrange";
    d.profile = DeviceProfile::nexus5();
    d.max_speed_px_s = 11000;
    return d;
  }
  if (name == "phone_lowend") {
    d.name = "phone_lowend";
    d.profile = DeviceProfile::lowend();
    // ScrollTest-style calibration: slower flings and heavier effective
    // friction on low-end hardware.
    d.fling_friction_scale = 1.15;
    d.max_speed_px_s = 9000;
    d.swipe_speed_base_px_s = 2600;
    d.swipe_speed_step_px_s = 2000;
    return d;
  }
  if (name == "tablet10") {
    d.name = "tablet10";
    d.profile = DeviceProfile::tablet10();
    // Larger screens fling faster.
    d.fling_friction_scale = 0.9;
    d.swipe_speed_base_px_s = 3400;
    return d;
  }
  return std::nullopt;
}

std::optional<NetworkProfileSpec> NetworkProfileSpec::named(
    std::string_view name) {
  NetworkProfileSpec n;
  if (name == "wlan") {
    // The defaults: the paper's campus WLAN setup (§V).
    n.name = "wlan";
    return n;
  }
  if (name == "lte") {
    n.name = "lte";
    n.client_bandwidth = 1.5e6;
    n.client_latency_ms = 40;
    n.client_bandwidth_stddev = 0.4e6;
    n.handover_period_ms = 30000;
    n.handover_gap_ms = 400;
    n.handover_count = 2;
    return n;
  }
  if (name == "umts3g") {
    n.name = "umts3g";
    n.client_bandwidth = 0.24e6;
    n.client_latency_ms = 120;
    n.client_bandwidth_stddev = 0.08e6;
    n.handover_period_ms = 15000;
    n.handover_gap_ms = 1200;
    n.handover_count = 3;
    return n;
  }
  if (name == "nr5g") {
    n.name = "nr5g";
    n.client_bandwidth = 12.0e6;
    n.client_latency_ms = 12;
    n.client_bandwidth_stddev = 3.0e6;
    return n;
  }
  return std::nullopt;
}

BandwidthTrace NetworkProfileSpec::client_trace(std::uint64_t seed,
                                                TimeMs horizon_ms) const {
  if (client_bandwidth_stddev <= 0)
    return BandwidthTrace::constant(client_bandwidth);
  Rng rng(seed);
  const TimeMs slot_ms = 1000;
  std::size_t slots = static_cast<std::size_t>(
      std::max<TimeMs>(1, (horizon_ms + slot_ms - 1) / slot_ms));
  return BandwidthTrace::random_walk(
      rng, client_bandwidth, client_bandwidth_stddev, 0.1 * client_bandwidth,
      2.0 * client_bandwidth, slots, slot_ms);
}

const char* workload_kind_name(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kPaperCorpus: return "paper_corpus";
    case WorkloadKind::kClientOnly: return "client_only";
    case WorkloadKind::kSocialFeed: return "social_feed";
    case WorkloadKind::kTiledVideo: return "tiled_video";
  }
  return "?";
}

std::optional<WorkloadKind> workload_kind_from_name(std::string_view name) {
  if (name == "paper_corpus") return WorkloadKind::kPaperCorpus;
  if (name == "client_only") return WorkloadKind::kClientOnly;
  if (name == "social_feed") return WorkloadKind::kSocialFeed;
  if (name == "tiled_video") return WorkloadKind::kTiledVideo;
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

namespace {

// Resolves a registry base ("class"/"profile"/"kind") then layers field
// overrides on top. `lookup` maps the registry name to a base value.
template <typename Spec, typename Lookup>
bool resolve_base(jsoncfg::Fields& f, const char* key, const char* what,
                  Lookup lookup, Spec* out) {
  const JsonValue* name = f.member(key);
  if (name == nullptr) return f.ok();
  if (!name->is_string())
    return f.fail(std::string("'") + key + "' must be a string");
  std::optional<Spec> base = lookup(name->string_value);
  if (!base.has_value())
    return f.fail(std::string("unknown ") + what + " '" + name->string_value +
                  "'");
  *out = *base;
  return true;
}

bool parse_device(const JsonValue& node, DeviceClassSpec* d,
                  std::string* error) {
  jsoncfg::Fields f(node, "device", error);
  resolve_base(f, "class", "device class",
               [](const std::string& n) { return DeviceClassSpec::named(n); },
               d);
  f.number("screen_w_px", 1, &d->profile.screen_w_px);
  f.number("screen_h_px", 1, &d->profile.screen_h_px);
  f.number("ppi", 1, &d->profile.ppi);
  f.number("fling_friction_scale", 1e-6, &d->fling_friction_scale);
  f.number("max_speed_px_s", 1, &d->max_speed_px_s);
  f.number("swipe_speed_base_px_s", 1, &d->swipe_speed_base_px_s);
  f.number("swipe_speed_step_px_s", 0, &d->swipe_speed_step_px_s);
  return f.finish();
}

bool parse_network(const JsonValue& node, NetworkProfileSpec* n,
                   std::string* error) {
  jsoncfg::Fields f(node, "network", error);
  resolve_base(
      f, "profile", "network profile",
      [](const std::string& s) { return NetworkProfileSpec::named(s); }, n);
  f.number("client_bandwidth", 1, &n->client_bandwidth);
  f.time_ms("client_latency_ms", 0, &n->client_latency_ms);
  f.number("server_bandwidth", 1, &n->server_bandwidth);
  f.time_ms("server_latency_ms", 0, &n->server_latency_ms);
  f.number("client_bandwidth_stddev", 0, &n->client_bandwidth_stddev);
  f.time_ms("handover_period_ms", 0, &n->handover_period_ms);
  f.time_ms("handover_gap_ms", 0, &n->handover_gap_ms);
  f.integer("handover_count", 0, &n->handover_count);
  f.time_ms("handover_first_ms", 0, &n->handover_first_ms);
  if (f.ok() && n->handover_count > 0 && n->handover_gap_ms > 0 &&
      n->handover_period_ms > 0 && n->handover_gap_ms >= n->handover_period_ms)
    f.fail("'handover_gap_ms' must be shorter than 'handover_period_ms'");
  return f.finish();
}

bool parse_workload(const JsonValue& node, WorkloadSpec* w,
                    std::string* error) {
  jsoncfg::Fields f(node, "workload", error);
  if (const JsonValue* kind = f.member("kind")) {
    if (!kind->is_string()) {
      f.fail("'kind' must be a string");
    } else if (auto k = workload_kind_from_name(kind->string_value)) {
      w->kind = *k;
    } else {
      f.fail("unknown workload kind '" + kind->string_value + "'");
    }
  }
  f.integer("repeats", 1, &w->repeats);
  f.integer("corpus_sites", 0, &w->corpus_sites);
  f.integer("feed_posts", 1, &w->feed_posts);
  f.integer("feed_flings", 0, &w->feed_flings);
  f.integer("append_posts_per_fling", 0, &w->append_posts_per_fling);
  f.integer("video_segments", 1, &w->video_segments);
  return f.finish();
}

// Parses an embedded section through its owning loader, wrapping its
// diagnostic in this document's section prefix.
template <typename Section, typename Parse>
bool parse_section(jsoncfg::Fields& top, const char* key, Parse parse,
                   std::optional<Section>* out, std::string* error) {
  const JsonValue* node = top.object(key);
  if (node == nullptr) return top.ok();
  std::string why;
  std::optional<Section> section = parse(*node, &why);
  if (!section.has_value())
    return top.fail(std::string("in '") + key + "': " + why);
  *out = std::move(*section);
  (void)error;
  return true;
}

}  // namespace

std::optional<ScenarioSpec> ScenarioSpec::from_value(const JsonValue& doc,
                                                     std::string* error) {
  ScenarioSpec spec;
  jsoncfg::Fields top(doc, "", error);
  top.string("name", &spec.name);
  top.seed("seed", &spec.seed);
  if (const JsonValue* d = top.object("device"))
    if (!parse_device(*d, &spec.device, error)) return std::nullopt;
  if (const JsonValue* n = top.object("network"))
    if (!parse_network(*n, &spec.network, error)) return std::nullopt;
  if (const JsonValue* w = top.object("workload"))
    if (!parse_workload(*w, &spec.workload, error)) return std::nullopt;
  parse_section<fault::FaultPlan>(
      top, "fault",
      [](const JsonValue& v, std::string* e) {
        return fault::FaultPlan::from_value(v, e);
      },
      &spec.fault, error);
  parse_section<prefetch::CacheConfig>(
      top, "cache",
      [](const JsonValue& v, std::string* e) {
        return prefetch::CacheConfig::from_value(v, e);
      },
      &spec.cache, error);
  parse_section<overload::OverloadConfig>(
      top, "overload",
      [](const JsonValue& v, std::string* e) {
        return overload::OverloadConfig::from_value(v, e);
      },
      &spec.overload, error);
  if (!top.finish()) return std::nullopt;
  return spec;
}

std::optional<ScenarioSpec> ScenarioSpec::from_json(std::string_view json,
                                                    std::string* error) {
  std::optional<JsonValue> doc = jsoncfg::parse_object(json, error);
  if (!doc.has_value()) return std::nullopt;
  return from_value(*doc, error);
}

std::optional<ScenarioSpec> ScenarioSpec::load(const std::string& path,
                                               std::string* error) {
  std::optional<JsonValue> doc = jsoncfg::load_object(path, "scenario", error);
  if (!doc.has_value()) return std::nullopt;
  std::string why;
  auto spec = from_value(*doc, &why);
  if (!spec.has_value()) {
    if (error != nullptr) *error = why;
    MFHTTP_ERROR << "scenario '" << path << "': " << why;
  }
  return spec;
}

std::string ScenarioSpec::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("name").value(name);
  w.key("seed").value(static_cast<unsigned long long>(seed));

  w.key("device").begin_object();
  w.key("class").value(device.name);
  w.key("screen_w_px").value(device.profile.screen_w_px);
  w.key("screen_h_px").value(device.profile.screen_h_px);
  w.key("ppi").value(device.profile.ppi);
  w.key("fling_friction_scale").value(device.fling_friction_scale);
  w.key("max_speed_px_s").value(device.max_speed_px_s);
  w.key("swipe_speed_base_px_s").value(device.swipe_speed_base_px_s);
  w.key("swipe_speed_step_px_s").value(device.swipe_speed_step_px_s);
  w.end_object();

  w.key("network").begin_object();
  w.key("profile").value(network.name);
  w.key("client_bandwidth").value(network.client_bandwidth);
  w.key("client_latency_ms")
      .value(static_cast<long long>(network.client_latency_ms));
  w.key("server_bandwidth").value(network.server_bandwidth);
  w.key("server_latency_ms")
      .value(static_cast<long long>(network.server_latency_ms));
  w.key("client_bandwidth_stddev").value(network.client_bandwidth_stddev);
  w.key("handover_period_ms")
      .value(static_cast<long long>(network.handover_period_ms));
  w.key("handover_gap_ms")
      .value(static_cast<long long>(network.handover_gap_ms));
  w.key("handover_count").value(network.handover_count);
  w.key("handover_first_ms")
      .value(static_cast<long long>(network.handover_first_ms));
  w.end_object();

  w.key("workload").begin_object();
  w.key("kind").value(workload_kind_name(workload.kind));
  w.key("repeats").value(workload.repeats);
  w.key("corpus_sites").value(workload.corpus_sites);
  w.key("feed_posts").value(workload.feed_posts);
  w.key("feed_flings").value(workload.feed_flings);
  w.key("append_posts_per_fling").value(workload.append_posts_per_fling);
  w.key("video_segments").value(workload.video_segments);
  w.end_object();

  if (fault.has_value()) w.key("fault").raw(fault->to_json());
  if (cache.has_value()) w.key("cache").raw(cache->to_json());
  if (overload.has_value()) w.key("overload").raw(overload->to_json());
  w.end_object();
  return w.str();
}

ScenarioSpec ScenarioSpec::paper_default() {
  return ScenarioSpec{};  // phone_flagship x wlan x paper_corpus, seed 1
}

std::optional<fault::FaultPlan> ScenarioSpec::compiled_fault_plan() const {
  std::optional<fault::FaultPlan> plan = fault;
  if (network.has_handover()) {
    if (!plan.has_value()) {
      plan.emplace();
      plan->seed = seed;
      plan->name = name + "/handover";
    }
    fault::LinkFaultWindow outage;
    outage.kind = fault::LinkFaultWindow::Kind::kOutage;
    outage.at_ms = network.handover_first_ms;
    outage.duration_ms = network.handover_gap_ms;
    outage.repeat = network.handover_count;
    outage.period_ms = network.handover_period_ms;
    plan->link.push_back(outage);
  }
  return plan;
}

}  // namespace mfhttp::scenario
