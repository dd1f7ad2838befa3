#include "overload/config.h"

#include "util/json.h"
#include "util/json_config.h"

namespace mfhttp::overload {

std::optional<OverloadConfig> OverloadConfig::from_json(std::string_view json,
                                                        std::string* error) {
  std::optional<JsonValue> doc = jsoncfg::parse_object(json, error);
  if (!doc.has_value()) return std::nullopt;
  return from_value(*doc, error);
}

std::optional<OverloadConfig> OverloadConfig::from_value(const JsonValue& doc,
                                                         std::string* error) {
  OverloadConfig config;
  jsoncfg::Fields top(doc, "", error);

  if (const JsonValue* a = top.object("admission")) {
    jsoncfg::Fields f(*a, "admission", error);
    AdmissionParams& p = config.admission;
    f.number("global_rate_per_s", 0, &p.global_rate_per_s);
    f.number("global_burst", 0, &p.global_burst);
    f.number("session_rate_per_s", 0, &p.session_rate_per_s);
    f.number("session_burst", 0, &p.session_burst);
    f.integer("max_inflight_upstream", 0, &p.max_inflight_upstream);
    f.integer("max_dispatch_queue", 0, &p.max_dispatch_queue);
    f.integer("max_deferred_per_session", 0, &p.max_deferred_per_session);
    f.integer("max_deferred_global", 0, &p.max_deferred_global);
    f.number("speculative_guard", 0, &p.speculative_guard);
    f.number("transient_guard", 0, &p.transient_guard);
    f.number("guard_jitter", 0, &p.guard_jitter);
    f.seed("seed", &p.seed);
    if (f.ok() && (p.speculative_guard > 1 || p.transient_guard > 1))
      f.fail("guard fractions must be in [0, 1]");
    if (!f.finish()) return std::nullopt;
  }

  if (const JsonValue* b = top.object("brownout")) {
    jsoncfg::Fields f(*b, "brownout", error);
    BrownoutParams& p = config.brownout;
    f.time_ms("tick_ms", 1, &p.tick_ms);
    f.integer("queue_depth_high", 0, &p.queue_depth_high);
    f.time_ms("deferred_age_high_ms", 0, &p.deferred_age_high_ms);
    f.number("goodput_floor", 0, &p.goodput_floor);
    f.integer("enter_after", 1, &p.hysteresis.enter_after);
    f.integer("exit_after", 1, &p.hysteresis.exit_after);
    if (!f.finish()) return std::nullopt;
  }

  if (!top.finish()) return std::nullopt;
  return config;
}

std::string OverloadConfig::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("admission").begin_object();
  w.key("global_rate_per_s").value(admission.global_rate_per_s);
  w.key("global_burst").value(admission.global_burst);
  w.key("session_rate_per_s").value(admission.session_rate_per_s);
  w.key("session_burst").value(admission.session_burst);
  w.key("max_inflight_upstream").value(admission.max_inflight_upstream);
  w.key("max_dispatch_queue").value(admission.max_dispatch_queue);
  w.key("max_deferred_per_session").value(admission.max_deferred_per_session);
  w.key("max_deferred_global").value(admission.max_deferred_global);
  w.key("speculative_guard").value(admission.speculative_guard);
  w.key("transient_guard").value(admission.transient_guard);
  w.key("guard_jitter").value(admission.guard_jitter);
  w.key("seed").value(static_cast<unsigned long long>(admission.seed));
  w.end_object();
  w.key("brownout").begin_object();
  w.key("tick_ms").value(static_cast<long long>(brownout.tick_ms));
  w.key("queue_depth_high").value(brownout.queue_depth_high);
  w.key("deferred_age_high_ms").value(static_cast<long long>(brownout.deferred_age_high_ms));
  w.key("goodput_floor").value(brownout.goodput_floor);
  w.key("enter_after").value(brownout.hysteresis.enter_after);
  w.key("exit_after").value(brownout.hysteresis.exit_after);
  w.end_object();
  w.end_object();
  return w.str();
}

}  // namespace mfhttp::overload
