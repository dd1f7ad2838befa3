#include "prefetch/cache_config.h"

#include "util/json.h"
#include "util/json_config.h"

namespace mfhttp::prefetch {

std::optional<CacheConfig> CacheConfig::from_json(std::string_view json,
                                                  std::string* error) {
  std::optional<JsonValue> doc = jsoncfg::parse_object(json, error);
  if (!doc.has_value()) return std::nullopt;
  return from_value(*doc, error);
}

std::optional<CacheConfig> CacheConfig::from_value(const JsonValue& doc,
                                                   std::string* error) {
  CacheConfig config;
  jsoncfg::Fields top(doc, "", error);

  if (const JsonValue* c = top.object("cache")) {
    jsoncfg::Fields f(*c, "cache", error);
    CacheParams& p = config.cache;
    f.bytes("capacity_bytes", 0, &p.capacity_bytes);
    f.time_ms("default_ttl_ms", 0, &p.default_ttl_ms);
    f.time_ms("stale_while_revalidate_ms", 0, &p.stale_while_revalidate_ms);
    f.number("max_object_fraction", 0, &p.max_object_fraction);
    f.boolean("cost_aware_admission", &p.cost_aware_admission);
    if (f.ok() &&
        (p.max_object_fraction <= 0 || p.max_object_fraction > 1))
      f.fail("'max_object_fraction' must be in (0, 1]");
    if (!f.finish()) return std::nullopt;
  }

  if (const JsonValue* pf = top.object("prefetch")) {
    jsoncfg::Fields f(*pf, "prefetch", error);
    PrefetchBudget& p = config.prefetch;
    f.boolean("enabled", &config.prefetch_enabled);
    f.number("min_value", -1e18, &p.min_value);
    f.bytes("max_bytes_per_plan", 0, &p.max_bytes_per_plan);
    f.time_ms("lead_time_ms", 0, &p.lead_time_ms);
    if (!f.finish()) return std::nullopt;
  }

  if (!top.finish()) return std::nullopt;
  return config;
}

std::string CacheConfig::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("cache").begin_object();
  w.key("capacity_bytes").value(static_cast<long long>(cache.capacity_bytes));
  w.key("default_ttl_ms").value(static_cast<long long>(cache.default_ttl_ms));
  w.key("stale_while_revalidate_ms")
      .value(static_cast<long long>(cache.stale_while_revalidate_ms));
  w.key("max_object_fraction").value(cache.max_object_fraction);
  w.key("cost_aware_admission").value(cache.cost_aware_admission);
  w.end_object();
  w.key("prefetch").begin_object();
  w.key("enabled").value(prefetch_enabled);
  w.key("min_value").value(prefetch.min_value);
  w.key("max_bytes_per_plan")
      .value(static_cast<long long>(prefetch.max_bytes_per_plan));
  w.key("lead_time_ms").value(static_cast<long long>(prefetch.lead_time_ms));
  w.end_object();
  w.end_object();
  return w.str();
}

}  // namespace mfhttp::prefetch
