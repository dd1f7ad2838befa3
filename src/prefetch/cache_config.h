// JSON-loadable configuration for the cache + prefetch subsystem, in the
// same shape as overload::OverloadConfig (overload/config.h) and loaded as
// the "cache" section of a --scenario spec (cli/standard_options.h):
//
//   {
//     "cache": {
//       "capacity_bytes": 2000000, "default_ttl_ms": 6000,
//       "stale_while_revalidate_ms": 2000, "max_object_fraction": 0.25,
//       "cost_aware_admission": true
//     },
//     "prefetch": {
//       "enabled": true, "min_value": 0.0,
//       "max_bytes_per_plan": 500000, "lead_time_ms": 300
//     }
//   }
//
// Both sections and every field are optional; absent fields keep their
// defaults. Malformed JSON reports "line L, column C: why"; schema
// violations name the offending field.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "http/cache.h"
#include "prefetch/planner.h"

namespace mfhttp {
struct JsonValue;
}

namespace mfhttp::prefetch {

struct CacheConfig {
  CacheParams cache;
  PrefetchBudget prefetch;
  bool prefetch_enabled = true;

  static std::optional<CacheConfig> from_json(std::string_view json,
                                              std::string* error = nullptr);
  // Same schema over an already-parsed node, for configs that embed a cache
  // section (scenario::ScenarioSpec).
  static std::optional<CacheConfig> from_value(const JsonValue& doc,
                                               std::string* error = nullptr);
  static std::optional<CacheConfig> load(const std::string& path,
                                         std::string* error = nullptr);
  std::string to_json() const;
};

}  // namespace mfhttp::prefetch
