// JSON-loadable configuration for the overload-protection subsystem.
//
// Benches and deployments describe admission + brownout tuning in one small
// document instead of a dozen flags:
//
//   {
//     "admission": {
//       "global_rate_per_s": 120, "global_burst": 40,
//       "session_rate_per_s": 6, "session_burst": 4,
//       "max_inflight_upstream": 16, "max_dispatch_queue": 64,
//       "max_deferred_per_session": 8, "max_deferred_global": 128,
//       "speculative_guard": 0.5, "transient_guard": 0.25,
//       "guard_jitter": 0.05, "seed": 7
//     },
//     "brownout": {
//       "tick_ms": 250, "queue_depth_high": 32,
//       "deferred_age_high_ms": 2000, "goodput_floor": 50000,
//       "enter_after": 2, "exit_after": 4
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

#include "overload/admission.h"
#include "overload/brownout.h"

namespace mfhttp {
struct JsonValue;
}

namespace mfhttp::overload {

struct OverloadConfig {
  AdmissionParams admission;
  BrownoutParams brownout;

  static std::optional<OverloadConfig> from_json(std::string_view json,
                                                 std::string* error = nullptr);
  // Same schema over an already-parsed node, for configs that embed an
  // overload section (scenario::ScenarioSpec).
  static std::optional<OverloadConfig> from_value(const JsonValue& doc,
                                                  std::string* error = nullptr);
  std::string to_json() const;
};

}  // namespace mfhttp::overload
