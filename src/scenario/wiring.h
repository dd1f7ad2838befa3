// Scenario wiring: the one place a ScenarioSpec is translated into the
// concrete configs the session runners consume. Everything an example or
// bench used to hand-assemble — link parameters, fault plans, cache and
// admission sections, per-device fling calibration, per-repeat swipe ramps —
// flows from the spec through these helpers, so a scenario JSON file is a
// complete, reproducible description of a run.
//
// Seed discipline: the paper-default spec (seed 1) reproduces the fig6/fig7
// harness byte for byte — browsing_config derives exactly the historical
// `1000 + site.size() + repeat * 7919` session seeds, and the WLAN profile
// yields the same constant-bandwidth links the harness hardcoded.
#pragma once

#include "feed/feed_experiment.h"
#include "scenario/scenario_spec.h"
#include "web/experiment.h"
#include "web/page.h"

namespace mfhttp::scenario {

// Browsing session for corpus page `page`, repeat index `repeat` (one
// scenario repeat = one seeded session with its own swipe intensity).
// `plan` is the caller-kept compiled_fault_plan() (nullptr = fault-free);
// the config only borrows the pointer.
BrowsingSessionConfig browsing_config(const ScenarioSpec& spec,
                                      const WebPage& page, int repeat,
                                      const fault::FaultPlan* plan = nullptr);

// Feed session for repeat index `repeat`. A workload with
// append_posts_per_fling > 0 becomes a dynamic feed: the session opens with
// the prefix left after reserving one append batch per fling. `plan` as in
// browsing_config.
FeedSessionConfig feed_config(const ScenarioSpec& spec, int repeat,
                              const fault::FaultPlan* plan = nullptr);

// The feed itself (post count from the workload, sized for the device).
FeedSpec feed_spec(const ScenarioSpec& spec);

}  // namespace mfhttp::scenario
