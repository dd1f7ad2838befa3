// The standard flag set every mfhttp bench and example speaks — one RAII
// object built on util/cli_options.h:
//
//   --metrics-json <path>    dump the obs registry snapshot at exit,
//   --scenario <path>        load a scenario::ScenarioSpec (device class +
//                            network profile + workload + fault/cache/
//                            overload sections, DESIGN.md §16) and install
//                            its compiled fault plan as the ambient
//                            fault::global_plan() for every session,
//   --transport sim|socket   origin backend for pipelines built through
//                            FetchPipelineBuilder::with_origin (sim: the
//                            discrete-event SimHttpOrigin; socket: the real
//                            epoll loopback transport, DESIGN.md §15).
//
// Construction registers the flags (plus any binary-specific ones via the
// `extend` hook), parses argv in place, and *loads* the named files —
// exiting 2 with the shared error format when a named payload cannot be
// used, because a bench that silently ran fault-free or cache-free did not
// measure what its command line claims. For the same reason any leftover
// argument that looks like a flag ("-..." that no parser registered) exits
// 2: a misspelled --metrics-json must not run and write nothing. Positional
// arguments pass through in argv for the binary to read. Destruction writes
// the metrics snapshot and uninstalls the fault plan, so consecutive
// binaries in one test run never leak state into each other.
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "http/transport.h"
#include "prefetch/cache_config.h"
#include "scenario/scenario_spec.h"
#include "util/cli_options.h"

namespace mfhttp::cli {

class StandardOptions {
 public:
  // `extend` registers extra binary-specific flags on the same parser (and
  // shares its error formatting). On return argv holds only the positional
  // arguments.
  using ExtendFn = std::function<void(CliOptions&)>;
  StandardOptions(int& argc, char** argv, const ExtendFn& extend = {});
  ~StandardOptions();
  StandardOptions(const StandardOptions&) = delete;
  StandardOptions& operator=(const StandardOptions&) = delete;

  const std::string& metrics_path() const { return metrics_path_; }
  const std::string& scenario_path() const { return scenario_path_; }

  // The loaded --scenario; nullopt when the flag was absent.
  bool has_scenario() const { return scenario_.has_value(); }
  const scenario::ScenarioSpec& scenario() const { return *scenario_; }

  // The --scenario spec's "cache" section; default-constructed when the
  // spec has none (or no --scenario was given).
  const prefetch::CacheConfig& cache_config() const { return cache_config_; }
  bool has_cache_config() const {
    return scenario_.has_value() && scenario_->cache.has_value();
  }

  // The parsed --transport (default kSim). Binaries pass this to
  // FetchPipelineBuilder::with_transport.
  TransportKind transport() const { return transport_; }

 private:
  std::string metrics_path_;
  std::string scenario_path_;
  std::string transport_name_;
  TransportKind transport_ = TransportKind::kSim;
  std::optional<scenario::ScenarioSpec> scenario_;
  prefetch::CacheConfig cache_config_;
  bool fault_plan_installed_ = false;
};

}  // namespace mfhttp::cli
