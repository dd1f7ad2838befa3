#include "cli/standard_options.h"

#include <utility>

#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace mfhttp::cli {

StandardOptions::StandardOptions(int& argc, char** argv,
                                 const ExtendFn& extend) {
  CliOptions options(argc > 0 ? argv[0] : "mfhttp");
  options
      .add_string("--metrics-json", "path",
                  "write the metrics registry snapshot here at exit",
                  &metrics_path_)
      .add_string("--scenario", "path",
                  "scenario spec: device x network x workload + fault/cache/"
                  "overload sections (src/scenario/scenario_spec.h)",
                  &scenario_path_)
      .add_string("--transport", "sim|socket",
                  "origin backend: discrete-event sim or real epoll loopback",
                  &transport_name_);
  if (extend) extend(options);
  options.parse_or_exit(argc, argv);
  for (int i = 1; i < argc; ++i)
    if (argv[i][0] == '-') CliOptions::fail(argv[i], "", "unknown flag");

  if (!transport_name_.empty()) {
    auto kind = transport_kind_from_name(transport_name_);
    if (!kind.has_value())
      CliOptions::fail("--transport", transport_name_, "expected sim or socket");
    transport_ = *kind;
  }

  if (!scenario_path_.empty()) {
    std::string why;
    scenario_ = scenario::ScenarioSpec::load(scenario_path_, &why);
    if (!scenario_.has_value())
      CliOptions::fail("--scenario", scenario_path_, why);
    MFHTTP_INFO << "scenario '" << scenario_->name << "' loaded ("
                << scenario_->device.name << " x " << scenario_->network.name
                << " x " << workload_kind_name(scenario_->workload.kind)
                << ", seed " << scenario_->seed << ")";
    if (scenario_->cache.has_value()) cache_config_ = *scenario_->cache;
    // The scenario's fault section plus any network-profile handover
    // windows become the ambient plan every session runs under.
    if (auto plan = scenario_->compiled_fault_plan()) {
      MFHTTP_INFO << "fault plan '" << plan->name << "' installed from "
                  << "scenario (seed " << plan->seed << ")";
      fault::set_global_plan(std::move(plan));
      fault_plan_installed_ = true;
    }
  }
}

StandardOptions::~StandardOptions() {
  if (fault_plan_installed_) fault::set_global_plan(std::nullopt);
  if (!metrics_path_.empty()) obs::write_snapshot_file(metrics_path_);
}

}  // namespace mfhttp::cli
