// Scenario-matrix grid and cell runners (bench/scenario_matrix): one cell =
// one ScenarioSpec = device class × network profile × workload, executed
// serially inside the cell so its aggregate is a pure function of the spec
// — the matrix bench parallelizes ACROSS cells and byte-compares the
// deterministic fields at every --workers count. ScenarioMatrixGolden pins
// the reduced default grid's rows.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/scenario_spec.h"

namespace mfhttp::scenario {

struct MatrixCellResult {
  // Identity: the cell's spec name and its three axes.
  std::string scenario;
  std::string device;
  std::string network;
  std::string workload;

  std::size_t sessions = 0;  // sessions (or viewers) the cell aggregated
  // Workload-appropriate QoE in [0, 1]: browsing = mean 1000/(1000+VLT);
  // feed = instant-play rate; video = mean resolution / ladder top.
  double qoe = 0;
  // P99 of the per-session viewport/segment load times (-1 where the
  // workload has no load-time notion, e.g. the feed).
  TimeMs viewport_p99_ms = -1;
  double goodput_bytes_per_s = 0;  // client-link bytes / simulated time
  double shed_rate = 0;            // (rejected + shed) / requests seen
  double cache_hit_ratio = 0;      // hits / (hits + misses); 0 without cache
  // FNV-1a over every per-session deterministic quantity — the bit-for-bit
  // equality witness between runs and worker counts.
  std::uint64_t fingerprint = 0;
  double wall_ms = 0;  // excluded from deterministic comparison

  // Deterministic fields only (no wall_ms), for byte comparison.
  std::string deterministic_json() const;
};

// The cell's spec: `base` with the named device class / network profile /
// workload kind swapped in (workload knobs other than kind are kept from
// base). Aborts on unknown names — the grid is validated up front.
ScenarioSpec cell_spec(const ScenarioSpec& base, const std::string& device,
                       const std::string& network, const std::string& workload);

// The matrix's built-in base, "grid_stress": paper defaults plus a live
// cache and a tight admission throttle, so the cache-hit and shed columns
// measure something in every cell.
ScenarioSpec grid_stress_spec();

// The grid's axes; the defaults are the matrix's default grid.
struct GridAxes {
  std::vector<std::string> devices = {"phone_flagship", "phone_lowend",
                                      "tablet10"};
  std::vector<std::string> networks = {"wlan", "lte", "umts3g"};
  std::vector<std::string> workloads = {"paper_corpus", "client_only",
                                        "social_feed", "tiled_video"};
};

// Every cell_spec(base, d, n, w) of the grid, devices outermost, then the two
// paper-default witness cells (phone_flagship × wlan × {paper_corpus,
// client_only} over ScenarioSpec::paper_default() with base's corpus_sites
// and repeats), always last.
std::vector<ScenarioSpec> grid_cells(const ScenarioSpec& base,
                                     const GridAxes& axes = {});

// Run one cell serially. Pure function of the spec, wall_ms aside.
MatrixCellResult run_matrix_cell(const ScenarioSpec& spec);

}  // namespace mfhttp::scenario
