// Scenario matrix — the ScenarioSpec acceptance artifact (DESIGN.md §16):
// device class × network profile × workload, every cell wired through
// ScenarioSpec + scenario/wiring.h and scored on the same five columns (QoE,
// viewport-load P99, goodput, shed rate, cache hit ratio) plus an FNV
// fingerprint over every per-session deterministic quantity.
//
// Two properties are asserted in-binary:
//
//   * paper_default_identical — the paper-default cells (phone_flagship ×
//     wlan × {paper_corpus, client_only}) are re-run through a hand-wired
//     fig7-style loop that never touches ScenarioSpec; the spec-driven rows
//     must reproduce it byte for byte. The scenario API is a new front door
//     on the fig6/fig7 harness, not a new harness.
//   * deterministic_across_workers — the full grid is re-run at every
//     --workers count (cells parallelized via sim::ParallelRunner) and the
//     concatenated deterministic row JSON must not change. A sweep whose
//     answers depend on thread count is not a benchmark.
//
//   scenario_matrix [--base spec.json] [--devices LIST] [--networks LIST]
//                   [--workloads LIST] [--repeats N] [--sites N]
//                   [--workers 1,2]
//
// The default base spec is the built-in grid-stress scenario
// (scenario::grid_stress_spec: cache + admission sections on, a dynamic
// feed, a seeded-random-walk knob left to the network profiles). Note on the
// cache column: the fig7 browsing harness fires exactly one gesture per
// session, so a prefetch-warmed object is never re-referenced and
// cache_hit_ratio is structurally 0 for the corpus workloads — the column is
// reported so multi-gesture workloads light it up, not because it moves
// today. Tier-1 ctest runs the reduced grid (--sites 6 --repeats 1) as
// scenario_matrix_smoke, and ScenarioMatrixGolden pins that grid's rows.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "cli/standard_options.h"
#include "scenario/matrix.h"
#include "scenario/wiring.h"
#include "sim/parallel_runner.h"
#include "util/fnv.h"
#include "web/corpus.h"
#include "web/experiment.h"

namespace {

using namespace mfhttp;
using scenario::MatrixCellResult;
using scenario::ScenarioSpec;

std::vector<std::string> parse_list(const char* flag, const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    if (comma > pos) out.push_back(s.substr(pos, comma - pos));
    pos = comma + 1;
  }
  if (out.empty()) CliOptions::fail(flag, s, "expected a comma-separated list");
  return out;
}

int parse_int(const char* flag, const std::string& s, int min) {
  char* end = nullptr;
  long v = std::strtol(s.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || v < min)
    CliOptions::fail(flag, s, "expected an integer in range");
  return static_cast<int>(v);
}

// The independent witness for paper_default_identical: fig7's exact config
// construction (bench/fig7_viewport_load_time.cc) aggregated with the same
// arithmetic as scenario::run_matrix_cell, but never touching ScenarioSpec.
MatrixCellResult hand_wired_paper_cell(const MatrixCellResult& like,
                                       bool enable_mfhttp, int sites,
                                       int repeats) {
  const DeviceProfile device = DeviceProfile::nexus6();
  Rng rng(42);
  std::vector<WebPage> corpus = generate_corpus(device, rng);
  if (sites > 0 && static_cast<std::size_t>(sites) < corpus.size())
    corpus.resize(sites);

  MatrixCellResult out;
  out.scenario = like.scenario;
  out.device = like.device;
  out.network = like.network;
  out.workload = like.workload;

  Fnv fp;
  std::vector<TimeMs> load_times;
  double qoe_sum = 0;
  Bytes total_bytes = 0;
  TimeMs total_sim_ms = 0;
  std::size_t requests = 0, rejected = 0, shed = 0, hits = 0, misses = 0;
  for (const WebPage& page : corpus) {
    for (int session = 0; session < repeats; ++session) {
      BrowsingSessionConfig cfg;
      cfg.device = device;
      cfg.fill_sample_ms = 0;
      cfg.seed = 1000 + static_cast<std::uint64_t>(page.site.size()) +
                 static_cast<std::uint64_t>(session) * 7919;
      cfg.swipe_speed_px_s = 3000 + 2500 * session;
      cfg.enable_mfhttp = enable_mfhttp;
      BrowsingSessionResult r = run_browsing_session(page, cfg);
      ++out.sessions;
      load_times.push_back(r.initial_viewport_load_ms);
      qoe_sum += r.initial_viewport_load_ms >= 0
                     ? 1000.0 / (1000.0 + r.initial_viewport_load_ms)
                     : 0.0;
      total_bytes += r.bytes_downloaded;
      total_sim_ms += cfg.session_ms;
      requests += r.requests_total;
      rejected += r.requests_rejected;
      shed += r.requests_shed;
      hits += r.cache_hits;
      misses += r.cache_misses;
      fp.u64(static_cast<std::uint64_t>(r.initial_viewport_load_ms));
      fp.u64(static_cast<std::uint64_t>(r.final_viewport_load_ms));
      fp.u64(static_cast<std::uint64_t>(r.bytes_downloaded));
      fp.u64(r.images_completed);
      fp.u64(r.stranded_deferred);
    }
  }
  out.qoe = out.sessions > 0 ? qoe_sum / out.sessions : 0;
  std::sort(load_times.begin(), load_times.end());
  if (!load_times.empty()) {
    std::size_t idx = (load_times.size() * 99 + 99) / 100;
    if (idx > load_times.size()) idx = load_times.size();
    out.viewport_p99_ms = load_times[idx - 1];
  }
  out.goodput_bytes_per_s =
      total_sim_ms > 0 ? total_bytes * 1000.0 / total_sim_ms : 0;
  out.shed_rate =
      requests > 0 ? static_cast<double>(rejected + shed) / requests : 0;
  out.cache_hit_ratio =
      hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0;
  out.fingerprint = fp.h;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string base_path, devices_s, networks_s, workloads_s, repeats_s,
      sites_s, workers_s;
  cli::StandardOptions standard_options(argc, argv, [&](CliOptions& options) {
    options
        .add_string("--base", "PATH",
                    "base scenario JSON (default: built-in grid_stress)",
                    &base_path)
        .add_string("--devices", "LIST",
                    "device classes (default phone_flagship,phone_lowend,tablet10)",
                    &devices_s)
        .add_string("--networks", "LIST",
                    "network profiles (default wlan,lte,umts3g)", &networks_s)
        .add_string("--workloads", "LIST",
                    "workloads (default paper_corpus,client_only,"
                    "social_feed,tiled_video)",
                    &workloads_s)
        .add_string("--repeats", "N", "sessions per cell point (default: spec)",
                    &repeats_s)
        .add_string("--sites", "N",
                    "limit browsing cells to the first N corpus sites (0 = all)",
                    &sites_s)
        .add_string("--workers", "LIST",
                    "worker counts for the determinism sweep (default 1,2)",
                    &workers_s);
  });

  std::string error;
  std::optional<ScenarioSpec> base;
  if (base_path.empty()) {
    base = scenario::grid_stress_spec();
  } else {
    base = ScenarioSpec::load(base_path, &error);
  }
  if (!base.has_value()) {
    std::fprintf(stderr, "scenario_matrix: bad base spec: %s\n", error.c_str());
    return 2;
  }
  if (!repeats_s.empty())
    base->workload.repeats = parse_int("--repeats", repeats_s, 1);
  if (!sites_s.empty())
    base->workload.corpus_sites = parse_int("--sites", sites_s, 0);

  scenario::GridAxes axes;
  if (!devices_s.empty()) axes.devices = parse_list("--devices", devices_s);
  if (!networks_s.empty()) axes.networks = parse_list("--networks", networks_s);
  if (!workloads_s.empty())
    axes.workloads = parse_list("--workloads", workloads_s);
  const std::vector<std::size_t> worker_counts =
      workers_s.empty() ? std::vector<std::size_t>{1, 2}
                        : CliOptions::positive_size_list("--workers", workers_s);

  // The grid, plus the two paper-default rows the identity check owns.
  const std::vector<ScenarioSpec> cells = scenario::grid_cells(*base, axes);
  const std::size_t paper_first = cells.size() - 2;

  std::printf("=== Scenario matrix: %zu devices x %zu networks x %zu workloads"
              " + 2 paper rows = %zu cells ===\n",
              axes.devices.size(), axes.networks.size(), axes.workloads.size(),
              cells.size());
  std::printf("(base '%s', repeats %d, sites %s; workers sweep:",
              base->name.c_str(), base->workload.repeats,
              base->workload.corpus_sites > 0
                  ? std::to_string(base->workload.corpus_sites).c_str()
                  : "all");
  for (std::size_t w : worker_counts) std::printf(" %zu", w);
  std::printf("; hardware threads: %u)\n\n",
              std::thread::hardware_concurrency());

  // Run the whole grid at every worker count; rows are reported from the
  // first sweep, later sweeps only feed the byte-identity check.
  std::vector<MatrixCellResult> rows;
  std::string baseline_doc;
  bool deterministic_across_workers = true;
  for (std::size_t workers : worker_counts) {
    std::vector<MatrixCellResult> results(cells.size());
    sim::ParallelRunner runner(workers);
    runner.run(cells.size(), [&](std::size_t i) {
      results[i] = scenario::run_matrix_cell(cells[i]);
    });
    std::string doc;
    for (const MatrixCellResult& r : results) {
      doc += r.deterministic_json();
      doc += '\n';
    }
    if (baseline_doc.empty()) {
      baseline_doc = doc;
      rows = std::move(results);
    } else if (doc != baseline_doc) {
      deterministic_across_workers = false;
      std::fprintf(stderr, "FAIL: results at %zu workers diverged\n", workers);
    }
  }

  // The identity check: re-run the paper-default rows with fig7's hand-wired
  // loop and compare the deterministic JSON byte for byte.
  bool paper_default_identical = true;
  for (std::size_t k = 0; k < 2; ++k) {
    const MatrixCellResult& via_spec = rows[paper_first + k];
    const ScenarioSpec& paper = cells[paper_first + k];
    const MatrixCellResult witness = hand_wired_paper_cell(
        via_spec, /*enable_mfhttp=*/k == 0, paper.workload.corpus_sites,
        paper.workload.repeats);
    if (witness.deterministic_json() != via_spec.deterministic_json()) {
      paper_default_identical = false;
      std::fprintf(stderr,
                   "FAIL: paper-default %s diverged from the fig7 harness\n"
                   "  spec:    %s\n  witness: %s\n",
                   via_spec.workload.c_str(),
                   via_spec.deterministic_json().c_str(),
                   witness.deterministic_json().c_str());
    }
  }

  std::printf("%-44s %5s %6s %9s %11s %6s %6s %6s\n", "cell", "sess", "qoe",
              "p99 ms", "goodput B/s", "shed", "hit", "wall");
  for (const MatrixCellResult& r : rows) {
    const std::string cell = r.device + "/" + r.network + "/" + r.workload;
    std::printf("%-44s %5zu %6.3f %9lld %11.0f %6.3f %6.3f %5.0fs\n",
                cell.c_str(), r.sessions, r.qoe,
                static_cast<long long>(r.viewport_p99_ms),
                r.goodput_bytes_per_s, r.shed_rate, r.cache_hit_ratio,
                r.wall_ms / 1000.0);
  }
  std::printf("\npaper_default_identical:       %s\n",
              paper_default_identical ? "yes" : "NO");
  std::printf("deterministic_across_workers:  %s\n",
              deterministic_across_workers ? "yes" : "NO");

  return paper_default_identical && deterministic_across_workers ? 0 : 1;
}
