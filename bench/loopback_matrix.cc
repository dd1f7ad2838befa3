// Loopback matrix — the real-socket transport's acceptance artifact
// (DESIGN.md §15): transport {sim, socket} x wire {clean, faulty}, every
// arm replaying the identical seeded fetch script through the one
// canonical FetchPipelineBuilder stack.
//
// Three gates ride in-binary; the binary exits 1 unless all hold:
//
//   * parity — the clean socket arm must reproduce the clean sim arm's
//     per-fetch (status, body_size, request_ms, complete_ms) EXACTLY.
//     Real I/O happens in zero sim time and then replays SimHttpOrigin's
//     event shape, so any drift is a transport bug, not noise.
//   * taxonomy — on every arm, requests == completed + errored + shed.
//     A faulty wire may fail fetches, but it may never lose one.
//   * band — on every arm, completed_rate >= 0.8, error_rate <= 0.2 and
//     shed_rate <= 0.2. The faulty arms' split depends on how the kernel
//     chunks the byte stream, so it is held to a band around 1/0/0, not to
//     exact counts.
//
// The faulty arms use each backend's native chaos: lossy_cellular for the
// sim stack (link/fetcher decorators) and flaky_socket for the real wire
// (seeded short reads, torn writes, RST, stalls in the aio layer). Both
// faulty arms run behind ResilientFetcher, so retries and breakers are
// part of what is being measured. Tier-1 ctest runs `loopback_matrix
// --quick` (loopback_matrix_smoke); requests/sec and the P99 fetch wall
// latency are printed, not gated.
//
//   loopback_matrix [--requests N] [--universe N] [--seed S] [--quick]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "cli/standard_options.h"
#include "fault/fault_plan.h"
#include "http/fetch_pipeline.h"
#include "http/sim_http.h"
#include "http/transport.h"
#include "net/bandwidth_trace.h"
#include "net/link.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace {

using namespace mfhttp;

struct ScriptEntry {
  std::string url;
  std::string etag;  // non-empty: conditional GET expecting 304
};

struct FetchRecord {
  int status = 0;
  Bytes body_size = 0;
  TimeMs request_ms = 0;
  TimeMs complete_ms = 0;
};

struct Row {
  std::string transport;  // sim | socket
  std::string wire;       // clean | faulty
  std::size_t requests = 0;
  std::size_t completed = 0;  // any real status except 503
  std::size_t errored = 0;    // status 0: transport/origin failure
  std::size_t shed = 0;       // 503
  bool taxonomy_accounted = false;
  double completed_rate = 0;
  double error_rate = 0;
  double shed_rate = 0;
  double wall_ms = 0;
  double requests_per_sec = 0;
  double p99_fetch_us = 0;
  std::vector<FetchRecord> records;  // for the in-binary parity gate
};

// Same stores, same script, every arm: the parity gate depends on it.
void populate(ObjectStore& store, std::size_t universe, std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = 0; i < universe; ++i) {
    store.put("/obj/" + std::to_string(i) + ".bin",
              static_cast<Bytes>(rng.uniform_int(500, 60'000)),
              i % 3 == 0 ? "image/jpeg" : "text/html");
  }
}

std::vector<ScriptEntry> make_script(const ObjectStore& store,
                                     std::size_t universe,
                                     std::size_t requests,
                                     std::uint64_t seed) {
  Rng rng(seed ^ 0x5c717);
  std::vector<ScriptEntry> script;
  script.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    ScriptEntry entry;
    if (rng.chance(0.05)) {  // a miss: the 404 path stays exercised
      entry.url = "http://origin.example/missing/" + std::to_string(i);
    } else {
      std::string path = "/obj/" +
                         std::to_string(static_cast<std::size_t>(rng.uniform_int(
                             0, static_cast<std::int64_t>(universe) - 1))) +
                         ".bin";
      entry.url = "http://origin.example" + path;
      if (rng.chance(0.15))  // conditional GET: the 304 path stays exercised
        entry.etag = store.find(path)->etag;
    }
    script.push_back(std::move(entry));
  }
  return script;
}

Row run_arm(TransportKind kind, bool faulty,
            const std::vector<ScriptEntry>& script, std::size_t universe,
            std::uint64_t seed) {
  Row row;
  row.transport = transport_kind_name(kind);
  row.wire = faulty ? "faulty" : "clean";

  Simulator sim;
  ObjectStore store;
  populate(store, universe, seed);

  Link::Params origin_params;
  origin_params.bandwidth = BandwidthTrace::constant(1'000'000);
  origin_params.latency_ms = 2;
  Link origin_link(sim, origin_params);

  // Each backend's native chaos: the sim stack degrades its links and
  // fetchers, the socket stack degrades the actual read()/write() stream.
  fault::FaultPlan plan = kind == TransportKind::kSocket
                              ? fault::FaultPlan::flaky_socket(seed)
                              : fault::FaultPlan::lossy_cellular(seed);

  FetchPipelineBuilder builder(sim);
  builder.with_origin(&store, &origin_link);
  TransportConfig config;
  config.kind = kind;
  builder.with_transport(config);
  if (faulty) {
    builder.with_faults(&plan);
    builder.with_resilience();
  }
  Link::Params client_params;
  client_params.bandwidth = BandwidthTrace::constant(400'000);
  client_params.latency_ms = 30;
  builder.client_link(client_params);
  std::unique_ptr<FetchPipeline> pipeline = builder.build();

  std::vector<double> fetch_us;
  fetch_us.reserve(script.size());
  const auto arm_start = std::chrono::steady_clock::now();
  for (const ScriptEntry& entry : script) {
    std::optional<FetchResult> out;
    FetchCallbacks callbacks;
    callbacks.on_complete = [&](const FetchResult& r) { out = r; };
    HttpRequest request = HttpRequest::get(entry.url);
    if (!entry.etag.empty()) request.headers.set("If-None-Match", entry.etag);
    const auto t0 = std::chrono::steady_clock::now();
    pipeline->proxy().fetch(request, std::move(callbacks));
    sim.run();
    fetch_us.push_back(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - t0)
            .count());

    ++row.requests;
    if (!out.has_value()) continue;  // lost: taxonomy gate will catch it
    FetchRecord record{out->status, out->body_size, out->request_ms,
                       out->complete_ms};
    row.records.push_back(record);
    if (out->status == 0)
      ++row.errored;
    else if (out->status == 503)
      ++row.shed;
    else
      ++row.completed;
  }
  row.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - arm_start)
                    .count();

  row.taxonomy_accounted =
      row.requests == row.completed + row.errored + row.shed;
  const double n = static_cast<double>(row.requests);
  row.completed_rate = n > 0 ? static_cast<double>(row.completed) / n : 0;
  row.error_rate = n > 0 ? static_cast<double>(row.errored) / n : 0;
  row.shed_rate = n > 0 ? static_cast<double>(row.shed) / n : 0;
  row.requests_per_sec = row.wall_ms > 0 ? n / (row.wall_ms / 1000.0) : 0;
  std::sort(fetch_us.begin(), fetch_us.end());
  if (!fetch_us.empty())
    row.p99_fetch_us = fetch_us[static_cast<std::size_t>(
        static_cast<double>(fetch_us.size() - 1) * 0.99)];

  if (kind == TransportKind::kSocket && pipeline->transport() != nullptr)
    pipeline->transport()->drain();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::string requests_s, universe_s, seed_s;
  bool quick = false;
  cli::StandardOptions standard_options(argc, argv, [&](CliOptions& options) {
    options
        .add_string("--requests", "N", "fetches per arm (default 300)",
                    &requests_s)
        .add_string("--universe", "N", "distinct origin objects (default 64)",
                    &universe_s)
        .add_string("--seed", "S", "master seed (default 1)", &seed_s)
        .add_flag("--quick", "CI-sized run: 60 fetches over 16 objects",
                  &quick);
  });

  std::size_t requests =
      requests_s.empty() ? (quick ? 60 : 300)
                         : CliOptions::positive_size("--requests", requests_s);
  std::size_t universe =
      universe_s.empty() ? (quick ? 16 : 64)
                         : CliOptions::positive_size("--universe", universe_s);
  std::uint64_t seed = seed_s.empty() ? 1 : CliOptions::positive_size("--seed", seed_s);

  // One seeded script for every arm, derived from a throwaway store that is
  // populated exactly like each arm's own (same puts, same etags).
  ObjectStore script_store;
  populate(script_store, universe, seed);
  const std::vector<ScriptEntry> script =
      make_script(script_store, universe, requests, seed);

  std::vector<Row> rows;
  for (TransportKind kind : {TransportKind::kSim, TransportKind::kSocket}) {
    for (bool faulty : {false, true}) {
      Row row = run_arm(kind, faulty, script, universe, seed);
      std::printf(
          "%-6s %-6s  requests=%zu completed=%zu errored=%zu shed=%zu  "
          "%8.1f req/s  p99=%.0fus%s\n",
          row.transport.c_str(), row.wire.c_str(), row.requests,
          row.completed, row.errored, row.shed, row.requests_per_sec,
          row.p99_fetch_us, row.taxonomy_accounted ? "" : "  TAXONOMY LEAK");
      rows.push_back(std::move(row));
    }
  }

  // Gate 1: clean-wire parity, fetch by fetch, exact.
  const Row& sim_clean = rows[0];
  const Row& socket_clean = rows[2];
  bool parity_clean = sim_clean.records.size() == socket_clean.records.size();
  for (std::size_t i = 0; parity_clean && i < sim_clean.records.size(); ++i) {
    const FetchRecord& a = sim_clean.records[i];
    const FetchRecord& b = socket_clean.records[i];
    parity_clean = a.status == b.status && a.body_size == b.body_size &&
                   a.request_ms == b.request_ms &&
                   a.complete_ms == b.complete_ms;
    if (!parity_clean)
      std::fprintf(stderr,
                   "parity breach at fetch %zu (%s): sim (%d, %llu B, "
                   "%lld..%lld ms) vs socket (%d, %llu B, %lld..%lld ms)\n",
                   i, script[i].url.c_str(), a.status,
                   static_cast<unsigned long long>(a.body_size),
                   static_cast<long long>(a.request_ms),
                   static_cast<long long>(a.complete_ms), b.status,
                   static_cast<unsigned long long>(b.body_size),
                   static_cast<long long>(b.request_ms),
                   static_cast<long long>(b.complete_ms));
  }

  // Gate 2: nothing lost, anywhere. Gate 3: every arm inside the band.
  bool all_accounted = true;
  bool in_band = true;
  for (const Row& row : rows) {
    all_accounted &= row.taxonomy_accounted;
    in_band &= row.completed_rate >= 0.8 && row.error_rate <= 0.2 &&
               row.shed_rate <= 0.2;
  }

  if (!parity_clean) {
    std::fprintf(stderr, "FAIL: clean socket arm diverged from the sim arm\n");
    return 1;
  }
  if (!all_accounted) {
    std::fprintf(stderr,
                 "FAIL: requests != completed + errored + shed on some arm\n");
    return 1;
  }
  if (!in_band) {
    std::fprintf(stderr,
                 "FAIL: some arm completed < 80%% or errored or shed > 20%%\n");
    return 1;
  }
  return 0;
}
