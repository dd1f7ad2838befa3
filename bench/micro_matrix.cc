// Pinned micro-benchmark matrix — the hot-path microarchitecture pass's
// acceptance artifact (DESIGN.md §17). One row per stage, every stage on a
// fixed seed:
//
//   coverage_scalar                    per-object swept-viewport kernel
//                                      (first_overlap_fraction)
//   analyze_aos                        full ScrollTracker::analyze
//   touch_replan_aos                   the full per-touch production path:
//                                      analyze + FlowController re-solve
//   header_parse                       HttpParser over a typical request
//   header_lookup                      HeaderMap get_view/contains/
//                                      content_length (must not allocate)
//   cache_key                          url reconstruction + If-None-Match
//                                      match, the sim cache's key path
//
// Each row carries an FNV-1a fingerprint over the stage's results — a pure
// function of the seed, gated exact by tools/bench_gate.py — plus wall
// ns/op. The header_lookup row's allocation count is asserted in-binary.
//
//   micro_matrix [--reps N] [--passes K] [--seed S] [--json BENCH_micro.json]
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "cli/standard_options.h"
#include "core/flow_controller.h"
#include "core/scroll_tracker.h"
#include "geom/swept_region.h"
#include "http/parser.h"
#include "util/json.h"
#include "util/rng.h"
#include "web/corpus.h"

// Global allocation counter for the zero-alloc gate on the header rows.
// Relaxed is fine: the bench is single-threaded.
namespace {
std::atomic<unsigned long long> g_allocs{0};
}

// Counting via malloc/free keeps the override self-contained; GCC's
// -Wmismatched-new-delete can't see the pairing through the counter, hence
// the pragma rather than a code change.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace mfhttp;
using Clock = std::chrono::steady_clock;

// Not the standard FNV-1a basis (util/fnv.h); BENCH_micro.json depends on it.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

void fnv_double(std::uint64_t& h, double d) {
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  fnv_bytes(h, &bits, sizeof(bits));
}

void fnv_u64(std::uint64_t& h, std::uint64_t v) { fnv_bytes(h, &v, sizeof(v)); }

struct StageRow {
  std::string stage;
  unsigned long long ops = 0;
  double ns_per_op = 0;
  std::uint64_t fingerprint = 0;
  long long allocs_per_op = -1;    // -1: not measured for this stage
};

// Best-of-K timing: each stage's reps loop runs `passes` times and the
// fastest pass is reported. Min-time is the standard defense against
// scheduler preemption and frequency dips on shared runners — one slow pass
// would otherwise swing a row's ns/op by 2-4x.
template <typename Body>
double best_ns_per_op(unsigned long long passes, unsigned long long ops,
                      Body&& body) {
  double best = 0;
  for (unsigned long long p = 0; p < passes; ++p) {
    const auto t0 = Clock::now();
    body();
    const auto t1 = Clock::now();
    const double ns = static_cast<double>(
                          std::chrono::duration_cast<std::chrono::nanoseconds>(
                              t1 - t0)
                              .count()) /
                      static_cast<double>(ops);
    if (p == 0 || ns < best) best = ns;
  }
  return best;
}

// Hashes the analysis as one coverage per object, in object order: the
// listed fields, or the defaults for an unlisted object.
void fnv_analysis(std::uint64_t& h, const ScrollAnalysis& analysis,
                  std::size_t object_count) {
  std::vector<ObjectCoverage> dense(object_count);
  for (std::size_t i = 0; i < object_count; ++i) dense[i].object_index = i;
  for (const ObjectCoverage& c : analysis.listed) dense[c.object_index] = c;
  for (const ObjectCoverage& c : dense) {
    fnv_u64(h, c.object_index);
    fnv_u64(h, (c.involved ? 1u : 0u) | (c.in_initial_viewport ? 2u : 0u) |
                   (c.in_final_viewport ? 4u : 0u));
    fnv_double(h, c.entry_time_ms);
    fnv_double(h, c.coverage_integral);
    fnv_double(h, c.final_coverage);
  }
}

void fnv_policy(std::uint64_t& h, const DownloadPolicy& policy) {
  for (const DownloadDecision& d : policy.decisions) {
    fnv_u64(h, d.object_index);
    fnv_u64(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(d.version)));
    fnv_double(h, d.entry_time_ms);
    fnv_double(h, d.qoe);
    fnv_double(h, d.cost);
    fnv_double(h, d.value);
  }
  fnv_double(h, policy.objective);
  fnv_u64(h, static_cast<std::uint64_t>(policy.total_bytes));
}

Gesture fling(Vec2 v) {
  Gesture g;
  g.kind = GestureKind::kFling;
  g.down_time_ms = -150;
  g.up_time_ms = 0;
  g.down_pos = {700, 1800};
  g.up_pos = g.down_pos + v * 0.15;
  g.release_velocity = v;
  return g;
}

std::string typical_request_text() {
  return "GET /article/42?ref=home HTTP/1.1\r\n"
         "Host: news.example\r\n"
         "User-Agent: mfhttp-bench/1.0\r\n"
         "Accept: text/html,application/xhtml+xml\r\n"
         "Accept-Encoding: gzip, br\r\n"
         "Accept-Language: en-US,en;q=0.9\r\n"
         "Connection: keep-alive\r\n"
         "Cache-Control: max-age=0\r\n"
         "If-None-Match: \"a1b2c3d4\"\r\n"
         "Range: bytes=0-65535\r\n"
         "X-Mfhttp-Session: s-17\r\n"
         "\r\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string reps_s, seed_s, passes_s, json_path;
  cli::StandardOptions standard_options(argc, argv, [&](CliOptions& options) {
    options.add_string("--reps", "N", "repetitions per stage (default 400)", &reps_s)
        .add_string("--passes", "K",
                    "timing passes per stage, best one reported (default 5)",
                    &passes_s)
        .add_string("--seed", "S", "corpus/gesture seed (default 1)", &seed_s)
        .add_string("--json", "PATH", "result document (default BENCH_micro.json)",
                    &json_path);
  });
  const unsigned long long reps =
      reps_s.empty() ? 400 : CliOptions::positive_size("--reps", reps_s);
  const unsigned long long passes =
      passes_s.empty() ? 5 : CliOptions::positive_size("--passes", passes_s);
  const std::uint64_t seed =
      seed_s.empty() ? 1 : CliOptions::positive_size("--seed", seed_s);
  if (json_path.empty()) json_path = "BENCH_micro.json";

  // Fixture: the densest fig7 corpus page (the Sohu-like limited-viewport
  // site) on the flagship profile, swept by the fig7 swipe ramp.
  const DeviceProfile device = DeviceProfile::nexus6();
  Rng rng(seed);
  std::vector<WebPage> corpus = generate_corpus(device, rng);
  const WebPage* page = &corpus.front();
  for (const WebPage& p : corpus)
    if (p.images.size() > page->images.size()) page = &p;
  const std::vector<MediaObject>& objects = page->images;

  ScrollTracker::Params tp;
  tp.scroll = ScrollConfig(device);
  tp.coverage_step_ms = 4.0;
  ScrollTracker tracker(tp);
  const Rect viewport{0, 0, device.screen_w_px, device.screen_h_px};
  std::vector<ScrollPrediction> preds;
  std::vector<SweptRegion> sweeps;
  for (int r = 0; r < 3; ++r) {
    Vec2 v{0, -(3000.0 + 2500.0 * r)};
    preds.push_back(tracker.predict(fling(v), viewport));
    sweeps.push_back(preds.back().sweep());
  }
  const auto bandwidth = BandwidthTrace::constant(500'000);

  std::printf("=== Micro matrix: %zu objects (%s), %llu reps, seed %llu ===\n\n",
              objects.size(), page->site.c_str(), reps,
              static_cast<unsigned long long>(seed));
  std::vector<StageRow> rows;

  // ---- coverage: scalar per-object loop ----
  std::vector<double> frac_scalar(objects.size());
  StageRow scalar_row;
  scalar_row.stage = "coverage_scalar";
  scalar_row.ops = reps * sweeps.size() * objects.size();
  {
    scalar_row.ns_per_op = best_ns_per_op(passes, scalar_row.ops, [&] {
      for (unsigned long long rep = 0; rep < reps; ++rep)
        for (const SweptRegion& sweep : sweeps)
          for (std::size_t i = 0; i < objects.size(); ++i)
            frac_scalar[i] = first_overlap_fraction(sweep, objects[i].rect);
    });
    std::uint64_t h = kFnvOffset;
    for (const SweptRegion& sweep : sweeps)
      for (std::size_t i = 0; i < objects.size(); ++i)
        fnv_double(h, first_overlap_fraction(sweep, objects[i].rect));
    scalar_row.fingerprint = h;
  }
  rows.push_back(scalar_row);

  // ---- full analyze ----
  StageRow analyze_aos;
  analyze_aos.stage = "analyze_aos";
  analyze_aos.ops = reps * preds.size();
  {
    analyze_aos.ns_per_op = best_ns_per_op(passes, analyze_aos.ops, [&] {
      for (unsigned long long rep = 0; rep < reps; ++rep)
        for (const ScrollPrediction& pred : preds) {
          ScrollAnalysis a = tracker.analyze(pred, objects);
          (void)a;
        }
    });
    std::uint64_t h = kFnvOffset;
    for (const ScrollPrediction& pred : preds)
      fnv_analysis(h, tracker.analyze(pred, objects), objects.size());
    analyze_aos.fingerprint = h;
  }
  rows.push_back(analyze_aos);

  // ---- per-touch replan: the §3.4.2 production path (analyze + re-solve) ----
  // What actually runs on every touch event is analyze -> replan; that
  // composite is the row.
  StageRow replan_aos;
  replan_aos.stage = "touch_replan_aos";
  replan_aos.ops = reps * preds.size();
  {
    FlowController fc{FlowController::Params{}};
    for (const ScrollPrediction& pred : preds)
      fc.replan(tracker.analyze(pred, objects), objects, bandwidth);  // warm
    replan_aos.ns_per_op = best_ns_per_op(passes, replan_aos.ops, [&] {
      for (unsigned long long rep = 0; rep < reps; ++rep)
        for (const ScrollPrediction& pred : preds) {
          DownloadPolicy p =
              fc.replan(tracker.analyze(pred, objects), objects, bandwidth);
          (void)p;
        }
    });
    std::uint64_t h = kFnvOffset;
    for (const ScrollPrediction& pred : preds)
      fnv_policy(h, fc.replan(tracker.analyze(pred, objects), objects,
                              bandwidth));
    replan_aos.fingerprint = h;
  }
  rows.push_back(replan_aos);

  // ---- header parse ----
  const std::string request_text = typical_request_text();
  StageRow header_parse;
  header_parse.stage = "header_parse";
  header_parse.ops = reps * 64;
  {
    header_parse.ns_per_op = best_ns_per_op(passes, header_parse.ops, [&] {
      for (unsigned long long op = 0; op < header_parse.ops; ++op) {
        HttpParser parser(HttpParser::Mode::kRequest);
        parser.feed(request_text);
        HttpRequest req = parser.take_request();
        (void)req;
      }
    });
    HttpParser parser(HttpParser::Mode::kRequest);
    parser.feed(request_text);
    HttpRequest req = parser.take_request();
    std::uint64_t h = kFnvOffset;
    fnv_u64(h, req.headers.size());
    for (const auto& entry : req.headers) {
      fnv_bytes(h, entry.name().data(), entry.name().size());
      fnv_bytes(h, entry.value().data(), entry.value().size());
    }
    header_parse.fingerprint = h;
  }
  rows.push_back(header_parse);

  // ---- header lookup (the zero-alloc gate) ----
  StageRow header_lookup;
  header_lookup.stage = "header_lookup";
  header_lookup.ops = reps * 256;
  {
    HttpParser parser(HttpParser::Mode::kRequest);
    parser.feed(request_text);
    const HttpRequest req = parser.take_request();
    static const char* const kNames[] = {"Host", "Connection", "If-None-Match",
                                         "Range", "Accept-Encoding",
                                         "X-Mfhttp-Session", "content-length"};
    std::uint64_t sink = 0;
    const unsigned long long allocs_before =
        g_allocs.load(std::memory_order_relaxed);
    header_lookup.ns_per_op = best_ns_per_op(passes, header_lookup.ops, [&] {
      for (unsigned long long op = 0; op < header_lookup.ops; ++op) {
        for (const char* name : kNames)
          if (auto v = req.headers.get_view(name)) sink += v->size();
        sink += req.headers.contains("Transfer-Encoding") ? 1 : 0;
        sink += static_cast<std::uint64_t>(
            req.headers.content_length().value_or(0));
      }
    });
    const unsigned long long allocs_after =
        g_allocs.load(std::memory_order_relaxed);
    // The alloc delta spans every timing pass; one heap hit anywhere fails
    // (round up so a sub-1/op trickle cannot divide away to zero).
    const long long alloc_delta =
        static_cast<long long>(allocs_after - allocs_before);
    const long long lookup_total =
        static_cast<long long>(header_lookup.ops * passes);
    header_lookup.allocs_per_op =
        (alloc_delta + lookup_total - 1) / lookup_total;
    std::uint64_t h = kFnvOffset;
    fnv_u64(h, sink / header_lookup.ops);
    for (const char* name : kNames)
      if (auto v = req.headers.get_view(name)) fnv_bytes(h, v->data(), v->size());
    header_lookup.fingerprint = h;
  }
  rows.push_back(header_lookup);

  // ---- cache key path: url reconstruction + conditional-request match ----
  StageRow cache_key;
  cache_key.stage = "cache_key";
  cache_key.ops = reps * 64;
  {
    HttpParser parser(HttpParser::Mode::kRequest);
    parser.feed(request_text);
    const HttpRequest req = parser.take_request();
    const std::string etag = "\"a1b2c3d4\"";
    std::uint64_t matches = 0;
    std::string last_key;
    cache_key.ns_per_op = best_ns_per_op(passes, cache_key.ops, [&] {
      matches = 0;
      for (unsigned long long op = 0; op < cache_key.ops; ++op) {
        auto url = req.url();
        std::string key = url ? url->to_string() : req.target;
        const auto inm = req.headers.get_view("If-None-Match");
        if (inm && *inm == etag) ++matches;
        last_key = std::move(key);
      }
    });
    std::uint64_t h = kFnvOffset;
    fnv_bytes(h, last_key.data(), last_key.size());
    fnv_u64(h, matches / cache_key.ops);
    cache_key.fingerprint = h;
  }
  rows.push_back(cache_key);

  // ---- report ----
  const bool zero_alloc_lookups = header_lookup.allocs_per_op == 0;
  std::printf("%19s %14s %10s %20s %7s\n", "stage", "ops", "ns/op",
              "fingerprint", "allocs");
  for (const StageRow& row : rows) {
    char allocs_s[24] = "-";
    if (row.allocs_per_op >= 0)
      std::snprintf(allocs_s, sizeof(allocs_s), "%lld", row.allocs_per_op);
    std::printf("%19s %14llu %10.1f %020llx %7s\n", row.stage.c_str(),
                row.ops, row.ns_per_op,
                static_cast<unsigned long long>(row.fingerprint), allocs_s);
  }

  JsonWriter w;
  w.begin_object();
  w.key("bench").value("micro_matrix");
  w.key("seed").value(static_cast<unsigned long long>(seed));
  w.key("reps").value(reps);
  w.key("site").value(page->site);
  w.key("objects").value(objects.size());
  w.key("zero_alloc_lookups").value(zero_alloc_lookups);
  w.key("rows").begin_array();
  for (const StageRow& row : rows) {
    w.begin_object();
    w.key("stage").value(row.stage);
    w.key("ops").value(row.ops);
    w.key("ns_per_op").value(row.ns_per_op);
    // Hex string: fingerprints are 64-bit and JSON numbers are doubles.
    char fp[24];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(row.fingerprint));
    w.key("fingerprint").value(fp);
    if (row.allocs_per_op >= 0) w.key("allocs_per_op").value(row.allocs_per_op);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) CliOptions::fail("--json", json_path, "cannot open for writing");
  std::fputs(w.str().c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("\nwrote %s\n", json_path.c_str());

  if (!zero_alloc_lookups) {
    std::fprintf(stderr, "FAIL: header lookups allocated (%lld allocs/op)\n",
                 header_lookup.allocs_per_op);
    return 1;
  }
  return 0;
}
