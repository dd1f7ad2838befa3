// browse_paper: the paper's Fig. 7 workload through run_browsing_session.
//
// The work set is 1,050 sessions: ScenarioSpec::paper_default() with
// spec.seed = S..S+13, x the 25-site corpus x repeats 0-2, MF-HTTP on. Page
// load simulation dominates (sim, net link, http proxy, web browser model);
// the session's single gesture is about 1% of its time, so a core-only
// speed-up should not move this workload. The simulated-time outcomes are
// exact: they guard behaviour, not speed.
//
// One unit runs the whole work set; every unit must reproduce the first
// unit's outcomes.
#include <string>
#include <vector>

#include "bench.h"
#include "scenario/scenario_spec.h"
#include "scenario/wiring.h"
#include "trace.h"
#include "web/corpus.h"
#include "web/experiment.h"

namespace mfbench {

namespace {

using namespace mfhttp;

constexpr int kRepeats = 3;

// One run of the work set.
struct Pass {
  std::vector<double> session_us;
  std::vector<double> vlt_ms;
  Bytes bytes = 0;
  std::uint64_t requests = 0;
  std::uint64_t avoided = 0;
  std::uint64_t unloaded = 0;  // sessions that never loaded their viewport
  std::uint64_t fingerprint = 0;
};

Pass run_pass(const Options& options, const std::vector<WebPage>& corpus,
              Tracer& tracer) {
  scenario::ScenarioSpec spec = scenario::ScenarioSpec::paper_default();
  Pass pass;
  Fnv fp;
  std::uint64_t id = 0;
  for (std::uint64_t s = 0; s < (options.quick ? 1 : 14); ++s) {
    spec.seed = options.seed + s;
    for (const WebPage& page : corpus) {
      for (int repeat = 0; repeat < kRepeats; ++repeat) {
        const BrowsingSessionConfig cfg = browsing_config(spec, page, repeat);
        const Clock::time_point start = Clock::now();
        BrowsingSessionResult r;
        {
          Scope span(tracer, "web.run_browsing_session", ++id);
          r = run_browsing_session(page, cfg);
        }
        pass.session_us.push_back(us_between(start, Clock::now()));
        if (r.initial_viewport_load_ms < 0) ++pass.unloaded;
        pass.vlt_ms.push_back(static_cast<double>(r.initial_viewport_load_ms));
        pass.bytes += r.bytes_downloaded;
        pass.requests += r.requests_total;
        pass.avoided += r.images_avoided;
        fp.u64(static_cast<std::uint64_t>(r.initial_viewport_load_ms));
        fp.u64(static_cast<std::uint64_t>(r.final_viewport_load_ms));
        fp.u64(static_cast<std::uint64_t>(r.bytes_downloaded));
        fp.u64(r.images_completed);
        fp.u64(r.stranded_deferred);
      }
    }
  }
  pass.fingerprint = fp.h;
  return pass;
}

}  // namespace

Result run_browse_paper(const Options& options, Tracer& tracer) {
  // Set-up: the corpus every session loads. It is generated three times
  // before every unit, so the set-up samples spread over the whole run.
  std::vector<double> setup_s;
  std::vector<WebPage> corpus;
  auto set_up = [&] {
    for (int i = 0; i < 3; ++i) {
      const Clock::time_point start = Clock::now();
      Rng rng(42);
      corpus = generate_corpus(DeviceProfile::nexus6(), rng);
      setup_s.push_back(seconds_since(start));
    }
    if (options.quick) corpus.resize(5);
  };

  Result result;
  set_up();
  const Pass first = run_pass(options, corpus, tracer);  // warm-up, reference
  result.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  result.fingerprint = first.fingerprint;

  std::vector<double> p50, p99, ops, traced_p50;
  bool identical = true;
  const Window window(options.seconds, options.quick ? 2 : 3);
  for (std::size_t unit = 0; window.more(unit); ++unit) {
    set_up();
    tracer.set_active(options.trace && unit % 2 == 1);
    const Pass pass = run_pass(options, corpus, tracer);
    result.attempted += pass.session_us.size();
    result.failed += pass.unloaded;
    identical = identical && pass.fingerprint == first.fingerprint;
    if (tracer.active()) {
      traced_p50.push_back(percentile(pass.session_us, 50));
      continue;
    }
    double busy_us = 0;
    for (double us : pass.session_us) busy_us += us;
    p50.push_back(percentile(pass.session_us, 50));
    p99.push_back(percentile(pass.session_us, 99));
    ops.push_back(static_cast<double>(pass.session_us.size()) * 1e6 / busy_us);
  }
  tracer.set_active(false);
  result.check(first.unloaded == 0,
               "browse_paper: " + std::to_string(first.unloaded) +
                   " sessions never loaded their initial viewport");
  result.check(identical,
               "browse_paper: a unit's session outcomes differ from the first "
               "unit's");

  const double n = static_cast<double>(first.session_us.size());
  result.metric("op_p50_us", fastest(p50), "us");
  result.metric("op_p99_us", fastest(p99), "us");
  result.metric("op_samples", n, "count");
  result.metric("ops_per_s", highest(ops), "1/s");
  result.metric("served_ratio",
                1.0 - static_cast<double>(result.failed) /
                          static_cast<double>(result.attempted),
                "ratio");
  result.metric("setup_s", median(setup_s), "s");
  // Simulated time: exact for a seed, identical on every run of it.
  result.metric("web.vlt_p50", percentile(first.vlt_ms, 50), "sim_ms");
  result.metric("web.vlt_p99", percentile(first.vlt_ms, 99), "sim_ms");
  result.metric("web.bytes_per_session", static_cast<double>(first.bytes) / n,
                "bytes");
  result.metric("http.proxy.requests_per_session",
                static_cast<double>(first.requests) / n, "count");
  result.metric("web.images_avoided_per_session",
                static_cast<double>(first.avoided) / n, "count");
  if (!options.trace) return result;

  const std::vector<double> spans = tracer.self_us("web.run_browsing_session");
  result.metric("web.session_us.p50", percentile(spans, 50), "us");
  result.metric("web.session_us.p99", percentile(spans, 99), "us");
  result.metric("trace.overhead_share",
                overhead_share(fastest(traced_p50), fastest(p50)), "ratio");
  return result;
}

}  // namespace mfbench
