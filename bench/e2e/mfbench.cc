// mfbench — the repository benchmark (README.md). One workload per process:
//
//   mfbench --workload feed_scroll|browse_paper|frontdoor_hot|frontdoor_churn
//           --seed S [--seconds T] [--trace] [--quick]
//           [--json PATH] [--trace-out PATH] [--commit SHA]
//
// Sets up, runs one untimed warm-up unit, then timed units of identical work
// until --seconds have passed (at least three). Prints every metric as
// `name value unit`, writes the run document (machine header, run header,
// checks, metrics) to --json, and exits 1 if any correctness check failed.
// --trace records spans on every other unit, reports the per-layer metrics
// and the tracing overhead, and writes the spans as Chrome trace-event JSON
// to --trace-out.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.h"
#include "trace.h"
#include "util/cli_options.h"
#include "util/json.h"
#include "util/stats.h"

namespace mfbench {

double percentile(const std::vector<double>& xs, double p) {
  mfhttp::Samples samples;
  for (double x : xs) samples.add(x);
  return samples.percentile(p);
}

// VmHWM, the high-water mark of this process image. getrusage's ru_maxrss
// would also count the launcher's footprint, which survives exec.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr)
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

namespace {

constexpr std::size_t kMaxTraceSpans = 50'000;

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

bool write_document(const std::string& path, const Options& options,
                    const std::string& commit, const Result& result) {
  mfhttp::JsonWriter w;
  w.begin_object();
  w.key("machine").begin_object();
  w.key("nproc").value(
      static_cast<unsigned long long>(std::thread::hardware_concurrency()));
  w.key("compiler").value(compiler());
  w.key("build_type").value(MFBENCH_BUILD_TYPE);
  w.end_object();
  w.key("run").begin_object();
  w.key("workload").value(options.workload);
  w.key("seed").value(static_cast<unsigned long long>(options.seed));
  w.key("seconds").value(options.seconds);
  w.key("trace").value(options.trace);
  w.key("quick").value(options.quick);
  w.key("commit").value(commit);
  w.end_object();
  w.key("correct").value(result.errors.empty());
  w.key("errors").begin_array();
  for (const std::string& e : result.errors) w.value(e);
  w.end_array();
  w.key("attempted").value(static_cast<unsigned long long>(result.attempted));
  w.key("failed").value(static_cast<unsigned long long>(result.failed));
  w.key("fingerprint").value(hex(result.fingerprint));
  w.key("metrics").begin_object();
  for (const Metric& m : result.metrics) {
    w.key(m.name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs(w.str().c_str(), f) >= 0 && std::fputc('\n', f) != EOF;
  return std::fclose(f) == 0 && ok;
}

}  // namespace

}  // namespace mfbench

int main(int argc, char** argv) {
  using namespace mfbench;
  using mfhttp::CliOptions;

  Options options;
  std::string seed_s, seconds_s, json_path, trace_path, commit = "unknown";
  CliOptions cli("mfbench");
  cli.add_string("--workload", "W",
                 "feed_scroll | browse_paper | frontdoor_hot | frontdoor_churn",
                 &options.workload)
      .add_string("--seed", "S", "input seed (required)", &seed_s)
      .add_string("--seconds", "T", "timed phase length (default 20)",
                  &seconds_s)
      .add_flag("--trace", "per-layer run: record spans", &options.trace)
      .add_flag("--quick", "smoke size", &options.quick)
      .add_string("--json", "PATH", "write the run document here", &json_path)
      .add_string("--trace-out", "PATH", "write Chrome trace-event JSON here",
                  &trace_path)
      .add_string("--commit", "SHA", "commit recorded in the run header",
                  &commit);
  cli.parse_or_exit(argc, argv);
  if (argc > 1) CliOptions::fail(argv[1], "", "unexpected argument");

  char* end = nullptr;
  if (seed_s.empty()) CliOptions::fail("--seed", "", "required");
  options.seed = std::strtoull(seed_s.c_str(), &end, 10);
  if (*end != '\0') CliOptions::fail("--seed", seed_s, "expected an integer");
  if (!seconds_s.empty()) {
    options.seconds = std::strtod(seconds_s.c_str(), &end);
    if (*end != '\0' || options.seconds < 0)
      CliOptions::fail("--seconds", seconds_s, "expected seconds >= 0");
  }

  Tracer tracer;
  Result result;
  if (options.workload == "feed_scroll") {
    result = run_feed_scroll(options, tracer);
  } else if (options.workload == "browse_paper") {
    result = run_browse_paper(options, tracer);
  } else if (options.workload == "frontdoor_hot") {
    result = run_frontdoor(options, tracer, /*churn=*/false);
  } else if (options.workload == "frontdoor_churn") {
    result = run_frontdoor(options, tracer, /*churn=*/true);
  } else {
    CliOptions::fail("--workload", options.workload, "unknown workload");
  }

  std::printf("# mfbench workload=%s seed=%llu seconds=%g trace=%d quick=%d "
              "nproc=%u compiler=\"%s\" build=%s commit=%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.quick ? 1 : 0,
              std::thread::hardware_concurrency(), compiler().c_str(),
              MFBENCH_BUILD_TYPE, commit.c_str());
  for (const Metric& m : result.metrics)
    std::printf("%s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("attempted %llu failed %llu\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  std::printf("fingerprint %s\n", hex(result.fingerprint).c_str());
  std::printf("correct %s\n", result.errors.empty() ? "yes" : "NO");
  std::fflush(stdout);
  for (const std::string& e : result.errors)
    std::fprintf(stderr, "FAIL: %s\n", e.c_str());

  if (!json_path.empty() && !write_document(json_path, options, commit, result)) {
    std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
    return 1;
  }
  if (options.trace && !trace_path.empty() &&
      !tracer.write_chrome_json(trace_path, kMaxTraceSpans)) {
    std::fprintf(stderr, "error: cannot write %s\n", trace_path.c_str());
    return 1;
  }
  return result.errors.empty() ? 0 : 1;
}
