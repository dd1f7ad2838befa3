// In-memory span recorder for the --trace run (README.md "Per-layer
// metrics"). Bench code opens a span around each public call into a layer;
// spans nest on one thread, and a span's self time is its duration minus
// the durations of its direct children. Spans stay in memory until the run
// ends, then export as Chrome trace-event JSON.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace mfbench {

class Tracer {
 public:
  static constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

  // Spans are recorded only while active; a --trace run toggles this per
  // unit so traced and untraced units alternate.
  void set_active(bool active) { active_ = active; }
  bool active() const { return active_; }

  // `name` must be a string literal (stored by pointer). `id` groups the
  // spans of one gesture or request. Returns kNone while inactive.
  std::uint32_t begin(const char* name, std::uint64_t id);
  void end(std::uint32_t span);

  // Self time, in µs, of every recorded span called `name`.
  std::vector<double> self_us(std::string_view name) const;

  // Writes the first `max_spans` spans as Chrome trace-event JSON.
  bool write_chrome_json(const std::string& path, std::size_t max_spans) const;

 private:
  struct Span {
    const char* name = nullptr;
    std::uint32_t parent = kNone;
    std::uint64_t id = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t dur_ns = 0;
    std::uint64_t child_ns = 0;  // summed durations of direct children
  };

  bool active_ = false;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t id)
      : tracer_(tracer), span_(tracer.begin(name, id)) {}
  ~Scope() { tracer_.end(span_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t span_;
};

}  // namespace mfbench
