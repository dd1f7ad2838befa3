#include "trace.h"

#include <chrono>
#include <cstdio>

#include "util/json.h"

namespace mfbench {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::uint32_t Tracer::begin(const char* name, std::uint64_t id) {
  if (!active_) return kNone;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? kNone : open_.back();
  span.id = id;
  const auto index = static_cast<std::uint32_t>(spans_.size());
  open_.push_back(index);
  span.start_ns = now_ns();
  spans_.push_back(span);
  return index;
}

void Tracer::end(std::uint32_t index) {
  if (index == kNone) return;
  Span& span = spans_[index];
  span.dur_ns = now_ns() - span.start_ns;
  open_.pop_back();
  if (span.parent != kNone) spans_[span.parent].child_ns += span.dur_ns;
}

std::vector<double> Tracer::self_us(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (name == s.name)
      out.push_back(static_cast<double>(s.dur_ns - s.child_ns) / 1000.0);
  return out;
}

bool Tracer::write_chrome_json(const std::string& path,
                               std::size_t max_spans) const {
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  mfhttp::JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit").value("ns");
  w.key("traceEvents").begin_array();
  for (std::size_t i = 0; i < spans_.size() && i < max_spans; ++i) {
    const Span& s = spans_[i];
    w.begin_object();
    w.key("name").value(s.name);
    w.key("ph").value("X");
    w.key("pid").value(1);
    w.key("tid").value(1);
    w.key("ts").value(static_cast<double>(s.start_ns - t0) / 1000.0);
    w.key("dur").value(static_cast<double>(s.dur_ns) / 1000.0);
    w.key("args").begin_object();
    w.key("id").value(static_cast<unsigned long long>(s.id));
    w.key("self_us").value(static_cast<double>(s.dur_ns - s.child_ns) / 1000.0);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs(w.str().c_str(), f) >= 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace mfbench
