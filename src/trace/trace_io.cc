#include "trace/trace_io.h"

#include <charconv>
#include <fstream>
#include <ostream>
#include <sstream>

#include "util/strings.h"

namespace mfhttp {

namespace {

std::optional<double> parse_double(std::string_view s) {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  // std::from_chars for double is not universally available; use strtod.
  std::string tmp(s);
  char* end = nullptr;
  double v = std::strtod(tmp.c_str(), &end);
  if (end != tmp.c_str() + tmp.size()) return std::nullopt;
  return v;
}

std::optional<long long> parse_int(std::string_view s) {
  s = trim(s);
  long long v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

}  // namespace

namespace {
// Round-trip-exact double formatting without permanently touching the
// caller's stream state.
class PrecisionGuard {
 public:
  explicit PrecisionGuard(std::ostream& out)
      : out_(out), saved_(out.precision(17)) {}
  ~PrecisionGuard() { out_.precision(saved_); }

 private:
  std::ostream& out_;
  std::streamsize saved_;
};
}  // namespace

void write_touch_trace(std::ostream& out, const TouchTrace& trace) {
  PrecisionGuard guard(out);
  out << "time_ms,action,x,y,pointer\n";
  for (const TouchEvent& ev : trace) {
    out << ev.time_ms << ',' << to_string(ev.action) << ',' << ev.pos.x << ','
        << ev.pos.y << ',' << ev.pointer << '\n';
  }
}

std::optional<TouchTrace> read_touch_trace(std::istream& in) {
  TouchTrace trace;
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    std::string_view sv = trim(line);
    if (sv.empty()) continue;
    if (first) {
      first = false;
      if (starts_with(sv, "time_ms")) continue;  // header
    }
    auto fields = split(sv, ',');
    if (fields.size() != 4 && fields.size() != 5) return std::nullopt;
    auto t = parse_int(fields[0]);
    auto x = parse_double(fields[2]);
    auto y = parse_double(fields[3]);
    if (!t || !x || !y) return std::nullopt;
    TouchEvent ev;
    ev.time_ms = *t;
    ev.pos = {*x, *y};
    if (fields.size() == 5) {
      auto pointer = parse_int(fields[4]);
      if (!pointer || *pointer < 0) return std::nullopt;
      ev.pointer = static_cast<int>(*pointer);
    }
    std::string_view action = trim(fields[1]);
    if (action == "DOWN") ev.action = TouchAction::kDown;
    else if (action == "MOVE") ev.action = TouchAction::kMove;
    else if (action == "UP") ev.action = TouchAction::kUp;
    else return std::nullopt;
    if (!trace.empty() && ev.time_ms < trace.back().time_ms) return std::nullopt;
    trace.push_back(ev);
  }
  return trace;
}

bool save_touch_trace(const std::string& path, const TouchTrace& trace) {
  std::ofstream out(path);
  if (!out) return false;
  write_touch_trace(out, trace);
  return static_cast<bool>(out);
}

std::optional<TouchTrace> load_touch_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  return read_touch_trace(in);
}

}  // namespace mfhttp
