#include "util/logging.h"

#include <cstdio>
#include <mutex>

namespace mfhttp {

namespace {
// One process-wide sink mutex: lines from concurrent callers (simulator
// thread vs. a metrics snapshot) emit whole, never interleaved.
std::mutex& sink_mutex() {
  static std::mutex* mu = new std::mutex();  // never destroyed: loggable
  return *mu;                                // code may run during exit
}

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF  ";
  }
  return "?????";
}
}  // namespace

LogLevel log_level() { return LogLevel::kWarn; }

namespace detail {
void log_write(LogLevel level, const std::string& msg) {
  std::lock_guard<std::mutex> lock(sink_mutex());
  std::fprintf(stderr, "[%s] %s\n", level_tag(level), msg.c_str());
}
}  // namespace detail

}  // namespace mfhttp
