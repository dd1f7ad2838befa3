// Minimal leveled logger.
//
// Only warnings and errors are emitted (LogLevel::kWarn and up). Thread-safe:
// log_write serializes emission through one mutex-guarded sink, so callers
// off the simulator thread (e.g. the metrics snapshot path) never interleave
// partial lines.
#pragma once

#include <sstream>
#include <string>

namespace mfhttp {

enum class LogLevel { kTrace = 0, kDebug = 1, kInfo = 2, kWarn = 3, kError = 4, kOff = 5 };

// Global minimum level; messages below it are dropped.
LogLevel log_level();

namespace detail {
void log_write(LogLevel level, const std::string& msg);

class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { log_write(level_, out_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    out_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream out_;
};
}  // namespace detail

}  // namespace mfhttp

#define MFHTTP_LOG(level)                                   \
  if (static_cast<int>(::mfhttp::LogLevel::level) <         \
      static_cast<int>(::mfhttp::log_level())) {            \
  } else                                                    \
    ::mfhttp::detail::LogLine(::mfhttp::LogLevel::level)

#define MFHTTP_TRACE MFHTTP_LOG(kTrace)
#define MFHTTP_DEBUG MFHTTP_LOG(kDebug)
#define MFHTTP_INFO MFHTTP_LOG(kInfo)
#define MFHTTP_WARN MFHTTP_LOG(kWarn)
#define MFHTTP_ERROR MFHTTP_LOG(kError)
