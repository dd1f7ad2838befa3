// CSV persistence for touch traces, so experiments can be recorded once and
// replayed (the paper records volunteer touches and replays them through
// MF-HTTP, §6.2.1).
//
// Touch trace CSV:      time_ms,action,x,y[,pointer]   (action: DOWN/MOVE/UP;
//                       pointer defaults to 0 when the column is absent)
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "gesture/touch_event.h"

namespace mfhttp {

void write_touch_trace(std::ostream& out, const TouchTrace& trace);
// Returns nullopt on malformed input (bad action, non-numeric fields,
// out-of-order timestamps).
std::optional<TouchTrace> read_touch_trace(std::istream& in);

// File-path convenience wrappers; return false / nullopt on I/O failure.
bool save_touch_trace(const std::string& path, const TouchTrace& trace);
std::optional<TouchTrace> load_touch_trace(const std::string& path);

}  // namespace mfhttp
