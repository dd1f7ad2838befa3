// Raw touch events — the wire format between the app and the touch event
// monitor, mirroring Android MotionEvent's ACTION_DOWN / ACTION_MOVE /
// ACTION_UP (§4.1 of the paper).
#pragma once

#include <vector>

#include "geom/vec2.h"
#include "util/types.h"

namespace mfhttp {

enum class TouchAction { kDown, kMove, kUp };

struct TouchEvent {
  TimeMs time_ms = 0;   // event timestamp
  Vec2 pos;             // finger position in screen px
  TouchAction action = TouchAction::kMove;
  int pointer = 0;      // pointer id (0 = primary finger)

  bool operator==(const TouchEvent&) const = default;
};

using TouchTrace = std::vector<TouchEvent>;

inline const char* to_string(TouchAction a) {
  switch (a) {
    case TouchAction::kDown: return "DOWN";
    case TouchAction::kMove: return "MOVE";
    case TouchAction::kUp: return "UP";
  }
  return "?";
}

}  // namespace mfhttp
