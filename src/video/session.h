// 360°-video streaming session runner (§6.2): walks the DASH timeline one
// 1-second segment at a time, asks a scheduler for a tile plan against the
// bandwidth available that second (plus a small carried-over allowance, the
// player's buffer), and records what the viewer saw.
//
// Also provides an HTTP-level replay that pushes a session's chosen
// segments through the simulated origin/proxy/link stack, which the
// integration tests and the Fig. 9 bench use for byte-accurate accounting.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "net/bandwidth_trace.h"
#include "video/scheduler.h"
#include "video/viewport_trace.h"

namespace mfhttp {

struct SegmentRecord {
  int segment = 0;
  int visible_tiles = 0;
  int viewport_quality = -1;  // ladder index; -1 = NA
  Bytes bytes = 0;            // plan wire size
  Bytes budget = 0;           // allowance the scheduler saw
  bool degraded = false;      // planned in survival mode
};

struct StreamingSessionResult {
  std::string scheduler;
  std::vector<SegmentRecord> segments;
  std::vector<TilePlan> plans;  // parallel to segments
  Bytes total_bytes = 0;

  // Seconds played at each ladder index, with -1 collecting NA seconds.
  std::map<int, int> seconds_at_quality() const;

  // Fraction of session time at `quality` (-1 for NA).
  double fraction_at(int quality) const;

  // Mean resolution over non-NA seconds (0 if all NA).
  double mean_resolution(const VideoAsset& video) const;
};

struct StreamingSessionParams {
  FieldOfView fov;
  // Unused allowance carried between segments, capped at this many seconds
  // of the mean bandwidth (a small player buffer). 0 disables carrying.
  double carry_cap_s = 1.0;
  // Graceful degradation: after this many consecutive NA (stalled) segments
  // the session plans in survival mode (SchedulerContext::degraded) until
  // `recover_after` consecutive non-NA segments. 0 disables.
  int degrade_after_na = 0;
  int recover_after = 2;
};

StreamingSessionResult run_streaming_session(const VideoAsset& video,
                                             const ViewportTrace& viewport,
                                             const BandwidthTrace& bandwidth,
                                             const TileScheduler& scheduler,
                                             const StreamingSessionParams& params);

// Replay a planned session through the simulated HTTP stack: registers every
// chosen tile segment with an origin store and fetches them in order over a
// link shaped by `bandwidth`. Returns per-segment completion times (ms).
std::vector<TimeMs> replay_session_over_http(const VideoAsset& video,
                                             const StreamingSessionResult& session,
                                             const BandwidthTrace& bandwidth);

}  // namespace mfhttp
