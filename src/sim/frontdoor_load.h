// Deterministic touch-event load for the sharded front door (DESIGN.md
// §13, http/frontdoor.h).
//
// The front door is judged on how many *concurrent sessions* it can serve,
// so its workload is wide and shallow: up to a million sessions, each
// producing a handful of scroll-touch events, every event naming the small
// set of objects the scroll position made relevant. This generator
// pre-draws that entire timeline from a seeded Rng — per session, from a
// seed that is a pure function of (master seed, session id) via splitmix64
// — and returns it globally sorted by timestamp. The draws map raw engine
// output (Rng's engine emits the std::mt19937_64 sequence, which the
// standard fixes bit for bit) through explicit inverse CDFs rather than
// std:: distributions (whose algorithms are implementation-defined and
// differ between libstdc++ and libc++), so two runs of the same config
// produce the same byte sequence of events across standard libraries,
// shard counts, and thread schedules; all nondeterminism in a front-door
// run lives strictly downstream of this vector. A session draws 4 to 6
// words per touch, so a short session never leaves the engine's lazily
// computed first block (util/rng.h).
//
// Events are 20 bytes on purpose: a million-session sweep holds the whole
// timeline in memory while the producer streams it into the shard queues.
#pragma once

#include <cstdint>
#include <vector>

#include "util/types.h"

namespace mfhttp::sim {

struct FrontDoorLoadConfig {
  std::uint64_t seed = 1;
  std::size_t sessions = 1000;
  std::size_t touches_per_session = 4;
  // Distinct objects across the whole deployment (shared working set; the
  // cache-hit ratio is a function of this vs. segment capacity). Capped at
  // 65536 so an event stays pointer-free.
  std::size_t url_universe = 4096;
  // Popularity skew: each reference draws u ~ U[0,1) and touches object
  // floor(u^skew_exponent * universe) — larger exponents concentrate
  // traffic on the hot head, exercising admission + ghost history.
  double skew_exponent = 3.0;
  // Per-session Poisson touch rate once the session has arrived.
  double touch_rate_per_s = 2.0;
  // Open-loop session arrival rate: session s starts at s / rate seconds,
  // so steady-state concurrency is arrival_rate x session lifetime no
  // matter how many total sessions the sweep replays. 0 would mean "all at
  // t=0", which melts any box at a million sessions — keep it positive.
  double session_arrival_per_s = 2000.0;
  std::size_t max_urls_per_touch = 3;  // 1..3 objects per touch
};

struct TouchEvent {
  std::uint32_t session = 0;
  std::uint32_t seq = 0;        // touch index within the session
  std::uint32_t ts_ms = 0;      // simulated arrival time
  std::uint8_t priority = 2;    // overload::kPriority* class
  std::uint8_t n_urls = 0;
  std::uint16_t urls[3] = {0, 0, 0};  // indices into the URL universe
};

// The full timeline, sorted by (ts_ms, session, seq). Pure function of the
// config. Ties between sessions break by session id, so the global order —
// and with it the byte-identity gate between the unsharded and the
// single-shard front door — is total and stable.
std::vector<TouchEvent> generate_frontdoor_load(
    const FrontDoorLoadConfig& config);

// Object size (bytes) for URL index `i` under this config's seed: a stable
// per-object draw in [2 KiB, 64 KiB), skewed small — hot thumbnails and the
// occasional hero image, matching the paper's page corpus shape.
Bytes frontdoor_object_bytes(const FrontDoorLoadConfig& config, std::size_t i);

}  // namespace mfhttp::sim
