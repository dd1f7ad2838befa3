// Deterministic, seeded fault-plan engine (ISSUE 2 / DESIGN.md §9).
//
// A FaultPlan is a JSON-loadable schedule of network and origin misbehaviour
// — link outages, bandwidth collapses, latency spikes, transfer stalls and
// truncations, origin 5xx/429 and abrupt connection closes — that the fault
// decorators (FaultyLink, FaultyFetcher) execute against the simulated
// stack. All randomness derives from the plan's seed and is consumed in
// simulation-event order, so the same plan + seed reproduces the exact same
// failure trace byte for byte.
//
// The engine never touches the decorated components' happy paths: an empty
// plan leaves every byte and timestamp identical to an undecorated run.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/bandwidth_trace.h"
#include "util/types.h"

namespace mfhttp {
struct JsonValue;
}

namespace mfhttp::fault {

// One scheduled link-level fault window, optionally repeating.
struct LinkFaultWindow {
  enum class Kind { kOutage, kCollapse, kLatencySpike };

  Kind kind = Kind::kOutage;
  TimeMs at_ms = 0;        // first occurrence start
  TimeMs duration_ms = 0;  // length of each occurrence
  int repeat = 1;          // number of occurrences
  TimeMs period_ms = 0;    // start-to-start spacing when repeat > 1
  double factor = 0.0;     // kCollapse: bandwidth multiplier in-window
  TimeMs extra_latency_ms = 0;  // kLatencySpike: added before first byte

  // Is some occurrence of this window covering simulated time t?
  bool active_at(TimeMs t_ms) const;
  // End of the last occurrence.
  TimeMs end_ms() const;
};

// Per-transfer faults drawn (seeded) at submit/progress time. A stall models
// a TCP timeout + slow-start reset: delivery pauses mid-flight and resumes
// from zero window after stall_ms. A truncation models a connection dying:
// the transfer "completes" early having delivered only a prefix.
struct TransferFaults {
  double stall_rate = 0;        // probability a transfer stalls once
  TimeMs stall_ms = 0;          // pause length
  double stall_fraction = 0.5;  // progress point where the stall hits
  double truncate_rate = 0;     // probability a transfer is cut short
  double truncate_fraction = 0.5;  // fraction delivered before the cut

  bool any() const { return stall_rate > 0 || truncate_rate > 0; }
};

// Origin-side faults: synthesized error responses and abrupt closes.
struct OriginFaults {
  double error_rate = 0;  // probability a request draws an error response
  std::vector<int> error_statuses = {503};  // drawn uniformly per error
  TimeMs error_delay_ms = 10;               // server think time for errors
  Bytes error_body_size = 256;
  double abrupt_close_rate = 0;  // probability the response dies mid-body
  double abrupt_close_fraction = 0.5;  // body fraction delivered before close

  bool any() const { return error_rate > 0 || abrupt_close_rate > 0; }
};

// Front-door shard faults (ISSUE 7 chaos harness, DESIGN.md §14). Unlike
// the link/transfer/origin faults above — which live inside a shard's
// simulated pipeline — these target the shard *worker thread* itself, the
// thing the FrontDoorSupervisor exists to catch. Triggers are indexed by
// the shard's Nth consumed event rather than by wall time, so a fault
// lands on the same logical work item no matter how fast the host runs.
struct ShardFault {
  enum class Kind {
    kStall,       // worker sleeps stall_ms (wall clock), once, at event K
    kCrash,       // worker stops serving at event K; its queue drains as sheds
    kOriginSlow,  // shard's origin think time multiplied by `factor`
    kSaturate,    // worker sleeps stall_ms before EACH of events [K, K+count)
  };

  Kind kind = Kind::kStall;
  int shard = 0;             // target shard index; -1 hits every shard
  std::size_t at_event = 0;  // shard-local consumed-event index K
  TimeMs stall_ms = 0;       // kStall / kSaturate sleep length
  std::size_t count = 0;     // kSaturate: number of slowed events
  double factor = 1.0;       // kOriginSlow: think-time multiplier (>= 1)

  bool applies_to(std::size_t shard_index) const {
    return shard < 0 || static_cast<std::size_t>(shard) == shard_index;
  }
};

// Byte-level faults on real loopback connections (ISSUE 8, DESIGN.md §15).
// Consumed by fault::SocketFaultInjector inside the aio transport — never by
// the sim-side decorators — and drawn as a pure function of (plan seed,
// connection ordinal, operation ordinal), so the same plan replays the same
// chaos regardless of kernel scheduling or host speed.
struct SocketFaults {
  double short_read_rate = 0;       // clamp a kernel read to a few bytes
  std::size_t short_read_cap = 16;  // max bytes a shortened read may move
  double torn_write_rate = 0;       // clamp a send(), splitting the segment
  std::size_t torn_write_cap = 16;
  double reset_rate = 0;            // abortive close (RST) instead of the op
  double stall_rate = 0;            // pause the direction for stall_ms
  TimeMs stall_ms = 0;

  bool any() const {
    return short_read_rate > 0 || torn_write_rate > 0 || reset_rate > 0 ||
           (stall_rate > 0 && stall_ms > 0);
  }
};

struct FaultPlan {
  std::uint64_t seed = 1;
  std::string name;  // optional label, echoed in logs/benches
  std::vector<LinkFaultWindow> link;
  TransferFaults transfer;
  OriginFaults origin;
  std::vector<ShardFault> frontdoor;
  SocketFaults socket;

  // Faults the FetchPipelineBuilder decorators (FaultyLink/FaultyFetcher)
  // execute. The front-door shard faults and byte-level socket faults are
  // deliberately excluded: the former are consumed by the shard workers,
  // the latter by the aio transport's SocketFaultInjector, and a plan
  // carrying only those must not cost an undecorated pipeline anything.
  bool pipeline_empty() const {
    return link.empty() && !transfer.any() && !origin.any();
  }
  bool empty() const {
    return pipeline_empty() && frontdoor.empty() && !socket.any();
  }

  // End of the last scheduled window (0 if none).
  TimeMs horizon_ms() const;

  // Sum of active latency-spike penalties at t.
  TimeMs extra_latency_at(TimeMs t_ms) const;

  // True while any outage window covers t.
  bool in_outage(TimeMs t_ms) const;

  // Bandwidth trace with outages zeroed and collapses scaled in, resampled
  // at <= 100 ms granularity up to the fault horizon; beyond the horizon the
  // base trace continues untouched.
  BandwidthTrace shape(const BandwidthTrace& base) const;

  // JSON schema (DESIGN.md §9, §14, §15): top-level {"seed", "name",
  // "link": [...], "transfer": {...}, "origin": {...}, "frontdoor":
  // [{"kind": "stall|crash|origin_slow|saturate", "shard", "at_event",
  // "stall_ms", "count", "factor"}, ...], "socket": {"short_read_rate",
  // "short_read_cap", "torn_write_rate", "torn_write_cap", "reset_rate",
  // "stall_rate", "stall_ms"}}. Returns nullopt on malformed JSON
  // or schema violations (unknown kind, negative rate, ...). The `error`
  // out-param (may be nullptr) receives a human-readable cause — malformed
  // JSON reports "line L, column C: why"; schema violations name the field.
  static std::optional<FaultPlan> from_json(std::string_view json,
                                            std::string* error = nullptr);
  // Same schema over an already-parsed document node, for configs that embed
  // a fault plan as a section (scenario::ScenarioSpec) — one parse path, no
  // re-serialization.
  static std::optional<FaultPlan> from_value(const JsonValue& doc,
                                             std::string* error = nullptr);
  static std::optional<FaultPlan> load(const std::string& path,
                                       std::string* error = nullptr);
  std::string to_json() const;

  // The acceptance scenario from ISSUE 2: repeated 3-second link outages
  // plus 10% origin 5xx — the canonical lossy-cellular stress plan.
  static FaultPlan lossy_cellular(std::uint64_t seed = 7);

  // The acceptance scenario from ISSUE 7: one shard of the front door
  // stalls mid-run for `stall_ms` after consuming `at_event` events — the
  // canonical shard-stall chaos plan the supervised/unsupervised arms of
  // bench/chaos_matrix are compared under.
  static FaultPlan shard_stall(int shard, std::size_t at_event, TimeMs stall_ms,
                               std::uint64_t seed = 7);

  // The acceptance scenario from ISSUE 8: short reads, torn writes, RSTs
  // and stall windows on real loopback connections — the canonical plan the
  // faulty-socket arms of bench/loopback_matrix run under. Socket-only: the
  // sim-side pipeline stays undecorated.
  static FaultPlan flaky_socket(std::uint64_t seed = 7);
};

// Ambient process-wide plan installed by the --scenario flag
// (cli/standard_options.h) from the spec's compiled fault plan, and
// consumed by the session runners when a config does not name its own plan.
// nullptr when no plan is installed.
const FaultPlan* global_plan();
void set_global_plan(std::optional<FaultPlan> plan);

}  // namespace mfhttp::fault
