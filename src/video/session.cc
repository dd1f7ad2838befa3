#include "video/session.h"

#include <algorithm>
#include <memory>

#include "http/fetch_pipeline.h"
#include "http/proxy.h"
#include "http/sim_http.h"
#include "sim/simulator.h"
#include "util/check.h"

namespace mfhttp {

std::map<int, int> StreamingSessionResult::seconds_at_quality() const {
  std::map<int, int> out;
  for (const SegmentRecord& r : segments) ++out[r.viewport_quality];
  return out;
}

double StreamingSessionResult::fraction_at(int quality) const {
  if (segments.empty()) return 0;
  auto n = std::count_if(segments.begin(), segments.end(),
                         [quality](const SegmentRecord& r) {
                           return r.viewport_quality == quality;
                         });
  return static_cast<double>(n) / static_cast<double>(segments.size());
}

double StreamingSessionResult::mean_resolution(const VideoAsset& video) const {
  double sum = 0;
  int n = 0;
  for (const SegmentRecord& r : segments) {
    if (r.viewport_quality < 0) continue;
    sum += video.representation(r.viewport_quality).resolution;
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

StreamingSessionResult run_streaming_session(const VideoAsset& video,
                                             const ViewportTrace& viewport,
                                             const BandwidthTrace& bandwidth,
                                             const TileScheduler& scheduler,
                                             const StreamingSessionParams& params) {
  StreamingSessionResult result;
  result.scheduler = scheduler.name();

  const TimeMs session_ms = static_cast<TimeMs>(video.segment_count()) * 1000;
  const double mean_rate = bandwidth.bytes_between(0, session_ms) /
                           (static_cast<double>(session_ms) / 1000.0);
  const Bytes carry_cap = static_cast<Bytes>(params.carry_cap_s * mean_rate);

  // Stall-driven degradation, hysteretic: degrade_after_na consecutive NA
  // segments flip survival mode on; recover_after non-NA segments flip it
  // back (fault::DegradationState semantics, inlined to keep this loop free
  // of metrics side effects per scheduler comparison run).
  bool degraded = false;
  int na_streak = 0;
  int ok_streak = 0;

  Bytes carry = 0;
  for (int seg = 0; seg < video.segment_count(); ++seg) {
    const TimeMs t0 = static_cast<TimeMs>(seg) * 1000;
    const Bytes fresh = static_cast<Bytes>(bandwidth.bytes_between(t0, t0 + 1000));
    const Bytes budget = fresh + carry;

    // Orientation sampled mid-segment — the tracker "keeps a close track of
    // the viewport's current location" (§5.2.2).
    ViewOrientation view = viewport.at(t0 + 500);
    std::vector<bool> visible = video.grid().visible_tiles(view, params.fov);

    SchedulerContext ctx = SchedulerContext::from_budget(budget);
    ctx.degraded = degraded;
    TilePlan plan = scheduler.plan_segment(video, seg, visible, ctx);
    MFHTTP_DCHECK(plan.bytes <= budget || plan.viewport_quality < 0 ||
                  dynamic_cast<const FixedRateScheduler*>(&scheduler) != nullptr);

    if (params.degrade_after_na > 0) {
      if (plan.stalled()) {
        ok_streak = 0;
        if (!degraded && ++na_streak >= params.degrade_after_na) {
          degraded = true;
          na_streak = 0;
        }
      } else {
        na_streak = 0;
        if (degraded && ++ok_streak >= params.recover_after) {
          degraded = false;
          ok_streak = 0;
        }
      }
    }

    carry = std::min<Bytes>(std::max<Bytes>(budget - plan.bytes, 0), carry_cap);

    SegmentRecord record;
    record.segment = seg;
    record.visible_tiles = plan.visible_count;
    record.viewport_quality = plan.viewport_quality;
    record.bytes = plan.bytes;
    record.budget = budget;
    record.degraded = ctx.degraded;
    result.segments.push_back(record);
    result.total_bytes += plan.bytes;
    result.plans.push_back(std::move(plan));
  }
  return result;
}

std::vector<TimeMs> replay_session_over_http(const VideoAsset& video,
                                             const StreamingSessionResult& session,
                                             const BandwidthTrace& bandwidth) {
  Simulator sim;
  Link::Params link_params;  // bottleneck device hop
  link_params.bandwidth = bandwidth;
  link_params.latency_ms = 5;
  link_params.sharing = Link::Sharing::kFifo;  // segments fetched in order

  Link::Params cdn_params;
  cdn_params.bandwidth = BandwidthTrace::constant(50e6);  // fast CDN hop
  cdn_params.latency_ms = 2;
  Link cdn_link(sim, cdn_params);

  MFHTTP_CHECK(session.plans.size() == session.segments.size());
  const std::string origin_url = "http://cdn.example";
  ObjectStore store;
  // Register exactly the tile segments the plans download.
  for (std::size_t si = 0; si < session.plans.size(); ++si) {
    const TilePlan& plan = session.plans[si];
    const int segment = session.segments[si].segment;
    for (int t = 0; t < video.grid().tile_count(); ++t) {
      int q = plan.tile_quality[static_cast<std::size_t>(t)];
      if (q < 0) continue;
      auto url = parse_url(video.segment_url(origin_url, t, segment, q));
      MFHTTP_CHECK(url.has_value());
      store.put(url->path, video.segment_size(t, segment, q), "video/mp4");
    }
  }
  SimHttpOrigin origin(sim, &store, &cdn_link);
  std::unique_ptr<FetchPipeline> pipeline =
      FetchPipelineBuilder(sim, &origin).client_link(link_params).build();
  MitmProxy& proxy = pipeline->proxy();

  // Fetch every chosen tile; a segment completes when its last tile lands.
  // Requests are issued in segment order and the FIFO link preserves it.
  std::vector<TimeMs> completion(session.segments.size(), -1);
  std::vector<std::size_t> remaining(session.segments.size(), 0);

  for (std::size_t si = 0; si < session.plans.size(); ++si) {
    const TilePlan& plan = session.plans[si];
    const int segment = session.segments[si].segment;
    for (int t = 0; t < video.grid().tile_count(); ++t) {
      int q = plan.tile_quality[static_cast<std::size_t>(t)];
      if (q < 0) continue;
      ++remaining[si];
      FetchCallbacks cbs;
      cbs.on_complete = [&completion, &remaining, si, &sim](const FetchResult&) {
        if (--remaining[si] == 0) completion[si] = sim.now();
      };
      proxy.fetch(HttpRequest::get(video.segment_url(origin_url, t, segment, q)),
                  std::move(cbs));
    }
  }
  sim.run();
  return completion;
}

}  // namespace mfhttp
