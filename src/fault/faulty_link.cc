#include "fault/faulty_link.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/logging.h"

namespace mfhttp::fault {

namespace {

Link::Params shaped_params(Link::Params params, const FaultPlan& plan) {
  params.bandwidth = plan.shape(params.bandwidth);
  return params;
}

// Clamp a fault point to a deliverable prefix: at least one byte delivered,
// at least one byte left to matter.
Bytes fault_point(Bytes size, double fraction) {
  return std::clamp<Bytes>(static_cast<Bytes>(static_cast<double>(size) * fraction),
                           1, size - 1);
}

}  // namespace

FaultyLink::FaultyLink(Simulator& sim, Link::Params params, const FaultPlan& plan)
    : Link(sim, shaped_params(std::move(params), plan)),
      fault_sim_(sim),
      plan_(plan),
      rng_(plan.seed) {
  for (const LinkFaultWindow& w : plan_.link)
    if (w.kind == LinkFaultWindow::Kind::kLatencySpike)
      transfer_faults_active_ = true;
  transfer_faults_active_ = transfer_faults_active_ || plan_.transfer.any();
}

FaultyLink::~FaultyLink() {
  for (auto& [id, sh] : shadows_) {
    if (sh.pending != Simulator::kInvalidEvent) fault_sim_.cancel(sh.pending);
    // Live inner transfers die with the base Link.
  }
}

Link::TransferId FaultyLink::submit(Bytes size, ProgressFn on_progress,
                                    int priority) {
  MFHTTP_CHECK(on_progress != nullptr);
  // Faultable transfers need a proper body; tiny ones — and every transfer
  // when the plan has no per-transfer faults — pass straight through (the
  // shaped bandwidth trace still applies).
  if (size < 2 || !transfer_faults_active_)
    return Link::submit(size, std::move(on_progress), priority);

  const TransferId id = next_shadow_id_++;
  Shadow& sh = shadows_[id];
  sh.size = size;
  sh.priority = priority;
  sh.on_progress = std::move(on_progress);

  // Seeded draws, strictly in submission order.
  const bool truncate =
      plan_.transfer.truncate_rate > 0 && rng_.chance(plan_.transfer.truncate_rate);
  const bool stall =
      plan_.transfer.stall_rate > 0 && rng_.chance(plan_.transfer.stall_rate);
  if (truncate) {
    sh.truncate_at = fault_point(size, plan_.transfer.truncate_fraction);
    static obs::Counter& truncations =
        obs::metrics().counter("fault.link.truncations_total");
    truncations.inc();
  } else if (stall && plan_.transfer.stall_ms > 0) {
    sh.stall_at = fault_point(size, plan_.transfer.stall_fraction);
    static obs::Counter& stalls = obs::metrics().counter("fault.link.stalls_total");
    stalls.inc();
  }

  const TimeMs extra = plan_.extra_latency_at(fault_sim_.now());
  if (extra > 0) {
    static obs::Counter& delayed =
        obs::metrics().counter("fault.link.delayed_starts_total");
    delayed.inc();
    sh.pending = fault_sim_.schedule_after(extra, [this, id] {
      auto it = shadows_.find(id);
      if (it == shadows_.end()) return;  // cancelled during the spike
      it->second.pending = Simulator::kInvalidEvent;
      start_inner(id, it->second.size);
    });
  } else {
    start_inner(id, size);
  }
  return id;
}

void FaultyLink::start_inner(TransferId id, Bytes bytes) {
  auto it = shadows_.find(id);
  MFHTTP_CHECK(it != shadows_.end());
  it->second.inner = Link::submit(
      bytes, [this, id](Bytes chunk, bool complete) { on_inner_progress(id, chunk, complete); },
      it->second.priority);
}

void FaultyLink::on_inner_progress(TransferId id, Bytes chunk, bool complete) {
  auto it = shadows_.find(id);
  if (it == shadows_.end()) return;  // cancelled from a sibling callback
  Shadow& sh = it->second;
  sh.delivered += chunk;

  // Truncation: the connection dies after this chunk — the transfer reports
  // completion with only the prefix delivered.
  if (sh.truncate_at > 0 && sh.delivered >= sh.truncate_at && !complete) {
    Link::cancel(sh.inner);
    ProgressFn cb = std::move(sh.on_progress);
    shadows_.erase(it);
    cb(chunk, true);
    return;
  }

  // Stall: pause mid-flight, then resubmit the remainder (slow-start reset —
  // the remainder re-queues behind whatever else is on the link).
  if (sh.stall_at > 0 && sh.delivered >= sh.stall_at && !complete) {
    sh.stall_at = 0;  // one stall per transfer
    Link::cancel(sh.inner);
    sh.inner = Link::kInvalidTransfer;
    const Bytes remaining = sh.size - sh.delivered;
    sh.pending = fault_sim_.schedule_after(plan_.transfer.stall_ms, [this, id,
                                                                     remaining] {
      auto sit = shadows_.find(id);
      if (sit == shadows_.end()) return;  // cancelled during the gap
      sit->second.pending = Simulator::kInvalidEvent;
      start_inner(id, remaining);
    });
  } else if (complete) {
    ProgressFn cb = std::move(sh.on_progress);
    shadows_.erase(it);
    cb(chunk, true);
    return;
  }

  // Called from a local so a callback cancelling this transfer cannot
  // destroy the running callable; it goes back only if the transfer survived.
  ProgressFn cb = std::move(sh.on_progress);
  cb(chunk, false);
  if (auto back = shadows_.find(id); back != shadows_.end())
    back->second.on_progress = std::move(cb);
}

bool FaultyLink::cancel(TransferId id) {
  auto it = shadows_.find(id);
  if (it == shadows_.end()) {
    // Pass-through transfers (empty plan / tiny sizes) live in the base map.
    return Link::cancel(id);
  }
  Shadow& sh = it->second;
  if (sh.pending != Simulator::kInvalidEvent) fault_sim_.cancel(sh.pending);
  if (sh.inner != Link::kInvalidTransfer) Link::cancel(sh.inner);
  shadows_.erase(it);
  return true;
}

}  // namespace mfhttp::fault
