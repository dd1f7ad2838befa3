// Link decorator executing a FaultPlan against every transfer.
//
// Construction shapes the link's bandwidth trace with the plan's outage and
// collapse windows; submit() then overlays the per-transfer faults:
//   * latency spikes   — the real submission is delayed by the spike penalty
//                        active at submit time,
//   * stalls           — delivery pauses mid-flight for stall_ms (a TCP
//                        timeout + slow-start reset: the remainder re-enters
//                        the link as a fresh transfer),
//   * truncations      — the transfer completes early with only a prefix
//                        delivered (the peer closed the connection).
//
// Callers interact with the decorator exactly as with a Link; transfer ids
// are the decorator's own, and cancel() tears down whichever stage (delay
// timer, live transfer, stall gap) the faulted transfer is in. All fault
// draws come from one Rng seeded by the plan and consumed in submit/progress
// order, so a given plan + workload yields one exact failure trace.
#pragma once

#include <map>
#include <memory>

#include "fault/fault_plan.h"
#include "net/link.h"
#include "util/rng.h"

namespace mfhttp::fault {

class FaultyLink : public Link {
 public:
  FaultyLink(Simulator& sim, Link::Params params, const FaultPlan& plan);
  ~FaultyLink() override;

  TransferId submit(Bytes size, ProgressFn on_progress, int priority = 0) override;
  bool cancel(TransferId id) override;

  const FaultPlan& plan() const { return plan_; }

 private:
  // One decorated transfer. At any instant at most one of `pending` (delay
  // or stall-gap timer) and `inner` (live base transfer) is armed.
  struct Shadow {
    Bytes size = 0;
    Bytes delivered = 0;
    int priority = 0;
    ProgressFn on_progress;
    Link::TransferId inner = Link::kInvalidTransfer;
    Simulator::EventId pending = Simulator::kInvalidEvent;
    Bytes truncate_at = 0;  // 0 = no truncation armed
    Bytes stall_at = 0;     // 0 = no stall armed (or already spent)
  };

  void start_inner(TransferId id, Bytes bytes);
  void on_inner_progress(TransferId id, Bytes chunk, bool complete);

  // Shadow ids live above every base Link id (a Slab id stays below 2^62)
  // so pass-through transfers (tiny bodies, fault-free plans) can share
  // cancel() safely.
  static constexpr TransferId kShadowIdBase = TransferId{1} << 62;

  Simulator& fault_sim_;
  FaultPlan plan_;
  Rng rng_;
  bool transfer_faults_active_ = false;
  TransferId next_shadow_id_ = kShadowIdBase;
  std::map<TransferId, Shadow> shadows_;
};

}  // namespace mfhttp::fault
