// Flow controller (§3.4): evaluates Q_{i,j} and C_{i,j} for every media
// object involved in a scroll and solves the download-policy optimization
// (Eq. 11 s.t. Eq. 12, 13) via the prefix-capacity knapsack.
#pragma once

#include <vector>

#include "core/knapsack.h"
#include "core/media_object.h"
#include "core/qoe.h"
#include "core/scroll_tracker.h"
#include "net/bandwidth_trace.h"

namespace mfhttp {

struct FlowWeights {
  double p = 1.0;  // QoE weight
  double q = 1.0;  // cost weight (the paper sets q = 0 for web browsing)
};

struct DownloadDecision {
  std::size_t object_index = 0;
  int version = -1;          // chosen version index, or -1 to skip
  double entry_time_ms = -1; // t_i
  double qoe = 0;            // Q_{i,version} (0 when skipped)
  double cost = 0;           // C_{i,version} (0 when skipped)
  double value = 0;          // p*qoe - q*cost

  bool download() const { return version >= 0; }
};

struct DownloadPolicy {
  // One decision per *involved* object, ordered by entry time.
  std::vector<DownloadDecision> decisions;
  double objective = 0;    // Eq. 11 value of the selection
  Bytes total_bytes = 0;   // bytes the policy downloads

  // Decision for a given object index, or nullptr if not involved.
  const DownloadDecision* find(std::size_t object_index) const;
};

// An object the policy wants that is not on screen yet — the raw material
// for the prefetch planner (prefetch/planner.h): warm the middleware cache
// before the predicted viewport-entry time so the eventual request streams
// from the proxy with no upstream hop.
struct PrefetchCandidate {
  std::size_t object_index = 0;
  int version = 0;            // version the policy chose
  std::string url;            // URL of that version
  Bytes bytes = 0;            // its wire size
  double entry_time_ms = 0;   // predicted viewport entry, relative to scroll start
  double value = 0;           // the decision's p*qoe - q*cost
};

class FlowController {
 public:
  struct Params {
    FlowWeights weights;
    QoEParams qoe;
    CostFunction cost = linear_cost();
    // Capacity discretization of the DP (bytes per unit).
    Bytes capacity_unit_bytes = 1024;
    // Optimizer backend: the paper's DP (default), the exact-in-bytes
    // branch-and-bound, or the greedy value-density heuristic (ablations).
    enum class Solver { kDp, kBranchAndBound, kGreedy };
    Solver solver = Solver::kDp;
    // Drop Eq. 13 entirely — §5.1.2: "As bandwidth is rarely the bottleneck
    // for web browsing, we release the bandwidth constraint".
    bool ignore_bandwidth_constraint = false;
  };

  explicit FlowController(Params params);

  const Params& params() const { return params_; }

  // Room in the replan build buffers for a plan over all of `objects`, so
  // replan() on that content grows none of them.
  void reserve(const std::vector<MediaObject>& objects);

  // Graceful degradation (DESIGN.md §9): while degraded, optimize() skips
  // the solver and conservatively picks the lowest version of every
  // involved object — cheap, always-delivered, never optimal.
  void set_degraded(bool degraded) { degraded_ = degraded; }
  bool degraded() const { return degraded_; }

  // Brownout hook (overload/brownout.h): with speculation off, optimize()
  // only considers objects the scroll actually lands on (initial or final
  // viewport) — transient corridor-only objects are dropped from the
  // knapsack before it is built, so no speculative byte is ever planned.
  void set_speculation_enabled(bool enabled) { speculation_enabled_ = enabled; }
  bool speculation_enabled() const { return speculation_enabled_; }

  // Compute the optimal download policy for one analyzed scroll.
  DownloadPolicy optimize(const ScrollAnalysis& analysis,
                          const std::vector<MediaObject>& objects,
                          const BandwidthTrace& bandwidth) const;

  // Stateful per-touch fast path (§3.4.2: the optimizer re-runs "whenever a
  // user touch event is detected"). Bit-identical results to optimize(), but
  // the knapsack DP table, the instance snapshot, and the item build buffers
  // persist across calls: an unchanged instance returns the cached solution
  // without touching the DP, an unchanged item prefix re-solves only the
  // changed suffix, and steady-state re-solves are malloc-free. One
  // FlowController (and thus one scratch) belongs to one session world — the
  // parallel runner never shares controllers across workers (DESIGN.md §12).
  DownloadPolicy replan(const ScrollAnalysis& analysis,
                        const std::vector<MediaObject>& objects,
                        const BandwidthTrace& bandwidth);

  // Re-solve telemetry for benches and tests (counts full/prefix DP reuse).
  const KnapsackScratch& replan_scratch() const { return scratch_; }

  // Objects a computed policy wants that are not already visible — ordered
  // by entry time, each carrying the decision's value so the prefetch
  // planner can budget in the same QoE-minus-cost currency the knapsack
  // optimized. Empty while degraded or with speculation disabled: prefetch
  // is speculation by definition.
  std::vector<PrefetchCandidate> prefetch_candidates(
      const ScrollAnalysis& analysis, const std::vector<MediaObject>& objects,
      const DownloadPolicy& policy) const;

 private:
  // Reusable buffers for the knapsack instance build (replan path).
  struct BuildBuffers {
    std::vector<std::size_t> involved;            // object indices, entry order
    std::vector<const ObjectCoverage*> coverage;  // their listed coverages
    std::vector<KnapsackItem> items;
    std::vector<double> qoe;   // per (item, version), row-major
    std::vector<double> cost;
  };

  DownloadPolicy plan(const ScrollAnalysis& analysis,
                      const std::vector<MediaObject>& objects,
                      const BandwidthTrace& bandwidth, KnapsackScratch* scratch,
                      BuildBuffers& buffers) const;

  Params params_;
  bool degraded_ = false;
  bool speculation_enabled_ = true;
  KnapsackScratch scratch_;
  BuildBuffers buffers_;
};

}  // namespace mfhttp
