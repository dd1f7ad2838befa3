// The flow controller's optimizer (§3.4.2): a 0/1 knapsack variant where
// items arrive in viewport-entry order and the capacity available to the
// first i' items is the bandwidth accumulated by the time object i' enters
// the viewport (Eq. 13). Solved by dynamic programming with the
// stage-clamped recurrence of Eq. 14.
//
// Solvers sharing one instance format:
//   * solve_prefix_knapsack             — the paper's DP (capacity discretized)
//   * solve_prefix_knapsack_incremental — same DP with a persistent scratch
//                                         table reused across re-solves
//   * solve_prefix_knapsack_bruteforce  — exact reference for testing (small n)
//   * solve_prefix_knapsack_greedy      — value-density heuristic (ablation)
#pragma once

#include <cstdint>
#include <vector>

#include "util/types.h"

namespace mfhttp {

// One media object with m candidate versions.
struct KnapsackItem {
  std::vector<double> values;   // v(i,j) = p*Q_{i,j} - q*C_{i,j}
  std::vector<Bytes> weights;   // w(i,j) = f_{i,j}
  // W(t_i): cumulative bandwidth when this object enters the viewport.
  // Items must be ordered so capacities are nondecreasing.
  Bytes capacity = 0;
};

struct KnapsackSolution {
  // chosen[i]: selected version index, or -1 to skip object i.
  std::vector<int> chosen;
  double total_value = 0;
  Bytes total_weight = 0;
};

// Validate and evaluate a selection against an instance; returns false if
// any prefix-capacity constraint is violated (solution fields untouched).
bool evaluate_selection(const std::vector<KnapsackItem>& items,
                        const std::vector<int>& chosen, KnapsackSolution* out);

// DP of Eq. 14. `capacity_unit_bytes` discretizes capacity: weights round up,
// capacities round down (conservative — never produces an infeasible plan).
// Rows are stored as breakpoints (below), so the cost follows their count,
// not W/unit; the solution is the dense table's, bit for bit.
KnapsackSolution solve_prefix_knapsack(const std::vector<KnapsackItem>& items,
                                       Bytes capacity_unit_bytes = 1024);

// Where a DP row changes: from capacity unit `l` up to the row's next
// breakpoint, the row holds `value` and the version it chose (-1: skip).
struct KnapsackBreakpoint {
  long long l = 0;
  double value = 0;
  int choice = -1;
};

// Persistent DP state for solve_prefix_knapsack_incremental. One scratch
// belongs to one solver call site (e.g. one FlowController) — it is NOT
// thread-safe; the parallel session engine gives every worker world its own
// controller and therefore its own scratch (DESIGN.md §12).
struct KnapsackScratch {
  // Snapshot of the last instance, for prefix comparison.
  std::vector<KnapsackItem> items;
  Bytes unit = 0;
  long long units = 0;  // U: the capacity axis is [0, U] units

  // Every row of the Eq. 14 table, as breakpoints: row i (the table after
  // the first i items; row 0 is all zero) is points[row_begin[i],
  // row_begin[i + 1]) and always starts at l = 0. Kept whole so an unchanged
  // item prefix re-solves from its first changed row.
  std::vector<long long> caps;
  std::vector<KnapsackBreakpoint> points;
  std::vector<std::size_t> row_begin;
  std::vector<long long> candidates;  // one row's candidate l values

  KnapsackSolution solution;
  bool valid = false;

  // Telemetry (micro-bench + test hooks).
  std::uint64_t solves = 0;
  std::uint64_t full_reuses = 0;   // instance unchanged: cached answer
  std::uint64_t rows_reused = 0;   // DP rows skipped via prefix reuse
  std::uint64_t rows_computed = 0;
};

// The paper re-runs the optimizer "whenever a user touch event is detected"
// (§3.4.2); successive touches usually re-solve the same objects with, at
// most, a changed capacity tail. This entry point produces bit-identical
// results to solve_prefix_knapsack(items, unit) but:
//   * returns the cached solution outright when the whole instance (items,
//     capacities, unit) is unchanged since the previous call;
//   * otherwise recomputes only from the first changed item onward, reusing
//     the DP rows of the unchanged prefix;
//   * reuses the scratch allocations, so steady-state re-solves are
//     malloc-free.
KnapsackSolution solve_prefix_knapsack_incremental(
    const std::vector<KnapsackItem>& items, Bytes capacity_unit_bytes,
    KnapsackScratch* scratch);

// Exhaustive search over all (m+1)^n assignments. Testing/reference only.
KnapsackSolution solve_prefix_knapsack_bruteforce(
    const std::vector<KnapsackItem>& items);

// Density-ordered greedy heuristic (take best value/weight first while all
// prefix constraints hold). Used by the ablation benchmarks.
KnapsackSolution solve_prefix_knapsack_greedy(const std::vector<KnapsackItem>& items);

// Exact branch-and-bound solver working directly in bytes (no capacity
// discretization), pruning with the fractional-relaxation upper bound.
// `max_nodes` bounds the search; on overrun the best solution found so far
// is returned with `exact` false.
struct BranchAndBoundResult {
  KnapsackSolution solution;
  bool exact = true;          // search completed (result provably optimal)
  std::size_t nodes_visited = 0;
};
BranchAndBoundResult solve_prefix_knapsack_bnb(
    const std::vector<KnapsackItem>& items, std::size_t max_nodes = 2'000'000);

}  // namespace mfhttp
