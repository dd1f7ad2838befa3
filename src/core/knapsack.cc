#include "core/knapsack.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "obs/metrics.h"
#include "util/check.h"

namespace mfhttp {

namespace {

void validate_instance(const std::vector<KnapsackItem>& items) {
  Bytes prev_cap = 0;
  for (const KnapsackItem& item : items) {
    MFHTTP_CHECK_MSG(!item.values.empty(), "item must have at least one version");
    MFHTTP_CHECK(item.values.size() == item.weights.size());
    for (Bytes w : item.weights) MFHTTP_CHECK_MSG(w >= 0, "negative weight");
    MFHTTP_CHECK_MSG(item.capacity >= prev_cap,
                     "capacities must be nondecreasing (sort by entry time)");
    prev_cap = item.capacity;
  }
}

// The row's value and choice at capacity `l`: its last breakpoint at or
// below l. Every row starts at l = 0, so one always exists.
const KnapsackBreakpoint& point_at(const std::vector<KnapsackBreakpoint>& points,
                                   std::size_t begin, std::size_t end,
                                   long long l) {
  auto it = std::upper_bound(
      points.begin() + static_cast<std::ptrdiff_t>(begin),
      points.begin() + static_cast<std::ptrdiff_t>(end), l,
      [](long long x, const KnapsackBreakpoint& p) { return x < p.l; });
  return *(it - 1);
}

}  // namespace

bool evaluate_selection(const std::vector<KnapsackItem>& items,
                        const std::vector<int>& chosen, KnapsackSolution* out) {
  MFHTTP_CHECK(chosen.size() == items.size());
  double value = 0;
  Bytes prefix_weight = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    int j = chosen[i];
    if (j >= 0) {
      MFHTTP_CHECK(static_cast<std::size_t>(j) < items[i].values.size());
      prefix_weight += items[i].weights[static_cast<std::size_t>(j)];
      value += items[i].values[static_cast<std::size_t>(j)];
    }
    if (prefix_weight > items[i].capacity) return false;  // Eq. 13 violated
  }
  if (out) {
    out->chosen = chosen;
    out->total_value = value;
    out->total_weight = prefix_weight;
  }
  return true;
}

KnapsackSolution solve_prefix_knapsack(const std::vector<KnapsackItem>& items,
                                       Bytes capacity_unit_bytes) {
  KnapsackScratch scratch;
  return solve_prefix_knapsack_incremental(items, capacity_unit_bytes, &scratch);
}

KnapsackSolution solve_prefix_knapsack_incremental(
    const std::vector<KnapsackItem>& items, Bytes capacity_unit_bytes,
    KnapsackScratch* scratch) {
  static obs::Counter& breakpoints_total =
      obs::metrics().counter("core.flow.breakpoints_total");
  MFHTTP_CHECK(scratch != nullptr);
  validate_instance(items);
  MFHTTP_CHECK(capacity_unit_bytes > 0);
  ++scratch->solves;

  const std::size_t n = items.size();
  const Bytes unit = capacity_unit_bytes;
  // Conservative discretization: weights round up, capacities round down.
  auto weight_units = [&](Bytes w) -> long long { return (w + unit - 1) / unit; };
  auto capacity_units = [&](Bytes c) -> long long { return c / unit; };

  // The capacity axis never needs to exceed the total weight of one version
  // per item (the c_M insight of §3.4.1), nor the last capacity.
  long long max_item_units = 0;
  for (const KnapsackItem& item : items) {
    long long wmax = 0;
    for (Bytes wi : item.weights) wmax = std::max(wmax, weight_units(wi));
    max_item_units += wmax;
  }
  const long long U =
      n == 0 ? 0 : std::min(capacity_units(items.back().capacity), max_item_units);
  MFHTTP_CHECK(U >= 0);

  // Longest prefix of items unchanged since the last solve. Row i of the
  // stored table depends only on items[0..i), their capacities, and the
  // capacity axis, so with an identical unit and axis the first k rows are
  // still exact. caps[i] is a pure function of items[i].capacity and U, so
  // item equality covers capacity equality.
  std::size_t k = 0;
  if (scratch->valid && scratch->unit == unit && scratch->units == U) {
    const std::size_t limit = std::min(n, scratch->items.size());
    while (k < limit && items[k].capacity == scratch->items[k].capacity &&
           items[k].weights == scratch->items[k].weights &&
           items[k].values == scratch->items[k].values)
      ++k;
    if (k == n && scratch->items.size() == n) {
      // Touch event re-solved an unchanged instance: the §3.4.2 fast path.
      ++scratch->full_reuses;
      scratch->rows_reused += n;
      return scratch->solution;
    }
  }

  scratch->unit = unit;
  scratch->units = U;
  std::vector<long long>& caps = scratch->caps;
  caps.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    caps[i] = std::min<long long>(capacity_units(items[i].capacity), U);

  // Keep rows 0..k; the buffers only ever grow, so steady-state re-solves
  // are malloc-free.
  std::vector<KnapsackBreakpoint>& points = scratch->points;
  std::vector<std::size_t>& row_begin = scratch->row_begin;
  if (k == 0) {
    points.assign(1, KnapsackBreakpoint{});  // row 0: value 0 everywhere
    row_begin.assign({0, 1});
  }
  points.resize(row_begin[k + 1]);
  row_begin.resize(n + 2);
  scratch->rows_reused += k;
  scratch->rows_computed += n - k;

  std::vector<long long>& candidates = scratch->candidates;
  for (std::size_t i = k; i < n; ++i) {
    const KnapsackItem& item = items[i];
    const std::size_t prev_begin = row_begin[i], prev_end = row_begin[i + 1];
    // Budget available to the first i items (clamp of Eq. 14).
    const long long cap_prev = i == 0 ? caps[0] : caps[i - 1];
    // Row i+1 at l reads row i at min(l, cap_prev) and at min(l - w_j,
    // cap_prev) for each version j with w_j <= l. Those inputs change only
    // where l, or some l - w_j, crosses a breakpoint of row i at or below
    // cap_prev, so row i+1 is constant between these candidates.
    candidates.clear();
    for (std::size_t p = prev_begin; p < prev_end && points[p].l <= cap_prev; ++p) {
      candidates.push_back(points[p].l);
      for (Bytes w : item.weights) {
        const long long l = points[p].l + weight_units(w);
        if (l <= U) candidates.push_back(l);
      }
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());

    // The dense recurrence, verbatim, at each candidate: skip first, then
    // versions in order, strict > — the same additions, the same ties.
    const std::size_t row_start = points.size();
    for (long long l : candidates) {
      double best = point_at(points, prev_begin, prev_end, std::min(l, cap_prev)).value;
      int best_j = -1;
      for (std::size_t j = 0; j < item.weights.size(); ++j) {
        long long w = weight_units(item.weights[j]);
        if (w > l) continue;
        long long rem = std::min(l - w, cap_prev);
        double v = point_at(points, prev_begin, prev_end, rem).value + item.values[j];
        if (v > best) {
          best = v;
          best_j = static_cast<int>(j);
        }
      }
      // Store only where the step changes, comparing bits (+0.0 vs -0.0).
      if (points.size() > row_start && points.back().choice == best_j &&
          std::bit_cast<std::uint64_t>(points.back().value) ==
              std::bit_cast<std::uint64_t>(best))
        continue;
      points.push_back({l, best, best_j});
    }
    row_begin[i + 2] = points.size();
    breakpoints_total.inc(points.size() - row_start);
  }

  // Backtrack from the full final budget.
  KnapsackSolution solution;
  solution.chosen.assign(n, -1);
  long long l = n == 0 ? 0 : caps[n - 1];
  for (std::size_t ii = n; ii-- > 0;) {
    const long long cap_prev = ii == 0 ? caps[0] : caps[ii - 1];
    int j = point_at(points, row_begin[ii + 1], row_begin[ii + 2], l).choice;
    solution.chosen[ii] = j;
    if (j >= 0) {
      long long w = weight_units(items[ii].weights[static_cast<std::size_t>(j)]);
      l = std::min(l - w, cap_prev);
    } else {
      l = std::min(l, cap_prev);
    }
    MFHTTP_DCHECK(l >= 0);
  }

  KnapsackSolution checked;
  bool feasible = evaluate_selection(items, solution.chosen, &checked);
  MFHTTP_CHECK_MSG(feasible, "DP produced infeasible selection");
  scratch->items = items;  // assignment reuses the snapshot's capacity
  scratch->solution = checked;
  scratch->valid = true;
  return scratch->solution;
}

KnapsackSolution solve_prefix_knapsack_bruteforce(
    const std::vector<KnapsackItem>& items) {
  validate_instance(items);
  const std::size_t n = items.size();
  KnapsackSolution best;
  best.chosen.assign(n, -1);
  if (n == 0) return best;

  // Guard against exponential blowup in production use.
  double combos = 1;
  for (const KnapsackItem& item : items) combos *= static_cast<double>(item.values.size() + 1);
  MFHTTP_CHECK_MSG(combos <= 5e7, "bruteforce instance too large");

  std::vector<int> assign(n, -1);
  double best_value = 0;  // empty selection is always feasible with value 0

  // Iterative odometer over {-1, 0, .., m_i-1}^n.
  while (true) {
    KnapsackSolution sol;
    if (evaluate_selection(items, assign, &sol) && sol.total_value > best_value) {
      best_value = sol.total_value;
      best = sol;
    }
    std::size_t pos = 0;
    while (pos < n) {
      if (assign[pos] + 1 < static_cast<int>(items[pos].values.size())) {
        ++assign[pos];
        break;
      }
      assign[pos] = -1;
      ++pos;
    }
    if (pos == n) break;
  }
  if (best.chosen.empty()) best.chosen.assign(n, -1);
  return best;
}

namespace {

// DFS state for the branch-and-bound search.
struct BnbSearch {
  const std::vector<KnapsackItem>& items;
  const std::vector<double>& suffix_best;  // optimistic value of items[i..)
  std::size_t max_nodes;
  std::size_t nodes = 0;
  bool aborted = false;
  double best_value = 0;
  std::vector<int> best_assign;
  std::vector<int> current;

  void dfs(std::size_t i, Bytes weight, double value) {
    if (aborted) return;
    if (++nodes > max_nodes) {
      aborted = true;
      return;
    }
    if (i == items.size()) {
      if (value > best_value) {
        best_value = value;
        best_assign = current;
      }
      return;
    }
    // Optimistic bound: everything remaining at its best positive value.
    if (value + suffix_best[i] <= best_value + 1e-12) return;

    // Explore versions in descending value (good incumbents early), then
    // the skip branch.
    const KnapsackItem& item = items[i];
    std::vector<std::size_t> order(item.values.size());
    for (std::size_t j = 0; j < order.size(); ++j) order[j] = j;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return item.values[a] > item.values[b];
    });
    for (std::size_t j : order) {
      if (item.values[j] <= 0) break;  // sorted: the rest never helps
      Bytes w2 = weight + item.weights[j];
      if (w2 > item.capacity) continue;  // Eq. 13 prefix constraint
      current[i] = static_cast<int>(j);
      dfs(i + 1, w2, value + item.values[j]);
      current[i] = -1;
    }
    dfs(i + 1, weight, value);
  }
};

}  // namespace

BranchAndBoundResult solve_prefix_knapsack_bnb(
    const std::vector<KnapsackItem>& items, std::size_t max_nodes) {
  validate_instance(items);
  MFHTTP_CHECK(max_nodes > 0);
  const std::size_t n = items.size();

  std::vector<double> suffix_best(n + 1, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    double best = 0;
    for (double v : items[i].values) best = std::max(best, v);
    suffix_best[i] = suffix_best[i + 1] + best;
  }

  BnbSearch search{items, suffix_best, max_nodes, 0, false, 0.0, {}, {}};
  search.best_assign.assign(n, -1);
  search.current.assign(n, -1);
  search.dfs(0, 0, 0.0);

  BranchAndBoundResult out;
  out.nodes_visited = search.nodes;
  out.exact = !search.aborted;
  bool feasible = evaluate_selection(items, search.best_assign, &out.solution);
  MFHTTP_CHECK_MSG(feasible, "B&B produced infeasible selection");
  return out;
}

KnapsackSolution solve_prefix_knapsack_greedy(const std::vector<KnapsackItem>& items) {
  validate_instance(items);
  struct Candidate {
    std::size_t i;
    std::size_t j;
    double density;
  };
  std::vector<Candidate> candidates;
  for (std::size_t i = 0; i < items.size(); ++i) {
    for (std::size_t j = 0; j < items[i].values.size(); ++j) {
      if (items[i].values[j] <= 0) continue;
      double w = static_cast<double>(std::max<Bytes>(items[i].weights[j], 1));
      candidates.push_back({i, j, items[i].values[j] / w});
    }
  }
  std::sort(candidates.begin(), candidates.end(), [](const auto& a, const auto& b) {
    return a.density > b.density;
  });

  std::vector<int> chosen(items.size(), -1);
  for (const Candidate& c : candidates) {
    if (chosen[c.i] != -1) continue;
    chosen[c.i] = static_cast<int>(c.j);
    if (!evaluate_selection(items, chosen, nullptr)) chosen[c.i] = -1;
  }
  KnapsackSolution sol;
  bool ok = evaluate_selection(items, chosen, &sol);
  MFHTTP_CHECK(ok);
  return sol;
}

}  // namespace mfhttp
