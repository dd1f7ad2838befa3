// Differential property test for the breakpoint knapsack (Eq. 14): over
// seeded random instances with zero and equal weights, forced value ties,
// negative values and zero capacities, the breakpoint solver must return
// exactly what the dense-table DP returns — the same chosen versions, the
// same total_value bits, the same total_weight — at units 1, 333 and 1024,
// and at unit 1 the brute-force optimum. The dense DP lives here only, as
// the oracle the production solver replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/knapsack.h"
#include "util/rng.h"

namespace mfhttp {
namespace {

// The dense Eq. 14 table: one value and one choice per capacity unit, per
// item. Skip first, then versions in order, strict > on `prev + v`.
KnapsackSolution dense_dp(const std::vector<KnapsackItem>& items, Bytes unit) {
  KnapsackSolution solution;
  solution.chosen.assign(items.size(), -1);
  if (items.empty()) return solution;
  const std::size_t n = items.size();
  auto weight_units = [&](Bytes w) -> long long { return (w + unit - 1) / unit; };
  auto capacity_units = [&](Bytes c) -> long long { return c / unit; };

  long long max_item_units = 0;
  for (const KnapsackItem& item : items) {
    long long wmax = 0;
    for (Bytes wi : item.weights) wmax = std::max(wmax, weight_units(wi));
    max_item_units += wmax;
  }
  const long long U = std::min(capacity_units(items.back().capacity), max_item_units);
  const std::size_t width = static_cast<std::size_t>(U) + 1;
  std::vector<double> prev(width, 0.0), cur(width, 0.0);
  std::vector<std::vector<int>> choice(n, std::vector<int>(width, -1));
  std::vector<long long> caps(n);
  for (std::size_t i = 0; i < n; ++i)
    caps[i] = std::min<long long>(capacity_units(items[i].capacity), U);

  for (std::size_t i = 0; i < n; ++i) {
    const long long cap_prev = i == 0 ? caps[0] : caps[i - 1];
    for (long long l = 0; l <= U; ++l) {
      double best = prev[static_cast<std::size_t>(std::min(l, cap_prev))];
      int best_j = -1;
      for (std::size_t j = 0; j < items[i].weights.size(); ++j) {
        long long w = weight_units(items[i].weights[j]);
        if (w > l) continue;
        long long rem = std::min(l - w, cap_prev);
        double v = prev[static_cast<std::size_t>(rem)] + items[i].values[j];
        if (v > best) {
          best = v;
          best_j = static_cast<int>(j);
        }
      }
      cur[static_cast<std::size_t>(l)] = best;
      choice[i][static_cast<std::size_t>(l)] = best_j;
    }
    std::swap(prev, cur);
  }

  long long l = caps[n - 1];
  for (std::size_t ii = n; ii-- > 0;) {
    const long long cap_prev = ii == 0 ? caps[0] : caps[ii - 1];
    int j = choice[ii][static_cast<std::size_t>(l)];
    solution.chosen[ii] = j;
    if (j >= 0)
      l = std::min(l - weight_units(items[ii].weights[static_cast<std::size_t>(j)]),
                   cap_prev);
    else
      l = std::min(l, cap_prev);
  }
  KnapsackSolution checked;
  EXPECT_TRUE(evaluate_selection(items, solution.chosen, &checked));
  return checked;
}

// n <= 7 items with 1-3 versions. Values come from a small grid of exact
// binary fractions (so distinct selections tie exactly) or, sometimes, from
// a continuous range; both include negatives. Weights include zeros, equal
// weights across versions and multiples of the tested units; capacities are
// nondecreasing from a possibly-zero start.
std::vector<KnapsackItem> random_instance(Rng& rng) {
  static constexpr double kGrid[] = {-0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0};
  const bool continuous = rng.chance(0.3);
  std::vector<KnapsackItem> items(static_cast<std::size_t>(rng.uniform_int(0, 7)));
  Bytes cap = rng.chance(0.3) ? 0 : rng.uniform_int(0, 3000);
  for (KnapsackItem& item : items) {
    if (!rng.chance(0.3)) cap += rng.uniform_int(0, 3000);
    item.capacity = cap;
    const int m = static_cast<int>(rng.uniform_int(1, 3));
    Bytes w = 0;
    for (int j = 0; j < m; ++j) {
      const double kind = rng.uniform(0, 1);
      if (kind < 0.15) {
        w = 0;
      } else if (kind < 0.3 && j > 0) {
        // equal to the previous version's weight
      } else if (kind < 0.5) {
        w = 333 * rng.uniform_int(0, 6) + (rng.chance(0.5) ? 0 : rng.uniform_int(-1, 1));
        w = std::max<Bytes>(w, 0);
      } else {
        w = rng.uniform_int(0, 2500);
      }
      item.weights.push_back(w);
      item.values.push_back(continuous ? rng.uniform(-0.4, 1.0)
                                       : kGrid[rng.uniform_int(0, 6)]);
    }
  }
  return items;
}

void expect_identical(const KnapsackSolution& got, const KnapsackSolution& want) {
  EXPECT_EQ(got.chosen, want.chosen);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.total_value),
            std::bit_cast<std::uint64_t>(want.total_value))
      << got.total_value << " vs " << want.total_value;
  EXPECT_EQ(got.total_weight, want.total_weight);
}

TEST(KnapsackBreakpoint, MatchesDenseDpAndBruteforceOnRandomInstances) {
  Rng rng(0xB4EA);
  std::size_t nonempty = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    const std::vector<KnapsackItem> items = random_instance(rng);
    nonempty += items.empty() ? 0 : 1;
    const KnapsackSolution bf = solve_prefix_knapsack_bruteforce(items);
    for (Bytes unit : {Bytes{1}, Bytes{333}, Bytes{1024}}) {
      SCOPED_TRACE(::testing::Message() << "iter " << iter << " unit " << unit);
      const KnapsackSolution sol = solve_prefix_knapsack(items, unit);
      expect_identical(sol, dense_dp(items, unit));
      // Coarser units only ever lose value (weights round up, capacities
      // down); unit 1 is exact.
      if (unit == 1) {
        EXPECT_NEAR(sol.total_value, bf.total_value, 1e-9);
      } else {
        EXPECT_LE(sol.total_value, bf.total_value + 1e-9);
      }
    }
  }
  EXPECT_GT(nonempty, 2500u);
}

// One scratch carried through touch-to-touch mutations: the tail item's
// value or capacity moves, a middle capacity moves, items come and go, and
// the unit changes. Every re-solve must equal a fresh dense DP.
TEST(KnapsackBreakpoint, ScratchMatchesDenseDpAcrossMutations) {
  Rng rng(0xB4EB);
  KnapsackScratch scratch;
  Bytes unit = 333;
  std::vector<KnapsackItem> items = random_instance(rng);
  for (int iter = 0; iter < 2000; ++iter) {
    SCOPED_TRACE(::testing::Message() << "iter " << iter << " unit " << unit);
    expect_identical(solve_prefix_knapsack_incremental(items, unit, &scratch),
                     dense_dp(items, unit));
    const double kind = rng.uniform(0, 1);
    if (items.empty() || kind < 0.1) {
      items = random_instance(rng);
    } else if (kind < 0.3) {  // tail value
      items.back().values.back() += rng.chance(0.5) ? 0.25 : rng.uniform(-0.3, 0.3);
    } else if (kind < 0.5) {  // tail capacity
      items.back().capacity += rng.uniform_int(0, 1500);
    } else if (kind < 0.6) {  // a middle capacity, kept nondecreasing
      const std::size_t i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(items.size()) - 1));
      const Bytes lo = i == 0 ? 0 : items[i - 1].capacity;
      items[i].capacity = std::max(lo, items[i].capacity - rng.uniform_int(0, 500));
    } else if (kind < 0.7 && items.size() < 7) {  // a new tail item
      KnapsackItem next = items.back();
      next.capacity += rng.uniform_int(0, 2000);
      items.push_back(next);
    } else if (kind < 0.8) {
      items.pop_back();
    } else if (kind < 0.9) {
      unit = rng.chance(0.5) ? 1 : (rng.chance(0.5) ? 333 : 1024);
    }  // else: unchanged — a full reuse
  }
  EXPECT_GT(scratch.full_reuses, 0u);
  EXPECT_GT(scratch.rows_reused, 0u);
  EXPECT_EQ(scratch.solves, 2000u);
}

}  // namespace
}  // namespace mfhttp
