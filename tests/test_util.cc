// Unit tests for util: rng, stats, strings, slab.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/slab.h"
#include "util/stats.h"
#include "util/strings.h"

namespace mfhttp {
namespace {

// ---------- Rng ----------

TEST(Rng, SameSeedSameSequence) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform_int(0, 1'000'000) == b.uniform_int(0, 1'000'000)) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformRespectRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.uniform(-2.5, 9.5);
    EXPECT_GE(v, -2.5);
    EXPECT_LT(v, 9.5);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(0, 5));
  EXPECT_EQ(seen.size(), 6u);  // all of 0..5 hit
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 5);
}

TEST(Rng, TruncatedNormalStaysInBounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.truncated_normal(5.0, 10.0, 0.0, 6.0);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 6.0);
  }
}

TEST(Rng, TruncatedNormalDegenerateRangeClamps) {
  Rng rng(11);
  // Mean far outside a tiny range: resampling fails, clamp should kick in.
  double v = rng.truncated_normal(100.0, 0.001, 0.0, 1.0);
  EXPECT_GE(v, 0.0);
  EXPECT_LE(v, 1.0);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, WeightedIndexZeroWeightNeverPicked) {
  Rng rng(5);
  std::vector<double> w = {0.0, 1.0, 0.0, 2.0};
  for (int i = 0; i < 500; ++i) {
    std::size_t idx = rng.weighted_index(w);
    EXPECT_TRUE(idx == 1 || idx == 3);
  }
}

TEST(Rng, WeightedIndexProportions) {
  Rng rng(5);
  std::vector<double> w = {1.0, 3.0};
  int count1 = 0;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i)
    if (rng.weighted_index(w) == 1) ++count1;
  EXPECT_NEAR(static_cast<double>(count1) / kDraws, 0.75, 0.03);
}

TEST(Rng, ForkIndependentButDeterministic) {
  Rng a(42), b(42);
  Rng fa = a.fork(), fb = b.fork();
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(fa.uniform_int(0, 1 << 30), fb.uniform_int(0, 1 << 30));
}

TEST(Rng, ExponentialMean) {
  Rng rng(9);
  double sum = 0;
  const int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / kDraws, 4.0, 0.15);
}

TEST(Rng, NormalWithZeroStddevIsTheMean) {
  Rng rng(13);
  for (double mean : {0.0, 1.0, -3.5, 1e6})
    EXPECT_EQ(rng.normal(mean, 0.0), mean);
}

TEST(Rng, NormalMatchesStdNormalDistributionBitForBit) {
  Rng rng(17);
  std::mt19937_64 reference(17);
  Rng params(19);
  for (int i = 0; i < 2000; ++i) {
    const double mean = params.uniform(-1e3, 1e3);
    const double stddev = params.uniform(1e-3, 1e3);
    const double want = std::normal_distribution<double>(mean, stddev)(reference);
    EXPECT_EQ(rng.normal(mean, stddev), want) << "draw " << i;
    // Same engine bits consumed: the next word agrees.
    LazyMt19937_64 next = rng.engine();
    std::mt19937_64 next_reference = reference;
    EXPECT_EQ(next(), next_reference()) << "draw " << i;
  }
}

// ---------- LazyMt19937_64 ----------

// 700 draws cross draw 156 (the last seeding step), 312 (the end of the lazy
// first block) and 624 (the end of the first full-block twist).
constexpr int kCrossesThreeBlocks = 700;

TEST(LazyMt19937_64, MatchesStdEngineAcrossSeeds) {
  std::vector<std::uint64_t> seeds = {0, 1, 42, ~std::uint64_t{0}};
  for (std::uint64_t i = 0; i < 1000; ++i) seeds.push_back(splitmix64(i));
  for (std::uint64_t seed : seeds) {
    LazyMt19937_64 lazy(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < kCrossesThreeBlocks; ++i)
      ASSERT_EQ(lazy(), reference()) << "seed " << seed << " draw " << i;
  }
}

TEST(LazyMt19937_64, EveryPrefixLengthContinuesTheStdSequence) {
  for (int prefix = 0; prefix <= kCrossesThreeBlocks; ++prefix) {
    LazyMt19937_64 lazy(2024);
    std::mt19937_64 reference(2024);
    for (int i = 0; i < prefix; ++i) lazy();
    reference.discard(prefix);
    for (int i = 0; i < 16; ++i)
      ASSERT_EQ(lazy(), reference()) << "prefix " << prefix << " draw " << i;
  }
}

TEST(LazyMt19937_64, CopyPartwayThroughTheFirstBlockContinuesIdentically) {
  for (int prefix : {0, 1, 100, 155, 156, 157, 311}) {
    LazyMt19937_64 original(7);
    for (int i = 0; i < prefix; ++i) original();
    LazyMt19937_64 copy = original;
    std::mt19937_64 reference(7);
    reference.discard(prefix);
    for (int i = prefix; i < kCrossesThreeBlocks; ++i) {
      const std::uint64_t want = reference();
      ASSERT_EQ(copy(), want) << "prefix " << prefix << " draw " << i;
      ASSERT_EQ(original(), want) << "prefix " << prefix << " draw " << i;
    }
  }
}

// ---------- RunningStats ----------

TEST(RunningStats, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 4.0, 1e-12);  // classic population-variance example
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, NegativeValues) {
  RunningStats s;
  s.add(-10);
  s.add(10);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), -10.0);
  EXPECT_NEAR(s.stddev(), 10.0, 1e-12);
}

// ---------- Samples ----------

TEST(Samples, PercentileInterpolation) {
  Samples s;
  for (double v : {10.0, 20.0, 30.0, 40.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.min(), 10.0);
  EXPECT_DOUBLE_EQ(s.max(), 40.0);
  EXPECT_DOUBLE_EQ(s.median(), 25.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 17.5);
}

TEST(Samples, SingleSampleAllPercentilesEqual) {
  Samples s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 7.0);
}

TEST(Samples, UnsortedInputHandled) {
  Samples s;
  for (double v : {9.0, 1.0, 5.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
}

// The definition percentile() selects its way to: sort, then interpolate
// between the closest ranks.
double sorted_percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  if (xs.size() == 1) return xs[0];
  double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  auto lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, xs.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1 - frac) + xs[hi] * frac;
}

TEST(Samples, SelectionEqualsTheSortedDefinitionBitForBit) {
  const double ps[] = {0, 0.5, 37.5, 50, 99, 99.9, 100};
  Rng rng(2026);
  for (std::size_t n = 1; n <= 1000; ++n) {
    // Odd sizes draw from a handful of values, so most samples tie.
    const bool heavy_ties = n % 2 == 1;
    Samples s;
    std::vector<double> inserted;
    for (std::size_t i = 0; i < n; ++i) {
      const double v = heavy_ties ? static_cast<double>(rng.uniform_int(0, 4))
                                  : rng.uniform(-1e3, 1e3);
      s.add(v);
      inserted.push_back(v);
    }
    for (double p : ps)
      EXPECT_EQ(s.percentile(p), sorted_percentile(inserted, p))
          << "n=" << n << " p=" << p;
    EXPECT_EQ(s.values(), inserted) << "n=" << n;
  }
}

TEST(Samples, SelectPercentileReordersOnlyItsArgument) {
  std::vector<double> xs = {5, 3, 9, 1, 7, 3, 3};
  const std::vector<double> before = xs;
  EXPECT_EQ(select_percentile(xs, 50), 3.0);
  EXPECT_EQ(select_percentile(xs, 100), 9.0);
  EXPECT_EQ(select_percentile(xs, 0), 1.0);
  std::sort(xs.begin(), xs.end());
  std::vector<double> sorted = before;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(xs, sorted);  // a permutation of the input
  std::vector<double> empty;
  EXPECT_EQ(select_percentile(empty, 99), 0.0);
}

// ---------- strings ----------

TEST(Strings, SplitBasic) {
  auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitKeepsEmptyFields) {
  auto parts = split("a,,c,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitNoDelimiter) {
  auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\r\nx\n"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("a b"), "a b");
}

TEST(Strings, IEquals) {
  EXPECT_TRUE(iequals("Content-Length", "content-length"));
  EXPECT_TRUE(iequals("", ""));
  EXPECT_FALSE(iequals("abc", "abcd"));
  EXPECT_FALSE(iequals("abc", "abd"));
}

TEST(Strings, ToLower) {
  EXPECT_EQ(to_lower("AbC-123"), "abc-123");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("http://x", "http://"));
  EXPECT_FALSE(starts_with("ftp://x", "http://"));
}

TEST(Strings, Strformat) {
  EXPECT_EQ(strformat("%02d-%s", 7, "x"), "07-x");
  EXPECT_EQ(strformat("%.2f", 1.5), "1.50");
  EXPECT_EQ(strformat("plain"), "plain");
}

// ---------- Slab ----------

struct Record {
  int value = 0;
  std::string text;
  void reset() { value = 0; }  // keeps the string's capacity
};

TEST(Slab, AddressesStayStableAcrossChunks) {
  Slab<Record> slab;
  constexpr std::size_t kRecords = 3 * Slab<Record>::kChunkSlots + 5;
  std::vector<Slab<Record>::Id> ids;
  std::vector<const Record*> addresses;
  for (std::size_t i = 0; i < kRecords; ++i) {
    ids.push_back(slab.insert());
    Record* r = slab.find(ids.back());
    ASSERT_NE(r, nullptr);
    r->value = static_cast<int>(i);
    addresses.push_back(r);
  }
  EXPECT_EQ(slab.size(), kRecords);
  for (std::size_t i = 0; i < kRecords; ++i) {
    EXPECT_EQ(slab.find(ids[i]), addresses[i]) << i;
    EXPECT_EQ(slab.find(ids[i])->value, static_cast<int>(i));
  }
}

TEST(Slab, ReserveAllocatesChunksUpFront) {
  Slab<Record> slab;
  slab.reserve(Slab<Record>::kChunkSlots + 1);  // two chunks
  std::vector<const Record*> addresses;
  for (std::size_t i = 0; i < Slab<Record>::kChunkSlots + 1; ++i)
    addresses.push_back(slab.find(slab.insert()));
  EXPECT_EQ(slab.size(), Slab<Record>::kChunkSlots + 1);
  EXPECT_EQ(std::set<const Record*>(addresses.begin(), addresses.end()).size(),
            addresses.size());
}

TEST(Slab, StaleIdsStayDeadAfterSlotReuse) {
  Slab<Record> slab;
  std::vector<Slab<Record>::Id> ids;
  for (std::size_t i = 0; i < Slab<Record>::kChunkSlots + 2; ++i) ids.push_back(slab.insert());
  const Slab<Record>::Id old = ids.back();
  slab.find(old)->text = "kept capacity";
  ASSERT_TRUE(slab.erase(old));
  EXPECT_FALSE(slab.contains(old));
  EXPECT_FALSE(slab.erase(old));
  const Slab<Record>::Id reused = slab.insert();  // LIFO: the same slot
  EXPECT_EQ(reused & 0xffffffffu, old & 0xffffffffu);
  EXPECT_NE(reused, old);
  EXPECT_FALSE(slab.contains(old));
  EXPECT_EQ(slab.find(old), nullptr);
  EXPECT_NE(slab.find(reused), nullptr);
  EXPECT_EQ(slab.find(reused)->text, "kept capacity");  // reset() kept it
  EXPECT_EQ(slab.find(Slab<Record>::kInvalid), nullptr);
}

TEST(Slab, ForEachVisitsLiveRecordsInSlotOrder) {
  Slab<Record> slab;
  std::vector<Slab<Record>::Id> ids;
  for (int i = 0; i < 150; ++i) {
    ids.push_back(slab.insert());
    slab.find(ids.back())->value = i;
  }
  for (int i = 0; i < 150; i += 3) slab.erase(ids[static_cast<std::size_t>(i)]);
  // Reused slots keep their place in slot order, not insertion order.
  const Slab<Record>::Id again = slab.insert();  // takes slot 147
  slab.find(again)->value = 1000;
  std::vector<int> seen;
  std::vector<Slab<Record>::Id> seen_ids;
  slab.for_each([&](Slab<Record>::Id id, const Record& r) {
    seen.push_back(r.value);
    seen_ids.push_back(id);
  });
  std::vector<int> expected;
  for (int i = 0; i < 150; ++i) {
    if (i == 147)
      expected.push_back(1000);
    else if (i % 3 != 0)
      expected.push_back(i);
  }
  EXPECT_EQ(seen, expected);
  for (std::size_t k = 1; k < seen_ids.size(); ++k)
    EXPECT_LT(seen_ids[k - 1] & 0xffffffffu, seen_ids[k] & 0xffffffffu);
}

}  // namespace
}  // namespace mfhttp
