#include "util/sorted_ops.h"

#include <set>
#include <vector>

#include "gtest/gtest.h"
#include "util/rng.h"

namespace reach {
namespace {

// Brace literals do not convert to std::span; route them through a vector.
std::vector<uint32_t> V(std::initializer_list<uint32_t> xs) { return xs; }

TEST(SortedOpsTest, IntersectsBasics) {
  EXPECT_FALSE(SortedIntersects(V({}), V({})));
  EXPECT_FALSE(SortedIntersects(V({1, 3, 5}), V({})));
  EXPECT_FALSE(SortedIntersects(V({1, 3, 5}), V({2, 4, 6})));
  EXPECT_TRUE(SortedIntersects(V({1, 3, 5}), V({5})));
  EXPECT_TRUE(SortedIntersects(V({5}), V({1, 3, 5})));
  EXPECT_TRUE(SortedIntersects(V({1, 2}), V({0, 2, 9})));
}

TEST(SortedOpsTest, RangeOverlapPretest) {
  EXPECT_FALSE(SortedRangesOverlap(V({}), V({1})));
  EXPECT_FALSE(SortedRangesOverlap(V({1}), V({})));
  // Disjoint windows, either order.
  EXPECT_FALSE(SortedRangesOverlap(V({1, 2, 3}), V({4, 9})));
  EXPECT_FALSE(SortedRangesOverlap(V({4, 9}), V({1, 2, 3})));
  // Touching at the boundary overlaps.
  EXPECT_TRUE(SortedRangesOverlap(V({1, 2, 3}), V({3, 9})));
  // Overlapping windows need not share an element — only the scan decides.
  EXPECT_TRUE(SortedRangesOverlap(V({1, 5}), V({2, 9})));
  EXPECT_FALSE(SortedIntersects(V({1, 5}), V({2, 9})));
}

TEST(SortedOpsTest, GallopFindsAndRejects) {
  std::vector<uint32_t> large;
  for (uint32_t i = 0; i < 4096; ++i) large.push_back(2 * i);  // Evens.
  EXPECT_TRUE(GallopIntersects(V({4000}), large));
  EXPECT_FALSE(GallopIntersects(V({4001}), large));
  EXPECT_TRUE(GallopIntersects(V({1, 3, 8190}), large));   // Last element.
  EXPECT_TRUE(GallopIntersects(V({0}), large));            // First element.
  EXPECT_FALSE(GallopIntersects(V({1, 3, 5, 9999}), large));
  // Small elements past the end of large must terminate, not scan.
  EXPECT_FALSE(GallopIntersects(V({100000, 100002}), large));
}

TEST(SortedOpsTest, AdaptiveMatchesMergeOnSkewedSizes) {
  // Exercise both adaptive branches (gallop for ratio > kGallopRatio,
  // merge otherwise) against the plain merge kernel.
  Rng rng(77);
  for (int round = 0; round < 300; ++round) {
    std::set<uint32_t> sa;
    std::set<uint32_t> sb;
    const size_t na = 1 + rng.Uniform(4);
    const size_t nb = 1 + rng.Uniform(2000);
    for (size_t i = 0; i < na; ++i) sa.insert(rng.Uniform(5000));
    for (size_t i = 0; i < nb; ++i) sb.insert(rng.Uniform(5000));
    std::vector<uint32_t> va(sa.begin(), sa.end());
    std::vector<uint32_t> vb(sb.begin(), sb.end());
    const bool expected = MergeIntersects(va, vb);
    EXPECT_EQ(SortedIntersects(va, vb), expected);
    EXPECT_EQ(SortedIntersects(vb, va), expected);
    EXPECT_EQ(GallopIntersects(va, vb), expected);
  }
}

TEST(SortedOpsTest, ContainsBinarySearch) {
  std::vector<uint32_t> v{2, 4, 8, 16};
  EXPECT_TRUE(SortedContains(v, 2));
  EXPECT_TRUE(SortedContains(v, 16));
  EXPECT_FALSE(SortedContains(v, 3));
  EXPECT_FALSE(SortedContains(V({}), 0));
}

TEST(SortedOpsTest, SortedInsertKeepsOrderAndUniqueness) {
  std::vector<uint32_t> v;
  EXPECT_TRUE(SortedInsert(&v, 5));
  EXPECT_TRUE(SortedInsert(&v, 1));
  EXPECT_TRUE(SortedInsert(&v, 9));
  EXPECT_FALSE(SortedInsert(&v, 5));  // Duplicate.
  EXPECT_EQ(v, (std::vector<uint32_t>{1, 5, 9}));
}

TEST(SortedOpsTest, UnionInto) {
  std::vector<uint32_t> dst{1, 4, 6};
  SortedUnionInto(&dst, {2, 4, 7});
  EXPECT_EQ(dst, (std::vector<uint32_t>{1, 2, 4, 6, 7}));
  SortedUnionInto(&dst, {});
  EXPECT_EQ(dst.size(), 5u);
  std::vector<uint32_t> empty;
  SortedUnionInto(&empty, {3, 3'000'000});
  EXPECT_EQ(empty, (std::vector<uint32_t>{3, 3'000'000}));
}

TEST(SortedOpsTest, UnionIntoAppendsInPlaceWhenSrcIsAllGreater) {
  // src entirely above dst->back(): the append fast path, which must not
  // reallocate when capacity suffices and must still dedup the seam.
  std::vector<uint32_t> dst{1, 4, 6};
  dst.reserve(8);
  const uint32_t* data_before = dst.data();
  SortedUnionInto(&dst, {7, 9});
  EXPECT_EQ(dst, (std::vector<uint32_t>{1, 4, 6, 7, 9}));
  EXPECT_EQ(dst.data(), data_before);  // Appended in place.
  // Seam duplicate: src.front() == dst->back() keeps exactly one copy.
  SortedUnionInto(&dst, {9, 12});
  EXPECT_EQ(dst, (std::vector<uint32_t>{1, 4, 6, 7, 9, 12}));
  EXPECT_EQ(dst.data(), data_before);
  // One element below the back disables the fast path but not correctness.
  SortedUnionInto(&dst, {11, 13});
  EXPECT_EQ(dst, (std::vector<uint32_t>{1, 4, 6, 7, 9, 11, 12, 13}));
}

TEST(SortedOpsTest, UnionIntoRandomizedMatchesSetUnion) {
  Rng rng(404);
  for (int round = 0; round < 200; ++round) {
    std::set<uint32_t> sd;
    std::set<uint32_t> ss;
    for (size_t i = rng.Uniform(12); i > 0; --i) sd.insert(rng.Uniform(64));
    // Bias some rounds into the append regime (src above dst's window).
    const uint32_t base = round % 2 == 0 ? 64 : 0;
    for (size_t i = rng.Uniform(12); i > 0; --i) {
      ss.insert(base + rng.Uniform(64));
    }
    std::vector<uint32_t> dst(sd.begin(), sd.end());
    const std::vector<uint32_t> src(ss.begin(), ss.end());
    std::set<uint32_t> expected = sd;
    expected.insert(ss.begin(), ss.end());
    SortedUnionInto(&dst, src);
    EXPECT_EQ(dst, std::vector<uint32_t>(expected.begin(), expected.end()));
  }
}

TEST(SortedOpsTest, SortUnique) {
  std::vector<uint32_t> v{5, 1, 5, 3, 1};
  SortUnique(&v);
  EXPECT_EQ(v, (std::vector<uint32_t>{1, 3, 5}));
}

bool AllZero(const std::vector<uint64_t>& bits) {
  for (const uint64_t word : bits) {
    if (word != 0) return false;
  }
  return true;
}

TEST(SortedOpsTest, BitmapSortUniqueEdgeCases) {
  const uint32_t n = 1000;
  std::vector<uint64_t> bits((n + 63) / 64);
  const auto check = [&bits](std::vector<uint32_t> keys) {
    std::vector<uint32_t> expected = keys;
    SortUnique(&expected);
    BitmapSortUnique(&keys, &bits);
    EXPECT_EQ(keys, expected);
    EXPECT_TRUE(AllZero(bits));
  };
  check({});
  check({7});
  check({0});
  check({n - 1});
  check({5, 5, 5, 5, 5});
  // Word boundaries: bit 63 ends word 0, bit 64 starts word 1.
  check({64, 63, 0, n - 1, 63, 64, 0});
  check({n - 1, 0});
}

TEST(SortedOpsTest, RandomizedBitmapSortUniqueAgainstSortUnique) {
  // Key windows from one word to the whole range, so both the bitmap walk
  // and the sparse-input SortUnique fallback run (kBitmapMaxWordsPerKey).
  const uint32_t n = 100000;
  std::vector<uint64_t> bits((n + 63) / 64);
  Rng rng(1002);
  for (int round = 0; round < 2000; ++round) {
    const uint32_t window = 1 + static_cast<uint32_t>(rng.Uniform(
                                    round % 2 == 0 ? 256 : n));
    const uint32_t base = static_cast<uint32_t>(rng.Uniform(n - window + 1));
    std::vector<uint32_t> keys;
    for (size_t i = rng.Uniform(300); i > 0; --i) {
      keys.push_back(base + static_cast<uint32_t>(rng.Uniform(window)));
    }
    // Repeats, as in a gather of overlapping labels.
    for (size_t i = keys.empty() ? 0 : rng.Uniform(keys.size()); i > 0; --i) {
      keys.push_back(keys[rng.Uniform(keys.size())]);
    }
    std::vector<uint32_t> expected = keys;
    SortUnique(&expected);
    BitmapSortUnique(&keys, &bits);
    ASSERT_EQ(keys, expected) << "round " << round;
    ASSERT_TRUE(AllZero(bits)) << "round " << round;
  }
}

TEST(SortedOpsTest, RandomizedIntersectsAgainstStdSet) {
  Rng rng(1001);
  for (int round = 0; round < 200; ++round) {
    std::set<uint32_t> sa;
    std::set<uint32_t> sb;
    const size_t na = rng.Uniform(20);
    const size_t nb = rng.Uniform(20);
    for (size_t i = 0; i < na; ++i) sa.insert(rng.Uniform(40));
    for (size_t i = 0; i < nb; ++i) sb.insert(rng.Uniform(40));
    std::vector<uint32_t> va(sa.begin(), sa.end());
    std::vector<uint32_t> vb(sb.begin(), sb.end());
    bool expected = false;
    for (uint32_t x : sa) expected |= sb.count(x) > 0;
    EXPECT_EQ(SortedIntersects(va, vb), expected);
    EXPECT_EQ(MergeIntersects(va, vb), expected);
    EXPECT_EQ(GallopIntersects(va, vb), expected);
    EXPECT_EQ(GallopIntersects(vb, va), expected);
  }
}

}  // namespace
}  // namespace reach
