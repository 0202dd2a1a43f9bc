// Algorithms on sorted uint32 ranges. Hop labels are stored as sorted
// arrays (the paper, Section 1, attributes most of 2-hop's reported query
// slowness to set-based label storage; merge intersection on sorted arrays
// removes that gap), so these little routines are the query hot path.
//
// The intersection-exists test is adaptive (see SortedIntersects):
//
//   1. O(1) range-overlap rejection: two sorted ranges whose [front, back]
//      windows do not overlap cannot intersect. Distribution Labeling's
//      total-order keys make this fire constantly — a low-order vertex's
//      Lout holds only high positions while a high-order vertex's Lin holds
//      only low ones.
//   2. Galloping (exponential-search) scan when one side is much smaller
//      than the other (|small| * kGallopRatio < |large|): each element of
//      the small side is located in the large side in O(log gap) instead of
//      scanning the gap linearly — O(|small| * log |large|) total. AVX2
//      builds resolve the probe's final window vectorized at moderate skew
//      (SimdGallopIntersects, util/simd.h; see kSimdGallopMaxRatio).
//   3. Balanced sizes: the SIMD block-compare kernel (SimdIntersects) when
//      compiled in, enabled, and the small side has at least
//      kSimdMinBalanced elements; the scalar two-pointer merge otherwise.
//      Both are O(|a| + |b|), the block kernel retires one W-lane block per
//      branchless step.
//
// Label construction tests intersections of a different shape — a hop's
// own short label against a longer candidate label — and uses its own
// kernel for them, ProbeIntersects (branchless binary probes).
//
// The crossover constants kGallopRatio and kSimdMinBalanced are measured,
// not guessed: see the BM_Intersect* suite in bench/bench_micro.cc (the
// BM_ProbeIntersects* cases time the construction kernel). So is
// kBitmapMaxWordsPerKey, which picks the sort-and-dedup routine label
// construction uses (BitmapSortUnique; the BM_Gather* suite).

#ifndef REACH_UTIL_SORTED_OPS_H_
#define REACH_UTIL_SORTED_OPS_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/simd.h"

namespace reach {

/// Size ratio beyond which SortedIntersects switches from the (merge or
/// block) scan to galloping: gallop when |small| * kGallopRatio < |large|.
/// Measured with BM_Intersect{Merge,Gallop,Simd,SimdGallop} (bench_micro)
/// on uniform, clustered-runs, and first-hit key distributions (AVX2
/// numbers; SSE2 tracks the same shape):
///   16:128  (ratio 8)   merge 198ns / gallop 106 / simd-block 56
///   16:512  (ratio 32)  merge ~760  / gallop 137 / simd-block 209
///   16:1600 (ratio 100) merge 2722  / gallop 186 / simd-block 742
/// Clustered keys shrink everything but keep the same ordering. Scalar
/// gallop overtakes merge right at ratio 8 and overtakes the block kernel
/// between ratios 8 and 32; ratio 8 stays the switch point because the
/// block kernel only back-fills the 8..16 band (a few ns either way) while
/// merge loses badly past it.
inline constexpr size_t kGallopRatio = 8;

/// The gallop tier takes the vectorized probe (SimdGallopIntersects) only
/// on the AVX2 tier and only at moderate skew — |large| below |small| *
/// this ratio. Measured: AVX2 wins at 128:4096 (936ns vs scalar 1180) but
/// loses at 128:128000 (2719 vs 2194) and on clustered 16:1600 (114 vs
/// 76) — at extreme skew the probe lands in one cache line and the scalar
/// binary-search descent is already minimal, so the 8-lane window compare
/// is pure overhead. SSE2's 4-lane window never recoups its setup (128:
/// 4096 uniform: 1425 vs scalar 1167), so tier 1 stays on scalar gallop.
inline constexpr size_t kSimdGallopMaxRatio = 64;

/// Minimum size of the smaller side before the balanced path uses the SIMD
/// block kernel: one full SSE2/AVX2 comparison block. Measured by
/// BM_IntersectSimd vs BM_IntersectMerge — the block kernel already wins
/// 3.3x at 8:8 on AVX2 (3.7ns vs 12.0) and 1.9x on SSE2, and the win grows
/// with size (128:128 uniform: 103ns vs 244, 2.4x). The only shape where
/// merge stays ahead is an immediate first-element hit (1.3ns vs ~2-3.5ns
/// fixed vector setup), which the threshold cannot see; the ~2ns loss
/// there is accepted for the 2-3x win everywhere else.
inline constexpr size_t kSimdMinBalanced = 8;

/// O(1) pretest: true when the [front, back] windows of two sorted
/// non-empty ranges overlap. Disjoint windows cannot share an element.
inline bool SortedRangesOverlap(std::span<const uint32_t> a,
                                std::span<const uint32_t> b) {
  return !a.empty() && !b.empty() && a.back() >= b.front() &&
         b.back() >= a.front();
}

/// Two-pointer merge scan: O(|a| + |b|). Exposed (rather than folded into
/// SortedIntersects) so the micro benchmarks can measure each kernel alone.
inline bool MergeIntersects(std::span<const uint32_t> a,
                            std::span<const uint32_t> b) {
  const uint32_t* pa = a.data();
  const uint32_t* ea = pa + a.size();
  const uint32_t* pb = b.data();
  const uint32_t* eb = pb + b.size();
  while (pa != ea && pb != eb) {
    if (*pa < *pb) {
      ++pa;
    } else if (*pb < *pa) {
      ++pb;
    } else {
      return true;
    }
  }
  return false;
}

/// Galloping scan: for each element of `small`, exponential-search the
/// still-unscanned suffix of `large` for it. O(|small| * log |large|);
/// wins when `large` dwarfs `small` (both must be sorted).
inline bool GallopIntersects(std::span<const uint32_t> small,
                             std::span<const uint32_t> large) {
  const uint32_t* lo = large.data();
  const uint32_t* const end = large.data() + large.size();
  for (const uint32_t x : small) {
    // Exponential probe: find a window [lo + step/2, lo + step] whose far
    // end is >= x, then binary-search inside it.
    size_t step = 1;
    const size_t remaining = static_cast<size_t>(end - lo);
    while (step < remaining && lo[step - 1] < x) step <<= 1;
    const uint32_t* hi = lo + std::min(step, remaining);
    lo = std::lower_bound(lo + step / 2, hi, x);
    if (lo == end) return false;  // x and everything after it are too big.
    if (*lo == x) return true;
  }
  return false;
}

/// Branchless lower bound of `x` in the non-empty sorted range [first,
/// first + len): the halving step is a conditional move, not a branch, so
/// a search costs ceil(log2 len) dependent loads and no mispredictions.
inline const uint32_t* BranchlessLowerBound(const uint32_t* first,
                                            size_t len, uint32_t x) {
  while (len > 1) {
    const size_t half = len / 2;
    first = first[half] < x ? first + half : first;
    len -= half;
  }
  return first + (*first < x);
}

/// Intersection test for label construction (Distribution Labeling's prune
/// tests), where one side is a hop's own short label and the other a
/// longer candidate label: after the O(1) range reject, each key of the
/// shorter side is located in the longer one by BranchlessLowerBound, each
/// search starting where the previous one ended. O(|small| * log |large|).
///
/// On the one-thread cit-Patents DL build, 68% of the 4.9M prune tests end
/// at the range reject. The rest test 1.7 hop keys on average (97% at most
/// 4) against 101 candidate keys, and a hit lands at candidate position 16
/// or later in 80% of cases (at position 0 in 1.4%). Measured with
/// BM_ProbeIntersects vs BM_Intersect{Gallop,Adaptive}/prune (bench_micro,
/// SSE2 build, 4-vCPU Xeon VM; ns per test, cycling 4096 distinct pairs of
/// uniform keys below 2^16):
///   hop:candidate   probe  gallop  adaptive
///    1:128            35      67       83
///    2:128            67     139      131
///    4:32             95     137      109
///    4:512           295     352      325
///   16:128           505     521      165
/// The probe wins at the hop sides DL sees and loses from about 16 hop
/// keys, where the adaptive kernel's block compare takes over. It also
/// loses on clustered keys at 4 hop keys and up, and when both sides share
/// their first key (34 vs 9-15 ns at 1:128) — shapes the prune tests rarely
/// take. So there is no fallback: routing hop sides above 4 or 8 keys, or
/// size ratios below 8, to SortedIntersects made the cit-Patents
/// distribution no faster (473, 485 and 479 ms against 452, median of 8
/// alternated runs; SortedIntersects alone 500).
///
/// The query path keeps SortedIntersects: on 1M cit-Patents pairs (half
/// random, half 6-step forward walks) the probe read 88 ns/query against
/// 72.
inline bool ProbeIntersects(std::span<const uint32_t> a,
                            std::span<const uint32_t> b) {
  if (!SortedRangesOverlap(a, b)) return false;
  if (a.size() > b.size()) std::swap(a, b);
  const uint32_t* lo = b.data();
  const uint32_t* const end = b.data() + b.size();
  for (const uint32_t x : a) {
    lo = BranchlessLowerBound(lo, static_cast<size_t>(end - lo), x);
    if (lo == end) return false;  // x and every later key are too big.
    if (*lo == x) return true;
  }
  return false;
}

/// True if the two sorted ranges share at least one element. Adaptive:
/// range rejection, then gallop or merge by size ratio (header comment),
/// each tier taking its vector kernel when compiled in and enabled
/// (util/simd.h). Answers are bit-identical with SIMD on or off.
inline bool SortedIntersects(std::span<const uint32_t> a,
                             std::span<const uint32_t> b) {
  if (!SortedRangesOverlap(a, b)) return false;
  if (a.size() > b.size()) std::swap(a, b);
  if (a.size() * kGallopRatio < b.size()) {
    if (SimdEnabled() && kSimdTier >= 2 &&
        b.size() < a.size() * kSimdGallopMaxRatio) {
      return SimdGallopIntersects(a, b);
    }
    return GallopIntersects(a, b);
  }
  if (SimdEnabled() && a.size() >= kSimdMinBalanced) {
    return SimdIntersects(a, b);
  }
  return MergeIntersects(a, b);
}

/// Binary search membership test.
inline bool SortedContains(std::span<const uint32_t> v, uint32_t x) {
  return std::binary_search(v.begin(), v.end(), x);
}

/// Inserts `x` into sorted vector `v` if absent. Returns true if inserted.
/// A key above the current back is a plain push_back: Distribution
/// Labeling's keys are order positions admitted in ascending order, so
/// every one of its inserts takes this O(1) path.
inline bool SortedInsert(std::vector<uint32_t>* v, uint32_t x) {
  if (v->empty() || v->back() < x) {
    v->push_back(x);
    return true;
  }
  auto it = std::lower_bound(v->begin(), v->end(), x);
  if (it != v->end() && *it == x) return false;
  v->insert(it, x);
  return true;
}

/// Merges sorted `src` into sorted `dst`, dropping duplicates. When `src`
/// lies entirely at or above `dst`'s back — the common case for ordered
/// hop admissions, where every new key exceeds the keys already stored —
/// the merge degenerates to an in-place append (no fresh allocation, no
/// re-copy of the `dst` prefix; BM_SortedUnionAppend vs
/// BM_SortedUnionMergeFallback pins the win — 317ns vs 2650ns at 1024).
inline void SortedUnionInto(std::vector<uint32_t>* dst,
                            const std::vector<uint32_t>& src) {
  if (src.empty()) return;
  if (dst->empty()) {
    *dst = src;
    return;
  }
  if (src.front() >= dst->back()) {
    // Sorted-unique inputs: at most the seam element can repeat.
    dst->insert(dst->end(),
                src.begin() + (src.front() == dst->back() ? 1 : 0),
                src.end());
    return;
  }
  std::vector<uint32_t> out;
  out.reserve(dst->size() + src.size());
  std::set_union(dst->begin(), dst->end(), src.begin(), src.end(),
                 std::back_inserter(out));
  dst->swap(out);
}

/// Sorts and deduplicates in place.
inline void SortUnique(std::vector<uint32_t>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

/// Bitmap words per key at which BitmapSortUnique hands its input to
/// SortUnique instead of walking the bitmap: the walk costs about one load
/// per word of the [min, max] key window, the sort O(k log k) compares, so
/// a few keys spread over a wide window sort faster than they walk.
/// Measured with BM_Gather{SortUnique,BitmapWalk} (bench_micro, -O2, on a
/// 4-vCPU Xeon VM) on keys spread over a 48,438-id range (757 words):
///   16 keys (47 words/key)  sort  118ns / walk  646
///   40 keys (19 words/key)  sort  328ns / walk  949
///   48 keys (16 words/key)  sort  767ns / walk 1001
///   64 keys (12 words/key)  sort 2068ns / walk 1107
/// and on the mean cit-Patents gather (121 keys over 37,747 ids, 4.9
/// words/key) sort 5386ns / walk 1783. The crossover sits near 14 words
/// per key; on the walk alone, sparse p2p gathers (2-15 keys over
/// hundreds of words) made p2p's HL build 1.5x slower.
inline constexpr size_t kBitmapMaxWordsPerKey = 14;

/// The bitmap kernel of BitmapSortUnique without its sparse-input fallback
/// (exposed so the micro benchmarks can time it alone). Every key of `v`
/// must lie in [lo, hi]; the bitmap contract is BitmapSortUnique's.
inline void BitmapWalkSortUnique(std::vector<uint32_t>* v, uint64_t* bits,
                                 uint32_t lo, uint32_t hi) {
  for (const uint32_t x : *v) bits[x >> 6] |= uint64_t{1} << (x & 63);
  // The output never outruns the input it overwrites: every key is read
  // into the bitmap before the first write.
  uint32_t* out = v->data();
  for (size_t w = lo >> 6; w <= (hi >> 6); ++w) {
    uint64_t word = bits[w];
    if (word == 0) continue;
    bits[w] = 0;
    const uint32_t base = static_cast<uint32_t>(w << 6);
    do {
      *out++ = base + static_cast<uint32_t>(std::countr_zero(word));
      word &= word - 1;
    } while (word != 0);
  }
  v->resize(static_cast<size_t>(out - v->data()));
}

/// Sorts and deduplicates in place, with the same result as SortUnique,
/// through a scratch bitmap instead of a comparison sort: each key sets its
/// bit, then the words spanning [min key, max key] are walked in order,
/// emitting every set bit (ascending) and zeroing the word as it goes.
/// Inputs too sparse for the walk to pay (kBitmapMaxWordsPerKey) take
/// SortUnique. `zeroed_bits` must hold a bit for every key (size > max
/// key / 64) and be all-zero on entry; it is all-zero again on return, so
/// one scratch bitmap serves any number of calls with no reset pass.
inline void BitmapSortUnique(std::vector<uint32_t>* v,
                             std::vector<uint64_t>* zeroed_bits) {
  if (v->size() < 2) return;
  uint32_t lo = UINT32_MAX;
  uint32_t hi = 0;
  for (const uint32_t x : *v) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  if ((hi >> 6) - (lo >> 6) >= v->size() * kBitmapMaxWordsPerKey) {
    SortUnique(v);
    return;
  }
  BitmapWalkSortUnique(v, zeroed_bits->data(), lo, hi);
}

}  // namespace reach

#endif  // REACH_UTIL_SORTED_OPS_H_
