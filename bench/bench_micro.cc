// Google-benchmark micro benchmarks for the hot primitives: sorted-vector
// intersection (the query inner loop), bitset row unions (TC construction),
// PWAH compress/probe, bounded BFS, and end-to-end DL/HL/GRAIL builds on a
// fixed mid-size graph.

#include <benchmark/benchmark.h>

#include "baselines/grail.h"
#include "baselines/pwah.h"
#include "core/distribution_labeling.h"
#include "core/hierarchical_labeling.h"
#include "graph/generators.h"
#include "graph/transitive_closure.h"
#include "util/rng.h"
#include "util/sorted_ops.h"

namespace {

using namespace reach;

std::vector<uint32_t> RandomSortedVector(size_t n, uint32_t universe,
                                         uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> v;
  v.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    v.push_back(static_cast<uint32_t>(rng.Uniform(universe)));
  }
  SortUnique(&v);
  return v;
}

void BM_SortedIntersects(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  auto a = RandomSortedVector(len, 1 << 20, 1);
  auto b = RandomSortedVector(len, 1 << 20, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SortedIntersects(a, b));
  }
}
BENCHMARK(BM_SortedIntersects)->Arg(8)->Arg(64)->Arg(512)->Arg(4096);

// --- Intersection-kernel suite: merge vs gallop vs SIMD vs adaptive
// across size ratios 1:1 .. 1:10^4 and three key distributions, so the
// crossover constants (kGallopRatio, kSimdMinBalanced) are measured rather
// than guessed. Args are {|small|, ratio, dist}; |large| = |small| * ratio.
//
// Distributions (hop labels are not uniform keys, so the crossovers are
// measured on label-shaped data too):
//   0 uniform    independent uniform keys, mostly-negative intersections
//                (one shared universe so the kernels do real work)
//   1 clustered  runs-heavy: keys arrive in runs of ~16 consecutive values
//                (DL admits contiguous stretches of order positions, so
//                real labels cluster; runs make merge's branch predictor
//                look good and gallop overshoot)
//   2 firsthit   both sides share their smallest element (the shape of a
//                positive query certified by the highest-order hop: the
//                scan answers true on the first comparison; measures each
//                kernel's fixed overhead, which the adaptive tree must not
//                regress)

enum class KeyDist { kUniform = 0, kClustered = 1, kFirstHit = 2 };

std::vector<uint32_t> ClusteredSortedVector(size_t n, uint32_t universe,
                                            uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> v;
  v.reserve(n);
  while (v.size() < n) {
    uint32_t key = static_cast<uint32_t>(rng.Uniform(universe));
    const size_t run = 1 + rng.Uniform(31);  // Mean run ~16.
    for (size_t i = 0; i < run && v.size() < n; ++i) v.push_back(key++);
  }
  SortUnique(&v);
  return v;
}

std::pair<std::vector<uint32_t>, std::vector<uint32_t>> RatioInputs(
    size_t small_len, size_t ratio, KeyDist dist) {
  const uint32_t universe = 1 << 24;
  std::vector<uint32_t> small;
  std::vector<uint32_t> large;
  switch (dist) {
    case KeyDist::kUniform:
      small = RandomSortedVector(small_len, universe, 11);
      large = RandomSortedVector(small_len * ratio, universe, 12);
      break;
    case KeyDist::kClustered:
      small = ClusteredSortedVector(small_len, universe, 11);
      large = ClusteredSortedVector(small_len * ratio, universe, 12);
      break;
    case KeyDist::kFirstHit:
      small = RandomSortedVector(small_len, universe, 11);
      large = RandomSortedVector(small_len * ratio, universe, 12);
      if (!small.empty() && !large.empty()) {
        const uint32_t shared = std::min(small.front(), large.front());
        small.front() = shared;
        large.front() = shared;
      }
      break;
  }
  return {std::move(small), std::move(large)};
}

std::pair<std::vector<uint32_t>, std::vector<uint32_t>> StateInputs(
    const benchmark::State& state) {
  return RatioInputs(static_cast<size_t>(state.range(0)),
                     static_cast<size_t>(state.range(1)),
                     static_cast<KeyDist>(state.range(2)));
}

void BM_IntersectMerge(benchmark::State& state) {
  auto [small, large] = StateInputs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MergeIntersects(small, large));
  }
}

void BM_IntersectGallop(benchmark::State& state) {
  auto [small, large] = StateInputs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GallopIntersects(small, large));
  }
}

// The SIMD block kernel (util/simd.h); at tier 0 this times the scalar
// merge, so compare against BM_IntersectMerge only on a SIMD build (the
// reported label below says which tier ran).
void BM_IntersectSimd(benchmark::State& state) {
  auto [small, large] = StateInputs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SimdIntersects(small, large));
  }
  state.SetLabel(SimdKernelName());
}

void BM_IntersectSimdGallop(benchmark::State& state) {
  auto [small, large] = StateInputs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SimdGallopIntersects(small, large));
  }
  state.SetLabel(SimdKernelName());
}

void BM_IntersectAdaptive(benchmark::State& state) {
  auto [small, large] = StateInputs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SortedIntersects(small, large));
  }
  state.SetLabel(SimdEnabled() ? SimdKernelName() : "scalar");
}

void IntersectRatioArgs(benchmark::internal::Benchmark* b) {
  for (const int64_t dist : {0, 1, 2}) {
    for (const int64_t ratio : {1, 8, 32, 100, 1000, 10000}) {
      b->Args({16, ratio, dist});
    }
    // Balanced sizes around (and past) typical label lengths: where the
    // SIMD block kernel vs scalar merge crossover (kSimdMinBalanced) and
    // the headline 128:128 comparison live.
    for (const int64_t small : {8, 32, 128, 512}) {
      b->Args({small, 1, dist});
    }
    for (const int64_t ratio : {32, 1000}) {
      b->Args({128, ratio, dist});
    }
  }
}

BENCHMARK(BM_IntersectMerge)->Apply(IntersectRatioArgs);
BENCHMARK(BM_IntersectGallop)->Apply(IntersectRatioArgs);
BENCHMARK(BM_IntersectSimd)->Apply(IntersectRatioArgs);
BENCHMARK(BM_IntersectSimdGallop)->Apply(IntersectRatioArgs);
BENCHMARK(BM_IntersectAdaptive)->Apply(IntersectRatioArgs);

// --- SortedUnionInto: the append fast path (src entirely >= dst.back(),
// the shape of DL's ordered hop admissions) vs the general allocate-merge
// it replaces. Arg is |dst| = |src|.
void BM_SortedUnionAppend(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  std::vector<uint32_t> dst_proto;
  std::vector<uint32_t> src;
  for (uint32_t i = 0; i < len; ++i) dst_proto.push_back(i);
  for (uint32_t i = 0; i < len; ++i) {
    src.push_back(static_cast<uint32_t>(len) + i);
  }
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<uint32_t> dst = dst_proto;
    dst.reserve(2 * len);
    state.ResumeTiming();
    SortedUnionInto(&dst, src);
    benchmark::DoNotOptimize(dst.data());
  }
}
BENCHMARK(BM_SortedUnionAppend)->Arg(64)->Arg(1024)->Arg(16384);

// The general-merge control: one src element below dst.back() disables the
// append path, so this times the fresh-vector set_union on inputs of the
// same size (the cost the fast path removes).
void BM_SortedUnionMergeFallback(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  std::vector<uint32_t> dst_proto;
  std::vector<uint32_t> src;
  for (uint32_t i = 0; i < len; ++i) dst_proto.push_back(2 * i + 1);
  src.push_back(0);  // Below dst.front(): forces the general merge.
  for (uint32_t i = 1; i < len; ++i) {
    src.push_back(2 * (static_cast<uint32_t>(len) + i));
  }
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<uint32_t> dst = dst_proto;
    dst.reserve(2 * len);
    state.ResumeTiming();
    SortedUnionInto(&dst, src);
    benchmark::DoNotOptimize(dst.data());
  }
}
BENCHMARK(BM_SortedUnionMergeFallback)->Arg(64)->Arg(1024)->Arg(16384);

// --- Gather dedup: HL assembles each label by concatenating a vertex's
// BFS neighbourhood with the labels of its upper-level hops, then sorting
// and deduplicating the keys (vertex ids below n). SortUnique (std::sort +
// unique) vs the bitmap walk BitmapSortUnique takes on dense inputs. Args
// are {keys, distinct, range}: `distinct` ids uniform in [0, range), padded
// with repeats to `keys` and shuffled. Shapes:
//   {121, 70, 37747}   the mean cit-Patents gather (70,668 gathers, 8.54M
//                      keys, 4.96M after dedup)
//   {6, 4, 48438}      a p2p gather: a few keys spread over the whole range
//   {k, k*3/5, 48438}  the sweep that places kBitmapMaxWordsPerKey
// A pool of gathers is cycled so neither kernel sees one input repeatedly;
// both pay the same per-iteration copy of the gather into the work vector.
std::vector<std::vector<uint32_t>> GatherPool(const benchmark::State& state) {
  const size_t keys = static_cast<size_t>(state.range(0));
  const size_t distinct = static_cast<size_t>(state.range(1));
  const uint32_t range = static_cast<uint32_t>(state.range(2));
  Rng rng(7);
  std::vector<std::vector<uint32_t>> pool(64);
  for (auto& gather : pool) {
    for (size_t i = 0; i < distinct; ++i) {
      gather.push_back(static_cast<uint32_t>(rng.Uniform(range)));
    }
    while (gather.size() < keys) {
      gather.push_back(gather[rng.Uniform(distinct)]);
    }
    for (size_t i = gather.size(); i > 1; --i) {
      std::swap(gather[i - 1], gather[rng.Uniform(i)]);
    }
  }
  return pool;
}

void GatherArgs(benchmark::internal::Benchmark* b) {
  b->Args({121, 70, 37747})->Args({6, 4, 48438});
  for (int64_t k : {2, 4, 8, 16, 24, 32, 40, 48, 64, 128}) {
    b->Args({k, k * 3 / 5 + 1, 48438});
  }
}

// Times `dedup(&work, &bits)` on the gathers of GatherPool, cycled.
template <typename Dedup>
void RunGatherDedup(benchmark::State& state, Dedup dedup) {
  const auto pool = GatherPool(state);
  std::vector<uint64_t> bits((static_cast<size_t>(state.range(2)) + 63) / 64);
  std::vector<uint32_t> work;
  size_t next = 0;
  for (auto _ : state) {
    work.assign(pool[next].begin(), pool[next].end());
    next = (next + 1) % pool.size();
    dedup(&work, &bits);
    benchmark::DoNotOptimize(work.data());
  }
}

void BM_GatherSortUnique(benchmark::State& state) {
  RunGatherDedup(state, [](std::vector<uint32_t>* v, std::vector<uint64_t>*) {
    SortUnique(v);
  });
}
BENCHMARK(BM_GatherSortUnique)->Apply(GatherArgs);

void BM_GatherBitmapWalk(benchmark::State& state) {
  RunGatherDedup(state, [](std::vector<uint32_t>* v,
                           std::vector<uint64_t>* bits) {
    const auto [lo, hi] = std::minmax_element(v->begin(), v->end());
    BitmapWalkSortUnique(v, bits->data(), *lo, *hi);
  });
}
BENCHMARK(BM_GatherBitmapWalk)->Apply(GatherArgs);

void BM_GatherBitmapSortUnique(benchmark::State& state) {
  RunGatherDedup(state, BitmapSortUnique);
}
BENCHMARK(BM_GatherBitmapSortUnique)->Apply(GatherArgs);

// The O(1) range rejection: two big labels whose key windows are disjoint
// (exactly what DL's total-order keys produce on most negative queries).
void BM_IntersectRangeReject(benchmark::State& state) {
  std::vector<uint32_t> low;
  std::vector<uint32_t> high;
  for (uint32_t i = 0; i < 4096; ++i) {
    low.push_back(i);
    high.push_back(1 << 20 | i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SortedIntersects(low, high));
  }
}
BENCHMARK(BM_IntersectRangeReject);

void BM_BitsetUnion(benchmark::State& state) {
  const size_t bits = static_cast<size_t>(state.range(0));
  Bitset a(bits);
  Bitset b(bits);
  Rng rng(3);
  for (size_t i = 0; i < bits / 16; ++i) {
    a.Set(rng.Uniform(bits));
    b.Set(rng.Uniform(bits));
  }
  for (auto _ : state) {
    a.UnionWith(b);
    benchmark::DoNotOptimize(a);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * bits / 8);
}
BENCHMARK(BM_BitsetUnion)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_PwahCompress(benchmark::State& state) {
  const size_t bits = 1 << 18;
  Bitset b(bits);
  Rng rng(4);
  const double density = 1.0 / static_cast<double>(state.range(0));
  for (size_t i = 0; i < bits; ++i) {
    if (rng.Bernoulli(density)) b.Set(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(PwahBitset::Compress(b));
  }
}
BENCHMARK(BM_PwahCompress)->Arg(2)->Arg(64)->Arg(4096);

void BM_PwahTest(benchmark::State& state) {
  const size_t bits = 1 << 18;
  Bitset b(bits);
  Rng rng(5);
  for (size_t i = 0; i < bits / 64; ++i) b.Set(rng.Uniform(bits));
  PwahBitset compressed = PwahBitset::Compress(b);
  uint32_t probe = 0;
  for (auto _ : state) {
    probe = (probe + 7919) % bits;
    benchmark::DoNotOptimize(compressed.Test(probe));
  }
}
BENCHMARK(BM_PwahTest);

void BM_TransitiveClosure(benchmark::State& state) {
  Digraph g = RandomDag(static_cast<size_t>(state.range(0)),
                        static_cast<size_t>(state.range(0)) * 3, 6);
  for (auto _ : state) {
    auto tc = TransitiveClosure::Compute(g);
    benchmark::DoNotOptimize(tc);
  }
}
BENCHMARK(BM_TransitiveClosure)->Arg(500)->Arg(2000);

void BM_BuildDL(benchmark::State& state) {
  Digraph g = CitationDag(static_cast<size_t>(state.range(0)), 3.0, 7);
  for (auto _ : state) {
    DistributionLabelingOracle oracle;
    benchmark::DoNotOptimize(oracle.Build(g));
  }
}
BENCHMARK(BM_BuildDL)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_BuildHL(benchmark::State& state) {
  Digraph g = CitationDag(static_cast<size_t>(state.range(0)), 3.0, 7);
  for (auto _ : state) {
    HierarchicalLabelingOracle oracle;
    benchmark::DoNotOptimize(oracle.Build(g));
  }
}
BENCHMARK(BM_BuildHL)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_BuildGrail(benchmark::State& state) {
  Digraph g = CitationDag(static_cast<size_t>(state.range(0)), 3.0, 7);
  for (auto _ : state) {
    GrailOracle oracle;
    benchmark::DoNotOptimize(oracle.Build(g));
  }
}
BENCHMARK(BM_BuildGrail)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_QueryDL(benchmark::State& state) {
  Digraph g = CitationDag(20000, 3.0, 8);
  DistributionLabelingOracle oracle;
  if (!oracle.Build(g).ok()) {
    state.SkipWithError("build failed");
    return;
  }
  Rng rng(9);
  for (auto _ : state) {
    const Vertex u = static_cast<Vertex>(rng.Uniform(20000));
    const Vertex v = static_cast<Vertex>(rng.Uniform(20000));
    benchmark::DoNotOptimize(oracle.Reachable(u, v));
  }
}
BENCHMARK(BM_QueryDL);

}  // namespace

BENCHMARK_MAIN();
