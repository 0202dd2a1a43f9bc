// Pruned level BFS (graph/level_bfs.h) vs the classic sequential pruned
// BFS it must reproduce. The contract under test: for any thread count and
// for both edge directions, the marked set and the admission sequence
// (vertex, depth, and order) equal the classic loop's.

#include "graph/level_bfs.h"

#include <cstdint>
#include <set>
#include <vector>

#include "gtest/gtest.h"

#include "graph/digraph.h"
#include "graph/generators.h"

namespace reach {
namespace {

struct Admission {
  Vertex v;
  uint32_t depth;
  bool operator==(const Admission& o) const {
    return v == o.v && depth == o.depth;
  }
};

struct TraversalResult {
  std::vector<Admission> admitted;  // In admission order.
  std::set<Vertex> marked;
};

/// The classic sequential pruned BFS the level-synchronous form must match
/// set-for-set: scan the queue, mark every undiscovered neighbor, admit and
/// expand the ones the prune predicate lets through.
template <typename PruneFn>
TraversalResult ClassicPrunedBfs(const Digraph& g, Vertex source,
                                 bool forward, PruneFn&& prune) {
  TraversalResult r;
  std::vector<bool> seen(g.num_vertices(), false);
  seen[source] = true;
  r.marked.insert(source);
  r.admitted.push_back({source, 0});
  std::vector<Vertex> frontier{source};
  std::vector<Vertex> next;
  for (uint32_t depth = 1; !frontier.empty(); ++depth) {
    next.clear();
    for (const Vertex v : frontier) {
      auto nbrs = forward ? g.OutNeighbors(v) : g.InNeighbors(v);
      for (const Vertex w : nbrs) {
        if (seen[w]) continue;
        seen[w] = true;
        r.marked.insert(w);
        if (prune(w, depth)) continue;
        r.admitted.push_back({w, depth});
        next.push_back(w);
      }
    }
    frontier.swap(next);
  }
  return r;
}

template <typename PruneFn>
TraversalResult RunLevelBfs(const Digraph& g, Vertex source, bool forward,
                            int threads, PruneFn&& prune) {
  TraversalResult r;
  std::vector<uint32_t> mark(g.num_vertices(), 0);
  LevelBfsScratch scratch;
  RunPrunedLevelBfs(
      g, source, forward, threads, &mark, /*epoch=*/1, prune,
      [&](Vertex v, uint32_t depth) { r.admitted.push_back({v, depth}); },
      &scratch);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (mark[v] == 1) r.marked.insert(v);
  }
  return r;
}

template <typename PruneFn>
void ExpectMatchesClassic(const Digraph& g, Vertex source, bool forward,
                          PruneFn&& prune, const char* label) {
  const TraversalResult ref = ClassicPrunedBfs(g, source, forward, prune);
  const TraversalResult t1 = RunLevelBfs(g, source, forward, 1, prune);
  const TraversalResult t2 = RunLevelBfs(g, source, forward, 2, prune);
  const TraversalResult t8 = RunLevelBfs(g, source, forward, 8, prune);
  // Exact sequence equality with the classic loop at every thread count —
  // the determinism the index builders rely on.
  for (const TraversalResult* t : {&t1, &t2, &t8}) {
    EXPECT_EQ(t->admitted, ref.admitted) << label;
    EXPECT_EQ(t->marked, ref.marked) << label;
  }
}

const auto kNoPrune = [](Vertex, uint32_t) { return false; };
// Any pure function of (v, depth) is a valid prune predicate.
const auto kPruneOddDeep = [](Vertex v, uint32_t depth) {
  return depth >= 2 && (v % 2) == 1;
};

TEST(LevelBfsTest, MatchesClassicOnSparseDags) {
  for (const uint64_t seed : {7u, 21u, 99u}) {
    const Digraph g = RandomDag(400, 1200, seed);
    ExpectMatchesClassic(g, 0, /*forward=*/true, kNoPrune, "sparse fwd");
    ExpectMatchesClassic(g, static_cast<Vertex>(g.num_vertices() - 1),
                         /*forward=*/false, kNoPrune, "sparse rev");
    ExpectMatchesClassic(g, 3, /*forward=*/true, kPruneOddDeep,
                         "sparse fwd pruned");
  }
}

/// A two-level broadcast: source 0 points at every hub; hub h owns a
/// *reversed* stripe of leaves (hub 1 the highest leaf ids, the last hub the
/// lowest), so discovery order at depth 2 is far from id order. The hub
/// frontier is past kLevelBfsParallelCutoff, so depth 2 takes the parallel
/// path when threads > 1.
Digraph BroadcastGraph() {
  const size_t kHubs = 2 * kLevelBfsParallelCutoff;
  const size_t kLeaves = 4 * kHubs;
  const size_t kStripe = kLeaves / kHubs;
  GraphBuilder b(1 + kHubs + kLeaves);
  for (size_t h = 0; h < kHubs; ++h) {
    b.AddEdge(0, static_cast<Vertex>(1 + h));
    for (size_t l = 0; l < kStripe; ++l) {
      const size_t leaf = (kHubs - 1 - h) * kStripe + l;
      b.AddEdge(static_cast<Vertex>(1 + h),
                static_cast<Vertex>(1 + kHubs + leaf));
    }
  }
  return b.Build();
}

TEST(LevelBfsTest, MatchesClassicOnDenseGraphs) {
  // Dense enough that middle frontiers pass the parallel cutoff.
  for (const uint64_t seed : {5u, 17u}) {
    const Digraph g = RandomDag(600, 24000, seed);
    ExpectMatchesClassic(g, 0, /*forward=*/true, kNoPrune, "dense fwd");
    ExpectMatchesClassic(g, static_cast<Vertex>(g.num_vertices() - 1),
                         /*forward=*/false, kNoPrune, "dense rev");
    ExpectMatchesClassic(g, 1, /*forward=*/true, kPruneOddDeep,
                         "dense fwd pruned");
  }
  const Digraph broadcast = BroadcastGraph();
  ExpectMatchesClassic(broadcast, 0, /*forward=*/true, kNoPrune,
                       "broadcast");
  ExpectMatchesClassic(broadcast, 0, /*forward=*/true, kPruneOddDeep,
                       "broadcast pruned");
}

TEST(LevelBfsTest, MatchesClassicOnCyclicGraphs) {
  // The traversal itself has no DAG requirement (call sites condense SCCs
  // first, but the kernel must not care).
  const Digraph g = RandomDigraphWithCycles(300, 3000, 60, 11);
  ExpectMatchesClassic(g, 0, /*forward=*/true, kNoPrune, "cyclic fwd");
  ExpectMatchesClassic(g, 7, /*forward=*/false, kPruneOddDeep,
                       "cyclic rev pruned");
}

}  // namespace
}  // namespace reach

