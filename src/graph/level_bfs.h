// Level-synchronous pruned BFS whose prune tests may run in parallel — the
// traversal used by the hop-distribution loops of Distribution Labeling and
// Pruned Landmark.
//
// A classic pruned BFS interleaves three effects while scanning its queue:
// it *marks* newly discovered vertices, *prunes* the ones the current labels
// already cover, and *admits* the rest (labels them and expands them). A
// level whose frontier is large enough to pay for a fork-join splits them
// into three passes:
//
//   1. Discover (sequential): scan the frontier's children, mark each
//      undiscovered one and list it, in classic discovery order.
//   2. Prune (parallel): evaluate prune(v, depth) once per listed vertex,
//      into a flag per list slot.
//   3. Admit (sequential): admit the unpruned vertices in list order; they
//      form the next frontier.
//
// Smaller levels, and every level at one thread, run the classic loop.
// prune(v, depth) is a pure function of state frozen at the previous depth,
// so evaluating a level's tests before its admissions changes nothing:
// every run marks, prunes and admits exactly what the classic loop does, in
// the classic order, for every thread count (build_determinism_test pins it
// end to end).
//
// Each discovered vertex is tested once. Listing candidates per frontier
// slot and testing them in parallel before a merge, instead, tests a vertex
// once per frontier parent; on the cit-Patents DL build at 4 threads that
// form took 711 ms to distribute against 548 for this one (median of 6
// alternated runs; 350 ms at one thread for both).
//
// The traversal is top-down only. A bottom-up (Beamer) level walks all n
// vertices, but a pruned BFS reaches only a small part of the graph: on
// the one-thread cit-Patents DL build, the 193 levels that switched walked
// 7.3M vertex slots and read 11.9M parent edges, where top-down expansion
// of the same levels reads 2.9M child edges. Removing the switch made that
// build's distribution about 17% faster.
//
// The prune predicate may run concurrently and must be read-only with
// respect to same-depth admissions for *other* vertices (both call sites
// qualify: DL's prune reads Lout(u)/Lin(hop), PL's reads Lout(hop)/Lin(u);
// an admission at the same depth only touches the admitted vertex's own
// label).

#ifndef REACH_GRAPH_LEVEL_BFS_H_
#define REACH_GRAPH_LEVEL_BFS_H_

#include <cstdint>
#include <vector>

#include "graph/digraph.h"
#include "util/thread_pool.h"

namespace reach {

/// Reusable buffers for RunPrunedLevelBfs; keep one per traversal owner to
/// amortize allocations across hops.
struct LevelBfsScratch {
  std::vector<Vertex> frontier;
  // A parallel level's discovered vertices, in discovery order, and
  // pruned[i] = prune(found[i], depth); the classic loop builds the next
  // frontier in `found`.
  std::vector<Vertex> found;
  std::vector<uint8_t> pruned;
};

/// Prune tests per parallel task.
inline constexpr size_t kLevelBfsGrain = 64;
/// Below this frontier size a level runs the classic loop: the fork-join
/// overhead would exceed the scan itself.
inline constexpr size_t kLevelBfsParallelCutoff = 2 * kLevelBfsGrain;

/// Pruned BFS from `source` over `g` (forward or reverse edges), marking
/// visits in `(*mark)[v] == epoch` (caller bumps `epoch` per traversal, as
/// in the epoch-mark idiom used across this library).
///
/// `prune(v, depth)` decides whether a newly discovered vertex is covered
/// already; it may run concurrently and must be read-only (see the file
/// comment for the exact aliasing requirement). `admit(v, depth)` runs
/// sequentially, for the source and every non-pruned vertex, in classic
/// BFS discovery order; admitted vertices are expanded, pruned ones are
/// marked but neither labeled nor expanded.
template <typename PruneFn, typename AdmitFn>
void RunPrunedLevelBfs(const Digraph& g, Vertex source, bool forward,
                       int threads, std::vector<uint32_t>* mark,
                       uint32_t epoch, PruneFn&& prune, AdmitFn&& admit,
                       LevelBfsScratch* scratch) {
  (*mark)[source] = epoch;
  admit(source, 0);

  std::vector<Vertex>& frontier = scratch->frontier;
  std::vector<Vertex>& found = scratch->found;
  std::vector<uint8_t>& pruned = scratch->pruned;
  frontier.clear();
  frontier.push_back(source);

  for (uint32_t depth = 1; !frontier.empty(); ++depth) {
    found.clear();
    if (threads > 1 && frontier.size() >= kLevelBfsParallelCutoff) {
      for (const Vertex v : frontier) {
        for (const Vertex w :
             forward ? g.OutNeighbors(v) : g.InNeighbors(v)) {
          if ((*mark)[w] == epoch) continue;
          (*mark)[w] = epoch;
          found.push_back(w);
        }
      }
      pruned.resize(found.size());
      ParallelFor(0, found.size(), kLevelBfsGrain, threads,
                  [&](size_t i) { pruned[i] = prune(found[i], depth); });
      frontier.clear();
      for (size_t i = 0; i < found.size(); ++i) {
        if (pruned[i]) continue;
        admit(found[i], depth);
        frontier.push_back(found[i]);
      }
    } else {
      for (const Vertex v : frontier) {
        for (const Vertex w :
             forward ? g.OutNeighbors(v) : g.InNeighbors(v)) {
          if ((*mark)[w] == epoch) continue;
          (*mark)[w] = epoch;
          if (prune(w, depth)) continue;
          admit(w, depth);
          found.push_back(w);
        }
      }
      frontier.swap(found);
    }
  }
}

}  // namespace reach

#endif  // REACH_GRAPH_LEVEL_BFS_H_
