#include "core/hierarchical_labeling.h"

#include <span>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "graph/generators.h"
#include "tests/test_util.h"

namespace reach {
namespace {

TEST(HierarchicalLabelingTest, RejectsCycles) {
  Digraph g = Digraph::FromEdges(2, {{0, 1}, {1, 0}});
  HierarchicalLabelingOracle oracle;
  EXPECT_TRUE(oracle.Build(g).IsInvalidArgument());
}

TEST(HierarchicalLabelingTest, CompleteOnSmallGraphs) {
  for (const auto& c : testing_util::SmallPropertyGraphs()) {
    HierarchicalLabelingOracle oracle;
    ASSERT_TRUE(oracle.Build(c.graph).ok()) << c.label;
    EXPECT_TRUE(testing_util::OracleMatchesClosure(oracle, c.graph))
        << c.label;
  }
}

TEST(HierarchicalLabelingTest, CompleteWithMultipleRealLevels) {
  // Force the hierarchy deep by shrinking the core threshold, so the
  // level-wise labeling path (not just the core labeler) is exercised.
  for (uint64_t seed = 61; seed <= 64; ++seed) {
    Digraph g = RandomDag(400, 1100, seed);
    HierarchicalOptions options;
    options.hierarchy.core_size_threshold = 16;
    HierarchicalLabelingOracle oracle(options);
    ASSERT_TRUE(oracle.Build(g).ok());
    EXPECT_GE(oracle.hierarchy().num_levels(), 2u) << "seed " << seed;
    EXPECT_TRUE(testing_util::OracleMatchesClosure(oracle, g))
        << "seed " << seed;
  }
}

TEST(HierarchicalLabelingTest, Epsilon1TfLabelVariant) {
  for (uint64_t seed = 71; seed <= 73; ++seed) {
    Digraph g = TreeLikeDag(300, 40, seed);
    HierarchicalOptions options = HierarchicalLabelingOracle::TfLabelOptions();
    options.hierarchy.core_size_threshold = 16;
    HierarchicalLabelingOracle oracle(options);
    EXPECT_EQ(oracle.name(), "TF");
    ASSERT_TRUE(oracle.Build(g).ok());
    EXPECT_TRUE(testing_util::OracleMatchesClosure(oracle, g))
        << "seed " << seed;
  }
}

TEST(HierarchicalLabelingTest, NeighborhoodCoreLabelerFallsBackSafely) {
  // A long chain has diameter far above epsilon: the Formula-3 labeler must
  // detect this and fall back to the distribution core labeler.
  Digraph g = ChainDag(50);
  HierarchicalOptions options;
  options.core_labeler = CoreLabeler::kNeighborhood;
  HierarchicalLabelingOracle oracle(options);
  ASSERT_TRUE(oracle.Build(g).ok());
  EXPECT_TRUE(testing_util::OracleMatchesClosure(oracle, g));
}

TEST(HierarchicalLabelingTest, NeighborhoodCoreLabelerOnShallowCore) {
  // Depth-1 star: diameter 1 <= epsilon, Formula 3 is complete by itself.
  GraphBuilder b(6);
  for (Vertex v = 1; v < 6; ++v) b.AddEdge(0, v);
  Digraph g = b.Build();
  HierarchicalOptions options;
  options.core_labeler = CoreLabeler::kNeighborhood;
  HierarchicalLabelingOracle oracle(options);
  ASSERT_TRUE(oracle.Build(g).ok());
  EXPECT_TRUE(testing_util::OracleMatchesClosure(oracle, g));
}

TEST(HierarchicalLabelingTest, PaperFigure1Example) {
  // Section 4's running example: the labeling must resolve, among others,
  // the worked pair facts around vertex 14 (Lin from backbone {7}, Lout
  // through backbone vertex 40).
  Digraph g = testing_util::PaperFigure1Graph();
  HierarchicalOptions options;
  options.hierarchy.core_size_threshold = 4;
  HierarchicalLabelingOracle oracle(options);
  ASSERT_TRUE(oracle.Build(g).ok());
  EXPECT_TRUE(testing_util::OracleMatchesClosure(oracle, g));
  // Spot checks from the figure: 7 -> 14 -> 29 -> 40, and 3 -> 7 -> 25 path.
  EXPECT_TRUE(oracle.Reachable(7, 14));
  EXPECT_TRUE(oracle.Reachable(14, 40));
  EXPECT_TRUE(oracle.Reachable(3, 25));
  EXPECT_FALSE(oracle.Reachable(40, 7));
  EXPECT_FALSE(oracle.Reachable(14, 7));
}

TEST(HierarchicalLabelingTest, MediumGraphSampledCorrectness) {
  for (const auto& c : testing_util::MediumPropertyGraphs()) {
    HierarchicalOptions options;
    options.hierarchy.core_size_threshold = 256;
    HierarchicalLabelingOracle oracle(options);
    ASSERT_TRUE(oracle.Build(c.graph).ok()) << c.label;
    EXPECT_TRUE(
        testing_util::OracleMatchesSampled(oracle, c.graph, 400, 98))
        << c.label;
  }
}

TEST(HierarchicalLabelingTest, LowerLevelVerticesOnlyRecordUpperHops) {
  // Paper Section 3: each vertex records hops of level >= its own level.
  Digraph g = RandomDag(800, 2400, 81);
  HierarchicalOptions options;
  options.hierarchy.core_size_threshold = 32;
  HierarchicalLabelingOracle oracle(options);
  ASSERT_TRUE(oracle.Build(g).ok());
  const Hierarchy& h = oracle.hierarchy();
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (uint32_t hop : oracle.labeling().Out(v)) {
      EXPECT_GE(h.LevelOf(hop), h.LevelOf(v))
          << "hop " << hop << " in Lout(" << v << ")";
    }
    for (uint32_t hop : oracle.labeling().In(v)) {
      EXPECT_GE(h.LevelOf(hop), h.LevelOf(v))
          << "hop " << hop << " in Lin(" << v << ")";
    }
  }
}

bool StrictlyAscending(std::span<const uint32_t> label) {
  for (size_t i = 1; i < label.size(); ++i) {
    if (label[i - 1] >= label[i]) return false;
  }
  return true;
}

TEST(HierarchicalLabelingTest, SealedLabelsAreStrictlyAscending) {
  // SortedIntersects needs every label sorted and duplicate-free. Label
  // assembly dedups each gather through a bitmap walk or a comparison sort
  // depending on how densely its keys fill their window, so the graphs mix
  // dense gathers (citation hubs) with sparse ones (tree-like leaves), and
  // the last case labels its whole (diameter-1) core by Formula 3.
  struct Case {
    std::string label;
    Digraph graph;
    HierarchicalOptions options;
  };
  HierarchicalOptions deep;
  deep.hierarchy.core_size_threshold = 64;
  HierarchicalOptions neighborhood_core;
  neighborhood_core.core_labeler = CoreLabeler::kNeighborhood;
  const std::vector<Case> cases = {
      {"citation", CitationDag(6000, 4.0, 91), deep},
      {"layered", LayeredDag(6000, 24, 3.0, 92), deep},
      {"tree_like", TreeLikeDag(6000, 600, 93), deep},
      {"dense_two_layer", DenseLayersDag(2, 300, 0.2, 94), neighborhood_core},
  };
  for (const auto& c : cases) {
    for (const int threads : {1, 4}) {
      HierarchicalLabelingOracle oracle(c.options);
      BuildOptions build;
      build.threads = threads;
      ASSERT_TRUE(oracle.Build(c.graph, build).ok()) << c.label;
      const LabelStore& labels = oracle.labeling();
      for (Vertex v = 0; v < c.graph.num_vertices(); ++v) {
        ASSERT_TRUE(StrictlyAscending(labels.Out(v)))
            << c.label << " threads=" << threads << " Lout(" << v << ")";
        ASSERT_TRUE(StrictlyAscending(labels.In(v)))
            << c.label << " threads=" << threads << " Lin(" << v << ")";
      }
      EXPECT_TRUE(testing_util::OracleMatchesSampled(oracle, c.graph, 400, 95))
          << c.label << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace reach
