// Tests for the Giraph comparator (in-memory BSP engine): correctness
// against references and agreement with the Vertexica engine.

#include <gtest/gtest.h>

#include <cmath>

#include "algorithms/connected_components.h"
#include "algorithms/label_propagation.h"
#include "algorithms/pagerank.h"
#include "algorithms/random_walk.h"
#include "algorithms/reference.h"
#include "algorithms/sssp.h"
#include "common/timer.h"
#include "giraph/bsp_engine.h"
#include "graphgen/generators.h"

namespace vertexica {
namespace {

TEST(BspEngineTest, PageRankMatchesReference) {
  Graph g = GenerateRmat(200, 1400, 51);
  PageRankProgram program(8);
  BspEngine engine(g, &program);
  ASSERT_TRUE(engine.Run().ok());
  auto expect = PageRankReference(g, 8);
  for (int64_t v = 0; v < g.num_vertices; ++v) {
    EXPECT_NEAR(engine.value(v), expect[static_cast<size_t>(v)], 1e-9);
  }
}

TEST(BspEngineTest, SsspMatchesDijkstra) {
  Graph g = GenerateRmat(150, 900, 52);
  AssignRandomWeights(&g, 1.0, 7.0, 53);
  ShortestPathProgram program(0);
  BspEngine engine(g, &program);
  GiraphStats stats;
  ASSERT_TRUE(engine.Run(&stats).ok());
  auto expect = DijkstraReference(g, 0);
  for (int64_t v = 0; v < g.num_vertices; ++v) {
    EXPECT_DOUBLE_EQ(engine.value(v), expect[static_cast<size_t>(v)]);
  }
  EXPECT_GT(stats.supersteps, 1);
}

TEST(BspEngineTest, ConnectedComponentsMatchUnionFind) {
  Graph g = GenerateErdosRenyi(200, 220, 54);
  ConnectedComponentsProgram program;
  const Graph bidir = g.WithReverseEdges();
  BspEngine engine(bidir, &program);
  ASSERT_TRUE(engine.Run().ok());
  auto expect = WccReference(g);
  for (int64_t v = 0; v < g.num_vertices; ++v) {
    EXPECT_EQ(static_cast<int64_t>(engine.value(v)),
              expect[static_cast<size_t>(v)]);
  }
}

TEST(BspEngineTest, AgreesWithVertexicaEngine) {
  Graph g = GenerateRmat(128, 700, 55);
  PageRankProgram program(6);
  BspEngine engine(g, &program);
  ASSERT_TRUE(engine.Run().ok());
  Catalog cat;
  auto vertexica_ranks = RunPageRank(&cat, g, 6);
  ASSERT_TRUE(vertexica_ranks.ok());
  for (int64_t v = 0; v < g.num_vertices; ++v) {
    EXPECT_NEAR(engine.value(v), (*vertexica_ranks)[static_cast<size_t>(v)],
                1e-9);
  }
}

TEST(BspEngineTest, CombinerOnOffSameResult) {
  Graph g = GenerateRmat(100, 600, 56);
  PageRankProgram p1(5);
  GiraphOptions no_comb;
  no_comb.use_combiner = false;
  BspEngine with(g, &p1);
  ASSERT_TRUE(with.Run().ok());
  PageRankProgram p2(5);
  BspEngine without(g, &p2, no_comb);
  ASSERT_TRUE(without.Run().ok());
  for (int64_t v = 0; v < g.num_vertices; ++v) {
    EXPECT_NEAR(with.value(v), without.value(v), 1e-9);
  }
}

TEST(BspEngineTest, WorkerCountInvariant) {
  Graph g = GenerateRmat(100, 600, 57);
  std::vector<double> base;
  for (int workers : {1, 2, 8}) {
    PageRankProgram program(5);
    GiraphOptions opts;
    opts.num_workers = workers;
    BspEngine engine(g, &program, opts);
    ASSERT_TRUE(engine.Run().ok());
    auto vals = engine.values();
    if (base.empty()) {
      base = vals;
    } else {
      for (size_t v = 0; v < base.size(); ++v) {
        EXPECT_NEAR(vals[v], base[v], 1e-9);
      }
    }
  }
}

TEST(BspEngineTest, StartupOverheadIsModeledNotSlept) {
  Graph g = GenerateRmat(64, 300, 58);
  PageRankProgram program(3);
  GiraphOptions opts;
  opts.startup_overhead_ms = 60000;  // a minute — must NOT actually sleep
  BspEngine engine(g, &program, opts);
  GiraphStats stats;
  WallTimer wall;
  ASSERT_TRUE(engine.Run(&stats).ok());
  EXPECT_LT(wall.ElapsedSeconds(), 10.0);  // real time stays small
  EXPECT_DOUBLE_EQ(stats.startup_seconds, 60.0);
  EXPECT_NEAR(stats.total_seconds, stats.compute_seconds + 60.0, 1e-9);
}

TEST(BspEngineTest, AggregatorVisibleAfterRun) {
  Graph g = GenerateRmat(64, 300, 59);
  PageRankProgram program(3);
  BspEngine engine(g, &program);
  ASSERT_TRUE(engine.Run().ok());
  auto it = engine.aggregates().find("pagerank_mass");
  ASSERT_NE(it, engine.aggregates().end());
  EXPECT_GT(it->second, 0.0);
}

TEST(BspEngineTest, LabelPropagationMatchesVertexica) {
  Graph g = GenerateRmat(80, 400, 61);
  const Graph bidir = g.WithReverseEdges();
  LabelPropagationProgram program(6);
  BspEngine engine(bidir, &program);
  ASSERT_TRUE(engine.Run().ok());
  Catalog cat;
  auto vx = RunLabelPropagation(&cat, g, 6);
  ASSERT_TRUE(vx.ok());
  for (int64_t v = 0; v < g.num_vertices; ++v) {
    EXPECT_EQ(static_cast<int64_t>(engine.value(v)),
              (*vx)[static_cast<size_t>(v)])
        << "vertex " << v;
  }
}

TEST(BspEngineTest, RandomWalkMatchesVertexica) {
  Graph g = GenerateRmat(90, 500, 62);
  RandomWalkWithRestartProgram program(2, 10, 0.15);
  BspEngine engine(g, &program);
  ASSERT_TRUE(engine.Run().ok());
  Catalog cat;
  auto vx = RunRandomWalkWithRestart(&cat, g, 2, 10, 0.15);
  ASSERT_TRUE(vx.ok());
  for (int64_t v = 0; v < g.num_vertices; ++v) {
    EXPECT_NEAR(engine.value(v), (*vx)[static_cast<size_t>(v)], 1e-9);
  }
}

TEST(BspEngineTest, MaxSuperstepsBounds) {
  Graph g = GenerateRmat(64, 300, 60);
  PageRankProgram program(1000);
  GiraphOptions opts;
  opts.max_supersteps = 4;
  BspEngine engine(g, &program, opts);
  GiraphStats stats;
  ASSERT_TRUE(engine.Run(&stats).ok());
  EXPECT_EQ(stats.supersteps, 4);
}

/// Sends each vertex one self-message plus messages to ids outside
/// [0, n); the summed payload it receives must be its own message only.
class OrphanSumProgram : public VertexProgram {
 public:
  int value_arity() const override { return 1; }
  int message_arity() const override { return 1; }
  void InitValue(int64_t, int64_t, double* v) const override { v[0] = 0; }
  void Compute(VertexContext* ctx) override {
    if (ctx->superstep() == 0) {
      ctx->SendMessage(999999, 1.0);  // past the last vertex
      ctx->SendMessage(ctx->vertex_id(), 1.0);
      ctx->SendMessage(-1, 1.0);  // below the first
      ctx->SendMessage(ctx->num_vertices(), 1.0);
    } else {
      double sum = 0.0;
      for (int64_t i = 0; i < ctx->num_messages(); ++i) {
        sum += ctx->GetMessage(i)[0];
      }
      ctx->ModifyVertexValue(sum);
    }
    if (ctx->superstep() >= 1) ctx->VoteToHalt();
  }
  MessageCombiner combiner() const override { return MessageCombiner::kSum; }
};

TEST(GiraphTest, OrphanMessagesAreDropped) {
  // As on Vertexica (CoordinatorEdgeCaseTest.OrphanMessagesAreDropped), a
  // message to a missing vertex is dropped at delivery — combined and
  // bucketed alike.
  Graph g;
  g.num_vertices = 3;
  g.AddEdge(0, 1);
  for (const bool use_combiner : {true, false}) {
    OrphanSumProgram program;
    GiraphOptions opts;
    opts.use_combiner = use_combiner;
    BspEngine engine(g, &program, opts);
    GiraphStats stats;
    ASSERT_TRUE(engine.Run(&stats).ok());
    for (int64_t v = 0; v < g.num_vertices; ++v) {
      EXPECT_DOUBLE_EQ(engine.value(v), 1.0)
          << "vertex " << v << ", combiner " << use_combiner;
    }
    EXPECT_EQ(stats.total_messages, 4 * g.num_vertices);
  }
}

}  // namespace
}  // namespace vertexica
