// Tests for the Vertexica core: graph tables, the worker UDF, the
// coordinator superstep loop, and the §2.3 optimizations.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "algorithms/collaborative_filtering.h"
#include "algorithms/connected_components.h"
#include "algorithms/pagerank.h"
#include "algorithms/reference.h"
#include "algorithms/sssp.h"
#include "common/cache_sizing.h"
#include "common/exec_knobs.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/string_util.h"
#include "exec/aggregate.h"
#include "exec/kernel_stats.h"
#include "exec/parallel.h"
#include "graphgen/generators.h"
#include "storage/csr_index.h"
#include "vertexica/coordinator.h"
#include "vertexica/graph_tables.h"
#include "vertexica/worker.h"

namespace vertexica {
namespace {

// A tiny weighted digraph used across tests:
//   0 -> 1 (1), 0 -> 2 (4), 1 -> 2 (2), 2 -> 3 (1), 1 -> 3 (7)
Graph Diamond() {
  Graph g;
  g.num_vertices = 4;
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(0, 2, 4.0);
  g.AddEdge(1, 2, 2.0);
  g.AddEdge(2, 3, 1.0);
  g.AddEdge(1, 3, 7.0);
  return g;
}

TEST(GraphTablesTest, SchemasMatchPaperLayout) {
  Schema v = MakeVertexSchema(2);
  EXPECT_EQ(v.num_fields(), 4);  // id, halted, v0, v1
  EXPECT_EQ(v.field(0).name, "id");
  EXPECT_EQ(v.field(1).name, "halted");
  Schema e = MakeEdgeSchema();
  EXPECT_EQ(e.num_fields(), 3);  // src, dst, weight
  Schema m = MakeMessageSchema(1);
  EXPECT_EQ(m.num_fields(), 3);  // src (sender), dst (receiver), m0
}

TEST(GraphTablesTest, LoadCreatesThreeTables) {
  Catalog cat;
  PageRankProgram program(3);
  ASSERT_TRUE(LoadGraphTables(&cat, Diamond(), program).ok());
  EXPECT_EQ(*cat.RowCount("vertex"), 4);
  EXPECT_EQ(*cat.RowCount("edge"), 5);
  EXPECT_EQ(*cat.RowCount("message"), 0);
  auto vertex = *cat.GetTable("vertex");
  // Initial rank = 1/N, halted = false.
  EXPECT_DOUBLE_EQ(vertex->ColumnByName("v0")->GetDouble(0), 0.25);
  EXPECT_FALSE(vertex->ColumnByName("halted")->GetBool(0));
  auto edge = *cat.GetTable("edge");
  EXPECT_DOUBLE_EQ(edge->ColumnByName("weight")->GetDouble(1), 4.0);
}

TEST(GraphTablesTest, ReadVertexValuesDense) {
  Catalog cat;
  ShortestPathProgram program(0);
  ASSERT_TRUE(LoadGraphTables(&cat, Diamond(), program).ok());
  auto vals = ReadVertexValues(cat, {});
  ASSERT_TRUE(vals.ok());
  ASSERT_EQ(vals->size(), 4u);
  EXPECT_DOUBLE_EQ((*vals)[0], 0.0);
  EXPECT_TRUE(std::isinf((*vals)[1]));
}

TEST(GraphTablesTest, WithRowNumbers) {
  Table t(Schema({{"x", DataType::kInt64}}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{9})}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{8})}));
  Table seq = WithRowNumbers(t, "seq");
  EXPECT_EQ(seq.num_columns(), 2);
  EXPECT_EQ(seq.ColumnByName("seq")->GetInt64(0), 0);
  EXPECT_EQ(seq.ColumnByName("seq")->GetInt64(1), 1);
}

TEST(PageRankVertexCentricTest, MatchesReference) {
  Graph g = Diamond();
  Catalog cat;
  auto ranks = RunPageRank(&cat, g, /*iters=*/10);
  ASSERT_TRUE(ranks.ok()) << ranks.status().ToString();
  auto expect = PageRankReference(g, 10);
  ASSERT_EQ(ranks->size(), expect.size());
  for (size_t v = 0; v < expect.size(); ++v) {
    EXPECT_NEAR((*ranks)[v], expect[v], 1e-9) << "vertex " << v;
  }
}

TEST(PageRankVertexCentricTest, MatchesReferenceOnRandomGraph) {
  Graph g = GenerateRmat(200, 1500, 17);
  Catalog cat;
  auto ranks = RunPageRank(&cat, g, 8);
  ASSERT_TRUE(ranks.ok());
  auto expect = PageRankReference(g, 8);
  for (size_t v = 0; v < expect.size(); ++v) {
    EXPECT_NEAR((*ranks)[v], expect[v], 1e-9);
  }
}

TEST(PageRankVertexCentricTest, StatsRecordSupersteps) {
  Graph g = Diamond();
  Catalog cat;
  RunStats stats;
  auto ranks = RunPageRank(&cat, g, 5, 0.85, {}, &stats);
  ASSERT_TRUE(ranks.ok());
  // iterations 0..5 compute, then one final no-op check.
  EXPECT_EQ(stats.num_supersteps(), 6);
  EXPECT_GT(stats.total_messages, 0);
  EXPECT_EQ(stats.supersteps[0].active_vertices, 4);
}

TEST(PageRankVertexCentricTest, PhaseBreakdownSumsToStepTime) {
  Graph g = GenerateRmat(128, 900, 18);
  Catalog cat;
  RunStats stats;
  ASSERT_TRUE(RunPageRank(&cat, g, 4, 0.85, {}, &stats).ok());
  ASSERT_FALSE(stats.supersteps.empty());
  for (const auto& s : stats.supersteps) {
    const double phases = s.input_seconds + s.worker_seconds +
                          s.split_seconds + s.apply_seconds;
    EXPECT_GT(phases, 0.0);
    EXPECT_LE(phases, s.seconds * 1.05 + 1e-3);
    // The input build is timed apart from Compute.
    EXPECT_GT(s.input_seconds, 0.0) << "superstep " << s.superstep;
    EXPECT_GE(s.worker_seconds, 0.0);
    EXPECT_GT(s.input_rows, 0);
  }
}

TEST(SsspVertexCentricTest, MatchesDijkstra) {
  Graph g = Diamond();
  Catalog cat;
  auto dist = RunShortestPaths(&cat, g, 0);
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  auto expect = DijkstraReference(g, 0);
  ASSERT_EQ(dist->size(), expect.size());
  for (size_t v = 0; v < expect.size(); ++v) {
    EXPECT_DOUBLE_EQ((*dist)[v], expect[v]) << "vertex " << v;
  }
  EXPECT_DOUBLE_EQ((*dist)[3], 4.0);  // 0->1->2->3 = 1+2+1
}

TEST(SsspVertexCentricTest, UnreachableStaysInfinite) {
  Graph g;
  g.num_vertices = 3;
  g.AddEdge(0, 1, 1.0);
  Catalog cat;
  auto dist = RunShortestPaths(&cat, g, 0);
  ASSERT_TRUE(dist.ok());
  EXPECT_TRUE(std::isinf((*dist)[2]));
}

TEST(SsspVertexCentricTest, MessageDrivenHaltsEarly) {
  Graph g = Diamond();
  Catalog cat;
  RunStats stats;
  auto dist = RunShortestPaths(&cat, g, 0, {}, &stats);
  ASSERT_TRUE(dist.ok());
  // Diamond has diameter 3; the run should finish in a handful of
  // supersteps, not the max cap.
  EXPECT_LE(stats.num_supersteps(), 6);
}

TEST(OptimizationTest, JoinInputMatchesUnionInput) {
  Graph g = GenerateRmat(128, 800, 5);
  VertexicaOptions union_opts;
  union_opts.use_union_input = true;
  VertexicaOptions join_opts;
  join_opts.use_union_input = false;

  Catalog cat1;
  auto r1 = RunPageRank(&cat1, g, 5, 0.85, union_opts);
  Catalog cat2;
  auto r2 = RunPageRank(&cat2, g, 5, 0.85, join_opts);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  ASSERT_EQ(r1->size(), r2->size());
  for (size_t v = 0; v < r1->size(); ++v) {
    EXPECT_NEAR((*r1)[v], (*r2)[v], 1e-9);
  }
}

TEST(OptimizationTest, JoinInputMatchesUnionInputForSssp) {
  Graph g = GenerateRmat(128, 800, 6);
  AssignRandomWeights(&g, 1.0, 5.0, 7);
  VertexicaOptions join_opts;
  join_opts.use_union_input = false;
  Catalog cat1;
  auto d1 = RunShortestPaths(&cat1, g, 0);
  Catalog cat2;
  auto d2 = RunShortestPaths(&cat2, g, 0, join_opts);
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d2.ok());
  for (size_t v = 0; v < d1->size(); ++v) {
    EXPECT_DOUBLE_EQ((*d1)[v], (*d2)[v]);
  }
}

TEST(OptimizationTest, CombinerOnOffSameResult) {
  Graph g = GenerateRmat(128, 800, 8);
  VertexicaOptions no_comb;
  no_comb.use_combiner = false;
  Catalog cat1;
  auto r1 = RunPageRank(&cat1, g, 5);
  Catalog cat2;
  auto r2 = RunPageRank(&cat2, g, 5, 0.85, no_comb);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  for (size_t v = 0; v < r1->size(); ++v) {
    EXPECT_NEAR((*r1)[v], (*r2)[v], 1e-9);
  }
}

TEST(OptimizationTest, CombinerShrinksMessageTable) {
  Graph g = GenerateRmat(128, 2000, 9);
  VertexicaOptions with_comb;
  with_comb.use_combiner = true;
  VertexicaOptions no_comb;
  no_comb.use_combiner = false;
  Catalog cat1;
  RunStats s1;
  ASSERT_TRUE(RunPageRank(&cat1, g, 4, 0.85, with_comb, &s1).ok());
  Catalog cat2;
  RunStats s2;
  ASSERT_TRUE(RunPageRank(&cat2, g, 4, 0.85, no_comb, &s2).ok());
  EXPECT_LT(s1.total_messages, s2.total_messages);
}

TEST(OptimizationTest, UpdateVsReplaceSameResult) {
  Graph g = GenerateRmat(128, 900, 10);
  VertexicaOptions always_update;
  always_update.update_threshold = 1.1;  // always in-place
  VertexicaOptions always_replace;
  always_replace.update_threshold = 0.0;  // always rebuild
  Catalog cat1;
  auto r1 = RunPageRank(&cat1, g, 5, 0.85, always_update);
  Catalog cat2;
  auto r2 = RunPageRank(&cat2, g, 5, 0.85, always_replace);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  for (size_t v = 0; v < r1->size(); ++v) {
    EXPECT_NEAR((*r1)[v], (*r2)[v], 1e-9);
  }
}

TEST(OptimizationTest, ReplaceDecisionFollowsThreshold) {
  Graph g = Diamond();
  Catalog cat;
  RunStats stats;
  VertexicaOptions opts;
  opts.update_threshold = 0.0;  // force replace
  ASSERT_TRUE(RunPageRank(&cat, g, 3, 0.85, opts, &stats).ok());
  for (const auto& s : stats.supersteps) {
    if (s.vertex_updates > 0) {
      EXPECT_TRUE(s.used_replace);
    }
  }
  Catalog cat2;
  RunStats stats2;
  opts.update_threshold = 1.1;  // force in-place
  ASSERT_TRUE(RunPageRank(&cat2, g, 3, 0.85, opts, &stats2).ok());
  for (const auto& s : stats2.supersteps) {
    EXPECT_FALSE(s.used_replace);
  }
}

TEST(OptimizationTest, WorkerAndPartitionCountsDontChangeResults) {
  Graph g = GenerateRmat(128, 700, 11);
  std::vector<double> base;
  for (int workers : {1, 2, 4}) {
    for (int partitions : {0, 1, 8}) {
      VertexicaOptions opts;
      opts.num_workers = workers;
      opts.num_partitions = partitions;
      Catalog cat;
      auto r = RunPageRank(&cat, g, 4, 0.85, opts);
      ASSERT_TRUE(r.ok());
      if (base.empty()) {
        base = *r;
      } else {
        for (size_t v = 0; v < base.size(); ++v) {
          EXPECT_NEAR((*r)[v], base[v], 1e-9);
        }
      }
    }
  }
}

TEST(CoordinatorTest, AggregatorTracksRankMass) {
  Graph g = GenerateRmat(100, 600, 12);
  PageRankProgram program(4);
  Catalog cat;
  ASSERT_TRUE(LoadGraphTables(&cat, g, program).ok());
  Coordinator coord(&cat, &program);
  ASSERT_TRUE(coord.Run().ok());
  // Total rank mass stays near 1 (dangling vertices leak a little).
  auto it = coord.aggregates().find("pagerank_mass");
  ASSERT_NE(it, coord.aggregates().end());
  EXPECT_GT(it->second, 0.3);
  EXPECT_LE(it->second, 1.01);
}

TEST(CoordinatorTest, MaxSuperstepsBounds) {
  Graph g = Diamond();
  PageRankProgram program(1000);  // would run long
  Catalog cat;
  ASSERT_TRUE(LoadGraphTables(&cat, g, program).ok());
  VertexicaOptions opts;
  opts.max_supersteps = 3;
  RunStats stats;
  Coordinator coord(&cat, &program, opts);
  ASSERT_TRUE(coord.Run(&stats).ok());
  EXPECT_EQ(stats.num_supersteps(), 3);
}

TEST(CoordinatorTest, EmptyGraphTerminatesImmediately) {
  Graph g;
  g.num_vertices = 3;  // no edges
  Catalog cat;
  auto dist = RunShortestPaths(&cat, g, 0);
  ASSERT_TRUE(dist.ok());
  EXPECT_DOUBLE_EQ((*dist)[0], 0.0);
  EXPECT_TRUE(std::isinf((*dist)[1]));
}

TEST(WorkerTest, RunnerSkipsInactiveVertex) {
  PageRankProgram program(2);
  WorkerSharedState shared;
  shared.program = &program;
  shared.superstep = 1;  // not superstep 0
  shared.num_vertices = 10;
  std::map<std::string, double> prev;
  shared.prev_aggregates = &prev;

  VertexRunner runner(&shared);
  WorkerSink out(1, 1);
  const double value = 0.1;
  runner.BeginVertex(5, /*halted=*/true, &value);  // halted, no messages
  EXPECT_FALSE(runner.FinishVertex(&out));
  EXPECT_EQ(out.active, 0);
  EXPECT_TRUE(out.update_id.empty());
  EXPECT_TRUE(out.messages.dst.empty());
}

TEST(WorkerTest, RunnerReactivatesOnMessage) {
  ShortestPathProgram program(0);
  WorkerSharedState shared;
  shared.program = &program;
  shared.superstep = 2;
  shared.num_vertices = 10;
  std::map<std::string, double> prev;
  shared.prev_aggregates = &prev;

  VertexRunner runner(&shared);
  WorkerSink out(1, 1);
  const double inf = std::numeric_limits<double>::infinity();
  runner.BeginVertex(5, /*halted=*/true, &inf);
  const int64_t edge_dst = 6;
  const double edge_weight = 1.0;
  runner.SetEdges(&edge_dst, &edge_weight, 1);
  const double msg = 3.0;
  runner.AddMessage(&msg);
  EXPECT_TRUE(runner.FinishVertex(&out));
  EXPECT_EQ(out.active, 1);
  // One state update + one relaxation message to vertex 6.
  ASSERT_EQ(out.update_id.size(), 1u);
  EXPECT_EQ(out.update_id[0], 5);
  EXPECT_DOUBLE_EQ(out.update_values[0][0], 3.0);
  ASSERT_EQ(out.messages.dst.size(), 1u);
  EXPECT_EQ(out.messages.src[0], 5);
  EXPECT_EQ(out.messages.dst[0], 6);
  EXPECT_DOUBLE_EQ(out.messages.values[0][0], 4.0);
}

/// Arity-2 program whose sends mix SendMessage and
/// SendMessageToAllNeighbors, each with distinct payloads.
class TwoColumnSendProgram : public VertexProgram {
 public:
  int value_arity() const override { return 1; }
  int message_arity() const override { return 2; }
  void InitValue(int64_t, int64_t, double* v) const override { v[0] = 0; }
  void Compute(VertexContext* ctx) override {
    const double first[2] = {1.0, -1.0};
    ctx->SendMessage(100, first);
    const double all[2] = {2.0, -2.0};
    ctx->SendMessageToAllNeighbors(all);
    const double last[2] = {3.0, ctx->OutEdgeWeight(1)};
    ctx->SendMessage(ctx->OutEdgeTarget(0), last);
  }
};

TEST(WorkerTest, SendsLandInTheSinkInCallOrder) {
  TwoColumnSendProgram program;
  const std::vector<int64_t> edge_dst = {7, 8, 9};
  const std::vector<double> edge_weight = {0.5, 0.25, 0.125};
  for (const bool write_src : {true, false}) {
    WorkerSharedState shared;
    shared.program = &program;
    shared.num_vertices = 10;
    std::map<std::string, double> prev;
    shared.prev_aggregates = &prev;
    // The default records senders; a combining run turns it off.
    if (!write_src) shared.write_message_src = false;

    VertexRunner runner(&shared);
    WorkerSink out(1, 2);
    const double value = 0.0;
    runner.BeginVertex(4, /*halted=*/false, &value);
    runner.SetEdges(edge_dst.data(), edge_weight.data(), 3);
    ASSERT_TRUE(runner.FinishVertex(&out));
    // A second vertex's sends append after the first one's.
    const std::vector<int64_t> two = {9, 2};
    const std::vector<double> two_w = {0.125, 4.0};
    runner.BeginVertex(5, /*halted=*/false, &value);
    runner.SetEdges(two.data(), two_w.data(), 2);
    ASSERT_TRUE(runner.FinishVertex(&out));
    EXPECT_EQ(out.active, 2);

    EXPECT_EQ(out.messages.dst,
              (std::vector<int64_t>{100, 7, 8, 9, 7, 100, 9, 2, 9}));
    ASSERT_EQ(out.messages.values.size(), 2u);
    EXPECT_EQ(out.messages.values[0],
              (std::vector<double>{1, 2, 2, 2, 3, 1, 2, 2, 3}));
    EXPECT_EQ(out.messages.values[1],
              (std::vector<double>{-1, -2, -2, -2, 0.25, -1, -2, -2, 4.0}));
    if (write_src) {
      EXPECT_EQ(out.messages.src,
                (std::vector<int64_t>{4, 4, 4, 4, 4, 5, 5, 5, 5}));
    } else {
      EXPECT_TRUE(out.messages.src.empty());
    }
  }
}

// ---------------------------------------------------------------------------
// Edge spans: a loader-built edge table is sorted by src, so Compute reads
// each vertex's out-edges in place; any other row order makes the union
// worker gather them. Both must give the reference answers.
// ---------------------------------------------------------------------------

/// Replaces the stored edge table with a seeded shuffle of its rows. The
/// edge CsrIndex is then a permutation, so the union worker gathers every
/// vertex's out-edges into scratch.
void ShuffleEdgeRows(Catalog* cat, uint64_t seed) {
  auto edge = cat->GetTable("edge");
  ASSERT_TRUE(edge.ok());
  std::vector<int64_t> rows(static_cast<size_t>((*edge)->num_rows()));
  std::iota(rows.begin(), rows.end(), int64_t{0});
  Rng rng(seed);
  for (size_t i = rows.size(); i > 1; --i) {
    std::swap(rows[i - 1], rows[rng.Uniform(i)]);
  }
  Table shuffled = (*edge)->Take(rows);
  const auto index = CsrIndex::Build(*shuffled.ColumnByName("src"));
  ASSERT_NE(index, nullptr);
  ASSERT_FALSE(index->identity_order());
  ASSERT_TRUE(cat->ReplaceTable("edge", std::move(shuffled)).ok());
}

TEST(EdgeSpanTest, GatheredEdgesGiveDijkstraDistances) {
  Graph g = GenerateRmat(300, 2400, 71);
  AssignRandomWeights(&g, 1.0, 9.0, 72);
  const std::vector<double> expect = DijkstraReference(g, 0);
  for (const int threads : {1, 4}) {
    ExecKnobs knobs = ExecKnobs::Current();
    knobs.threads = threads;
    ScopedExecKnobs scoped(knobs);
    ShortestPathProgram program(0);
    Catalog cat;
    ASSERT_TRUE(LoadGraphTables(&cat, g, program).ok());
    ShuffleEdgeRows(&cat, 73);
    Coordinator coord(&cat, &program);
    ASSERT_TRUE(coord.Run().ok());
    auto dist = ReadVertexValues(cat, {});
    ASSERT_TRUE(dist.ok());
    EXPECT_EQ(*dist, expect) << "threads " << threads;
  }
}

TEST(EdgeSpanTest, GatheredEdgesAreBitIdenticalAcrossThreads) {
  // Collaborative filtering sends (k + 1)-column messages and sums them,
  // so any change in a vertex's edge order or send order shows in the bits.
  const Graph ratings = GenerateBipartite(30, 20, 300, 74).WithReverseEdges();
  const int k = 3;
  std::vector<std::vector<double>> first;
  for (const int threads : {1, 4}) {
    ExecKnobs knobs = ExecKnobs::Current();
    knobs.threads = threads;
    ScopedExecKnobs scoped(knobs);
    CollaborativeFilteringProgram program(k, 6);
    Catalog cat;
    ASSERT_TRUE(LoadGraphTables(&cat, ratings, program).ok());
    ShuffleEdgeRows(&cat, 75);
    Coordinator coord(&cat, &program);
    ASSERT_TRUE(coord.Run().ok());
    std::vector<std::vector<double>> factors;
    for (int c = 0; c < k; ++c) {
      auto values = ReadVertexValues(cat, {}, c);
      ASSERT_TRUE(values.ok());
      factors.push_back(std::move(*values));
    }
    if (first.empty()) {
      first = factors;
      continue;
    }
    for (int c = 0; c < k; ++c) {
      const auto& a = first[static_cast<size_t>(c)];
      const auto& b = factors[static_cast<size_t>(c)];
      ASSERT_EQ(a.size(), b.size());
      EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double)))
          << "factor " << c << ", threads " << threads;
    }
  }
}

TEST(EdgeSpanTest, StoredMessageSrcIsTheSenderOnlyWithoutCombiner) {
  // One PageRank superstep leaves one message per edge in the stored
  // message table. Uncombined, its (src, dst) pairs are exactly the edges;
  // combined, the senders are folded away and every src is -1.
  const Graph g = GenerateRmat(100, 600, 76);
  std::multiset<std::pair<int64_t, int64_t>> edges;
  for (size_t e = 0; e < g.src.size(); ++e) edges.emplace(g.src[e], g.dst[e]);
  for (const bool use_combiner : {false, true}) {
    PageRankProgram program(5);
    Catalog cat;
    ASSERT_TRUE(LoadGraphTables(&cat, g, program).ok());
    VertexicaOptions opts;
    opts.use_combiner = use_combiner;
    opts.max_supersteps = 1;
    Coordinator coord(&cat, &program, opts);
    ASSERT_TRUE(coord.Run().ok());
    auto message = cat.GetTable("message");
    ASSERT_TRUE(message.ok());
    const std::vector<int64_t>& src = (*message)->ColumnByName("src")->ints();
    const std::vector<int64_t>& dst = (*message)->ColumnByName("dst")->ints();
    ASSERT_EQ(src.size(), dst.size());
    const std::string where =
        StringFormat("combiner %d", use_combiner ? 1 : 0);
    if (use_combiner) {
      EXPECT_TRUE(std::all_of(src.begin(), src.end(),
                              [](int64_t s) { return s == -1; }))
          << where;
      EXPECT_EQ(std::set<int64_t>(dst.begin(), dst.end()).size(), dst.size())
          << where;
    } else {
      std::multiset<std::pair<int64_t, int64_t>> sent;
      for (size_t m = 0; m < src.size(); ++m) sent.emplace(src[m], dst[m]);
      EXPECT_EQ(sent, edges) << where;
    }
  }
}

// ---------------------------------------------------------------------------
// Join-input superstep joins: the vertex ⟕ message ⟕ edge plan runs as two
// hash joins per superstep.
// ---------------------------------------------------------------------------

TEST(OptimizationTest, JoinInputRunsTwoHashJoinsPerSuperstep) {
  Graph g = GenerateRmat(128, 800, 11);
  VertexicaOptions opts;
  opts.use_union_input = false;
  opts.update_threshold = 2.0;  // always in-place: no rebuild-path joins
  Catalog cat;
  RunStats stats;
  auto r = RunPageRank(&cat, g, 5, 0.85, opts, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GT(stats.supersteps.size(), 1u);
  for (const SuperstepStats& s : stats.supersteps) {
    // BuildJoinInput's vertex ⟕ message and ⟕ edge joins.
    EXPECT_EQ(s.hash_joins, 2) << "superstep " << s.superstep;
    EXPECT_EQ(s.merge_joins, 0) << "superstep " << s.superstep;
    EXPECT_GT(s.join_rows, 0) << "superstep " << s.superstep;
  }
}

/// One run's per-superstep join counters: hash joins and rows emitted.
struct StepJoins {
  std::vector<int64_t> joins;
  std::vector<int64_t> rows;
};

StepJoins StepJoinsOf(const RunStats& stats) {
  StepJoins out;
  for (const SuperstepStats& s : stats.supersteps) {
    out.joins.push_back(s.hash_joins);
    out.rows.push_back(s.join_rows);
  }
  return out;
}

/// A join-input PageRank run under `knobs`; its per-superstep join counters.
StepJoins JoinInputPageRank(const Graph& g, const ExecKnobs& knobs) {
  ScopedExecKnobs scope(knobs);
  VertexicaOptions opts;
  opts.use_union_input = false;
  Catalog cat;
  RunStats stats;
  const auto r = RunPageRank(&cat, g, 5, 0.85, opts, &stats);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return StepJoinsOf(stats);
}

TEST(OptimizationTest, SuperstepJoinCountersMatchAcrossThreads) {
  // Each superstep counts into its own block, which the pool carries into
  // every task. Neither the join count nor the rows the joins emit depend
  // on how the work is spread.
  const Graph g = GenerateRmat(256, 2000, 5);
  StepJoins first;
  for (const int threads : {1, 8}) {
    ExecKnobs knobs = ExecKnobs::Current();
    knobs.threads = threads;
    const StepJoins got = JoinInputPageRank(g, knobs);
    ASSERT_GT(got.joins.size(), 1u);
    const std::string where = StringFormat("threads=%d", threads);
    for (size_t i = 0; i < got.joins.size(); ++i) {
      EXPECT_GE(got.joins[i], 2) << where << " superstep " << i;
      EXPECT_GT(got.rows[i], 0) << where << " superstep " << i;
    }
    if (first.joins.empty()) first = got;
    EXPECT_EQ(got.joins, first.joins) << where;
    EXPECT_EQ(got.rows, first.rows) << where;
  }
}

TEST(OptimizationTest, ConcurrentRunsSharingOneBlockKeepTheirOwnJoinCounts) {
  // Two runs share the caller's counter block. Each superstep counts into
  // its own block and adds it to the caller's afterwards, so each run's
  // SuperstepStats equal its solo run's, and the shared block holds the
  // sum of the two solo blocks.
  const Graph graphs[2] = {GenerateRmat(256, 2000, 5),
                           GenerateRmat(200, 1200, 9)};
  ExecKnobs knobs = ExecKnobs::Current();
  knobs.threads = 4;
  const auto deterministic = [](const KernelStats& block) {
    const KernelStatsSnapshot s = Snapshot(block);
    return std::vector<int64_t>{s.bytes_materialized, s.fused_batches,
                                s.legacy_batches,     s.batch_hash_rows,
                                s.hash_joins,         s.hash_rows,
                                s.ranges_checked,     s.ranges_pruned,
                                s.rows_pruned};
  };

  KernelStats solo_blocks[2];
  StepJoins solo[2];
  std::vector<int64_t> sum(9, 0);
  for (int i = 0; i < 2; ++i) {
    ExecKnobs own = knobs;
    own.kernel_stats = &solo_blocks[i];
    solo[i] = JoinInputPageRank(graphs[i], own);
    int64_t joins = 0;
    for (const int64_t j : solo[i].joins) joins += j;
    EXPECT_GT(joins, 0) << "run " << i;
    EXPECT_EQ(Snapshot(solo_blocks[i]).hash_joins, joins) << "run " << i;
    const std::vector<int64_t> counts = deterministic(solo_blocks[i]);
    for (size_t f = 0; f < sum.size(); ++f) sum[f] += counts[f];
  }
  EXPECT_NE(solo[0].rows, solo[1].rows);

  KernelStats shared;
  knobs.kernel_stats = &shared;
  StepJoins concurrent[2];
  std::atomic<int> arrived{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] {
      arrived.fetch_add(1);
      while (arrived.load() < 2) std::this_thread::yield();
      concurrent[i] = JoinInputPageRank(graphs[i], knobs);
    });
  }
  for (std::thread& th : threads) th.join();
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(concurrent[i].joins, solo[i].joins) << "run " << i;
    EXPECT_EQ(concurrent[i].rows, solo[i].rows) << "run " << i;
  }
  EXPECT_EQ(deterministic(shared), sum);
}

TEST(OptimizationTest, JoinInputReplacePathMatchesInPlace) {
  // update_threshold = 0 forces the rebuild path every superstep; the
  // coordinator re-sorts the rebuilt vertex table by id, and results
  // still match the in-place path.
  Graph g = GenerateRmat(64, 400, 13);
  VertexicaOptions replace_opts;
  replace_opts.use_union_input = false;
  replace_opts.update_threshold = 0.0;
  Catalog cat1;
  RunStats s1;
  auto r1 = RunPageRank(&cat1, g, 4, 0.85, replace_opts, &s1);
  VertexicaOptions inplace_opts;
  inplace_opts.use_union_input = false;
  inplace_opts.update_threshold = 2.0;
  Catalog cat2;
  auto r2 = RunPageRank(&cat2, g, 4, 0.85, inplace_opts);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  for (size_t v = 0; v < r1->size(); ++v) {
    EXPECT_EQ((*r1)[v], (*r2)[v]) << "vertex " << v;
  }
  for (const SuperstepStats& s : s1.supersteps) {
    // The two input joins, plus the rebuild's anti join when it ran.
    EXPECT_EQ(s.hash_joins, 2 + (s.used_replace ? 1 : 0))
        << "superstep " << s.superstep;
  }
}

// ---------------------------------------------------------------------------
// Active-vertex frontier supersteps (common/exec_knobs.h): the worker input is
// gathered from a bitvector of non-halted vertices and message receivers
// plus CSR edge slices instead of full scans. The contract under test:
// bit-identical to the dense path at any mode × thread count, on both input
// paths.
// ---------------------------------------------------------------------------

Graph ChainGraph(int64_t n) {
  Graph g;
  g.num_vertices = n;
  for (int64_t v = 0; v + 1 < n; ++v) g.AddEdge(v, v + 1, 1.0);
  return g;
}

TEST(FrontierTest, PageRankBitIdenticalAcrossModes) {
  Graph g = GenerateRmat(200, 1500, 31);
  for (const bool union_input : {true, false}) {
    VertexicaOptions opts;
    opts.use_union_input = union_input;
    // In-place updates preserve the vertex table's declared id order — the
    // frontier's structural precondition — on both input paths. (PageRank
    // updates every vertex, so the default threshold would take the
    // replace path, whose union-path rebuild legitimately goes dense.)
    opts.update_threshold = 2.0;
    Catalog cat0;
    std::vector<double> dense;
    {
      ExecKnobs knobs = ExecKnobs::Current();
      knobs.frontier = FrontierMode::kOff;
      ScopedExecKnobs off(knobs);
      auto r = RunPageRank(&cat0, g, 6, 0.85, opts);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      dense = *r;
    }
    for (const FrontierMode mode : {FrontierMode::kOn, FrontierMode::kAuto}) {
      ExecKnobs knobs = ExecKnobs::Current();
      knobs.frontier = mode;
      ScopedExecKnobs scoped(knobs);
      Catalog cat;
      RunStats stats;
      auto r = RunPageRank(&cat, g, 6, 0.85, opts, &stats);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_EQ(r->size(), dense.size());
      for (size_t v = 0; v < dense.size(); ++v) {
        EXPECT_EQ((*r)[v], dense[v])
            << (union_input ? "union" : "join") << " input, mode="
            << FrontierModeName(mode) << ", vertex " << v;
      }
      EXPECT_EQ(stats.frontier_supersteps + stats.dense_supersteps,
                static_cast<int64_t>(stats.supersteps.size()));
      if (mode == FrontierMode::kOn) {
        // Forced mode: every superstep past the first takes the sparse
        // path (superstep 0 is dense by definition).
        for (const SuperstepStats& s : stats.supersteps) {
          EXPECT_EQ(s.used_frontier, s.superstep > 0)
              << (union_input ? "union" : "join") << " input, superstep "
              << s.superstep;
        }
        EXPECT_GT(stats.frontier_supersteps, 0);
      }
    }
  }
}

TEST(FrontierTest, SsspBitIdenticalAcrossModesAndThreads) {
  Graph g = GenerateRmat(150, 900, 32);
  AssignRandomWeights(&g, 1.0, 5.0, 33);
  Catalog cat0;
  std::vector<double> dense;
  {
    ExecKnobs knobs = ExecKnobs::Current();
    knobs.frontier = FrontierMode::kOff;
    ScopedExecKnobs off(knobs);
    auto r = RunShortestPaths(&cat0, g, 0);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    dense = *r;
  }
  for (const FrontierMode mode : {FrontierMode::kOn, FrontierMode::kAuto}) {
    ExecKnobs knobs = ExecKnobs::Current();
    knobs.frontier = mode;
    ScopedExecKnobs scoped(knobs);
    Catalog cat;
    auto r = RunShortestPaths(&cat, g, 0);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->size(), dense.size());
    for (size_t v = 0; v < dense.size(); ++v) {
      EXPECT_EQ((*r)[v], dense[v])
          << "mode=" << FrontierModeName(mode) << ", vertex " << v;
    }
  }
  for (const int threads : {1, 4}) {
    ExecKnobs knobs = ExecKnobs::Current();
    knobs.threads = threads;
    knobs.frontier = FrontierMode::kOn;
    ScopedExecKnobs scoped_threads(knobs);
    Catalog cat;
    auto r = RunShortestPaths(&cat, g, 0);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    for (size_t v = 0; v < dense.size(); ++v) {
      EXPECT_EQ((*r)[v], dense[v])
          << "threads=" << threads << ", vertex " << v;
    }
  }
}

TEST(FrontierTest, AutoModeGoesSparseOnLongTail) {
  // SSSP on a chain: after superstep 0 every vertex is halted and exactly
  // one message is in flight, so the active fraction is 1/n — far below
  // the auto threshold. `auto` must take the sparse path on its own and
  // report it.
  Graph g = ChainGraph(100);
  ExecKnobs knobs = ExecKnobs::Current();
  knobs.frontier = FrontierMode::kAuto;
  ScopedExecKnobs automatic(knobs);
  Catalog cat;
  RunStats stats;
  auto r = RunShortestPaths(&cat, g, 0, {}, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  for (size_t v = 0; v < r->size(); ++v) {
    EXPECT_DOUBLE_EQ((*r)[v], static_cast<double>(v));
  }
  ASSERT_GT(stats.supersteps.size(), 2u);
  EXPECT_FALSE(stats.supersteps[0].used_frontier);  // superstep 0 is dense
  EXPECT_GT(stats.frontier_supersteps, 0);
  for (const SuperstepStats& s : stats.supersteps) {
    if (!s.used_frontier) continue;
    // The chain frontier is one receiver (plus no stragglers).
    EXPECT_GE(s.frontier_vertices, 1) << "superstep " << s.superstep;
    EXPECT_LE(s.frontier_vertices, 2) << "superstep " << s.superstep;
  }
  EXPECT_EQ(stats.frontier_supersteps + stats.dense_supersteps,
            static_cast<int64_t>(stats.supersteps.size()));
  const std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"frontier_supersteps\":"), std::string::npos);
  EXPECT_NE(json.find("\"used_frontier\":true"), std::string::npos);
  EXPECT_NE(json.find("\"frontier_vertices\":"), std::string::npos);
}

TEST(FrontierTest, OffModeNeverTakesTheSparsePath) {
  Graph g = ChainGraph(50);
  ExecKnobs knobs = ExecKnobs::Current();
  knobs.frontier = FrontierMode::kOff;
  ScopedExecKnobs off(knobs);
  Catalog cat;
  RunStats stats;
  auto r = RunShortestPaths(&cat, g, 0, {}, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(stats.frontier_supersteps, 0);
  EXPECT_EQ(stats.dense_supersteps,
            static_cast<int64_t>(stats.supersteps.size()));
  for (const SuperstepStats& s : stats.supersteps) {
    EXPECT_FALSE(s.used_frontier);
    EXPECT_EQ(s.frontier_vertices, 0);
  }
}

TEST(WorkerTest, RunnerRecordsOnlyRealStateChanges) {
  // An active vertex whose Compute neither modifies its value nor changes
  // its halted flag counts as active but produces no update.
  ShortestPathProgram program(0);
  WorkerSharedState shared;
  shared.program = &program;
  shared.superstep = 3;
  shared.num_vertices = 10;
  std::map<std::string, double> prev;
  shared.prev_aggregates = &prev;

  VertexRunner runner(&shared);
  WorkerSink out(1, 1);
  const double dist = 2.0;
  runner.BeginVertex(4, /*halted=*/true, &dist);
  const double longer = 9.0;  // no improvement: stays halted, unchanged
  runner.AddMessage(&longer);
  EXPECT_TRUE(runner.FinishVertex(&out));
  EXPECT_EQ(out.active, 1);
  EXPECT_TRUE(out.update_id.empty());
  EXPECT_TRUE(out.messages.dst.empty());
}

TEST(InvariantAuditTest, CatalogTablesPassDeepAuditAfterRuns) {
  // End-to-end audit coverage: the tables a finished run publishes —
  // sort-order declarations, segment encodings, zone maps included — must
  // withstand the same CheckInvariants the VX_DCHECK tier applies at every
  // phase boundary.
  Graph g = GenerateRmat(120, 600, 17);
  Catalog cat;
  ASSERT_TRUE(RunPageRank(&cat, g, 6).ok());
  for (const char* const name : {"vertex", "edge", "message"}) {
    auto table = cat.GetTable(name);
    ASSERT_TRUE(table.ok()) << name;
    const Status st = (*table)->CheckInvariants();
    EXPECT_TRUE(st.ok()) << name << ": " << st.ToString();
  }
}

// ---------------------------------------------------------------------------
// Golden pins. Digests of every vertex value, every aggregator and every
// deterministic per-superstep counter of four programs (one of them
// aggregator-driven, one with multi-column values and messages) on two
// seeded graphs, over both worker inputs and both frontier modes. The
// expected digests were recorded from the partition-and-sort worker
// dataflow the in-place driver replaced; every physical path (threads,
// encoding, vectorized) must reproduce them bit for bit, so this is the one check of bit-identity against that earlier code
// rather than against itself.
// ---------------------------------------------------------------------------

uint64_t Fnv1a(uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h ^ 0xff;  // field separator
}

std::string GoldenDigest(const Graph& g, VertexProgram* program,
                         bool union_input, FrontierMode mode) {
  ExecKnobs knobs = ExecKnobs::Current();
  knobs.frontier = mode;
  ScopedExecKnobs scoped(knobs);
  Catalog cat;
  VertexicaOptions opts;
  opts.use_union_input = union_input;
  RunStats stats;
  EXPECT_TRUE(LoadGraphTables(&cat, g, *program).ok());
  Coordinator coord(&cat, program, opts);
  const Status st = coord.Run(&stats);
  EXPECT_TRUE(st.ok()) << st.ToString();
  uint64_t h = 14695981039346656037ull;
  const auto add = [&h](double d) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    h = Fnv1a(h, buf);
  };
  for (int c = 0; c < program->value_arity(); ++c) {
    auto values = ReadVertexValues(cat, {}, c);
    EXPECT_TRUE(values.ok());
    if (!values.ok()) break;
    for (const double v : *values) add(v);
  }
  for (const auto& [name, value] : coord.aggregates()) {
    h = Fnv1a(h, name);
    add(value);
  }
  for (const SuperstepStats& s : stats.supersteps) {
    for (const int64_t n :
         {static_cast<int64_t>(s.superstep), s.input_rows, s.active_vertices,
          s.vertex_updates, s.messages_sent,
          static_cast<int64_t>(s.used_replace),
          static_cast<int64_t>(s.used_frontier), s.frontier_vertices}) {
      add(static_cast<double>(n));
    }
  }
  return StringFormat("%016llx", static_cast<unsigned long long>(h));
}

struct GoldenCase {
  const char* graph;
  const char* program;
  bool union_input;
  FrontierMode mode;
  const char* digest;
};

TEST(GoldenTest, OutputsMatchRecordedDigests) {
  Graph rmat = GenerateRmat(300, 2400, 101);
  AssignRandomWeights(&rmat, 1.0, 5.0, 102);
  Graph ring = GenerateWattsStrogatz(250, 4, 0.2, 103);
  AssignRandomWeights(&ring, 1.0, 5.0, 104);
  const std::map<std::string, const Graph*> graphs = {{"rmat", &rmat},
                                                      {"ring", &ring}};
  using ProgramFactory = std::function<std::unique_ptr<VertexProgram>()>;
  const std::map<std::string, std::pair<ProgramFactory, bool>> programs = {
      {"pagerank", {[] { return std::make_unique<PageRankProgram>(8); },
                    false}},
      {"sssp", {[] { return std::make_unique<ShortestPathProgram>(0); },
                false}},
      {"cc", {[] { return std::make_unique<ConnectedComponentsProgram>(); },
              true}},
      {"cf",
       {[] { return std::make_unique<CollaborativeFilteringProgram>(3, 5); },
        true}},
  };
  static const GoldenCase kCases[] = {
      {"ring", "cc", true, FrontierMode::kOff, "a9c7be28141994c6"},
      {"ring", "cc", true, FrontierMode::kOn, "4891545e1c49e171"},
      {"ring", "cc", false, FrontierMode::kOff, "48827ad38a6af96e"},
      {"ring", "cc", false, FrontierMode::kOn, "d62977a02e89434f"},
      {"ring", "cf", true, FrontierMode::kOff, "c827786142746c0d"},
      {"ring", "cf", true, FrontierMode::kOn, "de565cc61a1c551b"},
      {"ring", "cf", false, FrontierMode::kOff, "36b648c78b5ae3ac"},
      {"ring", "cf", false, FrontierMode::kOn, "aeb147e286e46cce"},
      {"ring", "pagerank", true, FrontierMode::kOff, "cb581aafd02bfc0a"},
      {"ring", "pagerank", true, FrontierMode::kOn, "d94ef4bb03e830f2"},
      {"ring", "pagerank", false, FrontierMode::kOff, "17408ff415ae4a29"},
      {"ring", "pagerank", false, FrontierMode::kOn, "be40d1c2ea05c5a9"},
      {"ring", "sssp", true, FrontierMode::kOff, "f86e3198bd9b5661"},
      {"ring", "sssp", true, FrontierMode::kOn, "f6d31bf545d04eac"},
      {"ring", "sssp", false, FrontierMode::kOff, "e560728b2a2c683d"},
      {"ring", "sssp", false, FrontierMode::kOn, "ab04278e71efdfef"},
      {"rmat", "cc", true, FrontierMode::kOff, "72e3cb1c6e877a85"},
      {"rmat", "cc", true, FrontierMode::kOn, "d126ce3ee3edf5e2"},
      {"rmat", "cc", false, FrontierMode::kOff, "54b049f093b078e7"},
      {"rmat", "cc", false, FrontierMode::kOn, "3c13186e684fd4f4"},
      {"rmat", "cf", true, FrontierMode::kOff, "7df4f1790ce49850"},
      {"rmat", "cf", true, FrontierMode::kOn, "1a7f2bf35818a810"},
      {"rmat", "cf", false, FrontierMode::kOff, "0ec6e24594717014"},
      {"rmat", "cf", false, FrontierMode::kOn, "94d626246d3a9f5c"},
      {"rmat", "pagerank", true, FrontierMode::kOff, "f6753e7fccfb7aca"},
      {"rmat", "pagerank", true, FrontierMode::kOn, "8c26604c5d858752"},
      {"rmat", "pagerank", false, FrontierMode::kOff, "3e4856dd5446c71b"},
      {"rmat", "pagerank", false, FrontierMode::kOn, "59fa69bf0093237b"},
      {"rmat", "sssp", true, FrontierMode::kOff, "f64b9b5330b0a1c3"},
      {"rmat", "sssp", true, FrontierMode::kOn, "674af23c083fb07f"},
      {"rmat", "sssp", false, FrontierMode::kOff, "0c25fa6c0bb1b4ba"},
      {"rmat", "sssp", false, FrontierMode::kOn, "6f464bc4576a2100"},
  };
  std::string actual_table;
  size_t checked = 0;
  for (const auto& [gname, graph] : graphs) {
    for (const auto& [pname, entry] : programs) {
      const Graph input = entry.second ? graph->WithReverseEdges() : *graph;
      for (const bool union_input : {true, false}) {
        for (const FrontierMode mode :
             {FrontierMode::kOff, FrontierMode::kOn}) {
          auto program = entry.first();
          const std::string got =
              GoldenDigest(input, program.get(), union_input, mode);
          actual_table += StringFormat(
              "      {\"%s\", \"%s\", %s, FrontierMode::%s, \"%s\"},\n",
              gname.c_str(), pname.c_str(), union_input ? "true" : "false",
              mode == FrontierMode::kOff ? "kOff" : "kOn", got.c_str());
          for (const GoldenCase& c : kCases) {
            if (gname == c.graph && pname == c.program &&
                union_input == c.union_input && mode == c.mode) {
              EXPECT_EQ(got, c.digest)
                  << gname << "/" << pname << "/"
                  << (union_input ? "union" : "join") << "/"
                  << FrontierModeName(mode);
              ++checked;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, std::size(kCases));
  EXPECT_EQ(checked, 32u) << "recorded table:\n" << actual_table;
}

// ---------------------------------------------------------------------------
// Stream contract. A recording program logs what each Compute call sees —
// (superstep, id, edge targets, message payloads) — and the log must equal
// a naive per-vertex derivation from the tables: every vertex row, its
// edges in edge-table order, its messages in message-table order, vertices
// visited partition by partition in ascending id. Checked at every
// threads × frontier × input-path point, on a loader-built graph
// (duplicate edges, self-loops, isolated vertices) and on hand-built tables
// (edges not sorted by src, edges from and to absent ids, a vertex table
// with no declared id order), both with preloaded messages to absent ids.
// ---------------------------------------------------------------------------

using StreamLog =
    std::map<std::pair<int, int64_t>,
             std::pair<std::vector<int64_t>, std::vector<double>>>;

constexpr int kStreamRounds = 3;  // supersteps that send messages
constexpr int64_t kAbsentOffset = 1000;

/// Sends (sender, 1000 * superstep + edge ordinal) along every edge plus one
/// message to an absent id for kStreamRounds supersteps, and halts.
class RecordingProgram : public VertexProgram {
 public:
  int value_arity() const override { return 1; }
  int message_arity() const override { return 2; }
  void InitValue(int64_t, int64_t, double* value) const override {
    value[0] = 0.0;
  }
  void Compute(VertexContext* ctx) override {
    std::vector<int64_t> edges;
    for (int64_t e = 0; e < ctx->num_out_edges(); ++e) {
      edges.push_back(ctx->OutEdgeTarget(e));
    }
    std::vector<double> payloads;
    for (int64_t m = 0; m < ctx->num_messages(); ++m) {
      payloads.push_back(ctx->GetMessage(m)[0]);
      payloads.push_back(ctx->GetMessage(m)[1]);
    }
    const int s = ctx->superstep();
    const int64_t id = ctx->vertex_id();
    if (s < kStreamRounds) {
      for (size_t e = 0; e < edges.size(); ++e) {
        const double p[2] = {static_cast<double>(id),
                             1000.0 * s + static_cast<double>(e)};
        ctx->SendMessage(edges[e], p);
      }
      const double orphan[2] = {static_cast<double>(id), -1.0};
      ctx->SendMessage(kAbsentOffset + id, orphan);
    }
    ctx->ModifyVertexValue(ctx->GetVertexValue(0) + 1.0);
    ctx->VoteToHalt();
    std::lock_guard<std::mutex> lock(mu_);
    const bool fresh =
        log_.emplace(std::make_pair(s, id),
                     std::make_pair(std::move(edges), std::move(payloads)))
            .second;
    if (!fresh) ++repeated_;
  }

  StreamLog log_;
  int repeated_ = 0;

 private:
  std::mutex mu_;
};

/// The expected log, derived row by row from the starting tables.
StreamLog NaiveStreams(const Table& vertex, const Table& edge,
                       const Table& message) {
  std::map<int64_t, bool> halted;  // a duplicated id's last row wins
  const Column& vid = *vertex.ColumnByName("id");
  for (int64_t r = 0; r < vertex.num_rows(); ++r) {
    halted[vid.GetInt64(r)] = vertex.ColumnByName("halted")->GetBool(r);
  }
  std::vector<int64_t> order;
  for (const auto& [id, h] : halted) order.push_back(id);
  std::stable_sort(order.begin(), order.end(), [](int64_t a, int64_t b) {
    return PartitionOf(a, kVertexBatchPartitions) <
           PartitionOf(b, kVertexBatchPartitions);
  });
  struct Msg {
    int64_t dst;
    double m0, m1;
  };
  std::vector<Msg> msgs;
  for (int64_t r = 0; r < message.num_rows(); ++r) {
    msgs.push_back({message.ColumnByName("dst")->GetInt64(r),
                    message.ColumnByName("m0")->GetDouble(r),
                    message.ColumnByName("m1")->GetDouble(r)});
  }
  StreamLog log;
  for (int s = 0;; ++s) {
    bool all_halted = true;
    for (const auto& [id, h] : halted) all_halted = all_halted && h;
    if (s > 0 && msgs.empty() && all_halted) break;
    std::vector<Msg> next;
    int64_t active = 0;
    for (const int64_t v : order) {
      std::vector<double> in;
      for (const Msg& m : msgs) {
        if (m.dst == v) in.insert(in.end(), {m.m0, m.m1});
      }
      if (s > 0 && halted[v] && in.empty()) continue;
      ++active;
      std::vector<int64_t> edges;
      for (int64_t r = 0; r < edge.num_rows(); ++r) {
        if (edge.ColumnByName("src")->GetInt64(r) == v) {
          edges.push_back(edge.ColumnByName("dst")->GetInt64(r));
        }
      }
      if (s < kStreamRounds) {
        for (size_t e = 0; e < edges.size(); ++e) {
          next.push_back({edges[e], static_cast<double>(v),
                          1000.0 * s + static_cast<double>(e)});
        }
        next.push_back({kAbsentOffset + v, static_cast<double>(v), -1.0});
      }
      halted[v] = true;
      log[{s, v}] = {std::move(edges), std::move(in)};
    }
    msgs = std::move(next);
    if (active == 0 && msgs.empty()) break;
  }
  return log;
}

Table MessageRows(const std::vector<std::vector<double>>& rows) {
  Table t(MakeMessageSchema(2));
  for (const auto& r : rows) {
    EXPECT_TRUE(t.AppendRow({Value(static_cast<int64_t>(r[0])),
                             Value(static_cast<int64_t>(r[1])), Value(r[2]),
                             Value(r[3])})
                    .ok());
  }
  return t;
}

/// Loader-built: duplicate edges, self-loops, isolated vertices 27..29.
void LoadRecordedGraph(Catalog* cat) {
  Graph g;
  g.num_vertices = 30;
  uint64_t x = 12345;
  for (int i = 0; i < 90; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const auto src = static_cast<int64_t>((x >> 33) % 27);
    const auto dst = static_cast<int64_t>((x >> 17) % 27);
    g.AddEdge(src, dst, 1.0 + static_cast<double>(i % 5));
  }
  g.AddEdge(4, 9, 2.0);
  g.AddEdge(4, 9, 3.0);  // duplicate edge
  g.AddEdge(6, 6, 1.0);  // self-loop
  RecordingProgram program;
  ASSERT_TRUE(LoadGraphTables(cat, g, program).ok());
  ASSERT_TRUE(cat->ReplaceTable("message",
                                MessageRows({{0, 5, 0.5, 1.5},
                                             {1, 500, 2.5, 3.5},
                                             {2, 5, 4.5, 5.5},
                                             {3, 28, 6.5, 7.5}}))
                  .ok());
}

/// Hand-built: 41 shuffled vertex ids with no declared order (so several
/// share a batching partition out of id order), edges not sorted by src
/// (every vertex also feeds hub 0, whose message order then exposes the
/// visiting order), a duplicate, a self-loop, and edges from and to
/// absent ids.
void LoadRecordedTables(Catalog* cat) {
  Table vertex(MakeVertexSchema(1));
  for (int64_t i = 0; i < 41; ++i) {
    const int64_t id = (i * 17) % 41;
    ASSERT_TRUE(
        vertex.AppendRow({Value(id), Value(false), Value(0.0)}).ok());
  }
  std::vector<std::pair<int64_t, int64_t>> edges;
  for (int64_t i = 40; i >= 0; --i) {
    const int64_t v = (i * 23) % 41;
    edges.emplace_back(v, (v * 7 + 3) % 41);
    edges.emplace_back(v, 0);
  }
  edges.insert(edges.begin() + 5, {9, 9});    // self-loop
  edges.insert(edges.begin() + 9, {2, 7});    // duplicate of a later edge
  edges.emplace_back(2, 7);
  edges.emplace_back(7, 100);                 // to an absent id
  edges.insert(edges.begin() + 13, {100, 2}); // from an absent id
  Table edge(MakeEdgeSchema());
  for (const auto& [src, dst] : edges) {
    ASSERT_TRUE(edge.AppendRow({Value(src), Value(dst), Value(1.0)}).ok());
  }
  ASSERT_TRUE(cat->ReplaceTable("vertex", std::move(vertex)).ok());
  ASSERT_TRUE(cat->ReplaceTable("edge", std::move(edge)).ok());
  ASSERT_TRUE(cat->ReplaceTable("message",
                                MessageRows({{0, 3, 0.5, 1.5},
                                             {4, 77, 2.5, 3.5},
                                             {9, 3, 4.5, 5.5},
                                             {1, 2, 6.5, 7.5}}))
                  .ok());
}

TEST(StreamContractTest, WorkersSeeTheTablesPerVertexStreams) {
  for (const bool hand_built : {false, true}) {
    Catalog cat0;
    if (hand_built) {
      LoadRecordedTables(&cat0);
    } else {
      LoadRecordedGraph(&cat0);
    }
    const StreamLog expected =
        NaiveStreams(**cat0.GetTable("vertex"), **cat0.GetTable("edge"),
                     **cat0.GetTable("message"));
    ASSERT_GT(expected.size(), 10u);
    for (const int threads : {1, 8}) {
      for (const FrontierMode mode : {FrontierMode::kOff, FrontierMode::kOn}) {
        for (const bool union_input : {true, false}) {
          ExecKnobs knobs = ExecKnobs::Current();
          knobs.threads = threads;
          knobs.frontier = mode;
          ScopedExecKnobs scoped_threads(knobs);
          Catalog cat;
          if (hand_built) {
            LoadRecordedTables(&cat);
          } else {
            LoadRecordedGraph(&cat);
          }
          RecordingProgram program;
          VertexicaOptions opts;
          opts.use_union_input = union_input;
          RunStats stats;
          Coordinator coord(&cat, &program, opts);
          const Status st = coord.Run(&stats);
          const std::string where = StringFormat(
              "%s tables, threads=%d, frontier=%s, %s input",
              hand_built ? "hand-built" : "loaded", threads,
              FrontierModeName(mode), union_input ? "union" : "join");
          ASSERT_TRUE(st.ok()) << where << ": " << st.ToString();
          EXPECT_EQ(program.repeated_, 0) << where;
          EXPECT_EQ(program.log_, expected) << where;
          if (!hand_built && mode == FrontierMode::kOn) {
            EXPECT_GT(stats.frontier_supersteps, 0) << where;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Duplicated vertex ids. A duplicated id is one vertex whose last row wins:
// the workers read it and ReadVertexValues reports it, so both update paths
// must write it.
// ---------------------------------------------------------------------------

/// Adds 1 to its value for three supersteps, then halts.
class AddOneProgram : public VertexProgram {
 public:
  int value_arity() const override { return 1; }
  int message_arity() const override { return 1; }
  void InitValue(int64_t id, int64_t, double* value) const override {
    value[0] = static_cast<double>(id);
  }
  void Compute(VertexContext* ctx) override {
    if (ctx->superstep() < 3) {
      ctx->ModifyVertexValue(ctx->GetVertexValue(0) + 1.0);
    } else {
      ctx->VoteToHalt();
    }
  }
};

/// Loads `g` for `program`, then stores a vertex table with id 3 twice
/// (21 rows, sorted by id; row values from `value_of`), runs and reads the
/// values back.
Result<std::vector<double>> RunWithDuplicatedId3(
    VertexProgram* program, const Graph& g,
    const std::function<double(int64_t)>& value_of, VertexicaOptions opts) {
  Catalog cat;
  VX_RETURN_NOT_OK(LoadGraphTables(&cat, g, *program));
  Table vertex(MakeVertexSchema(1));
  for (int64_t id = 0; id < g.num_vertices; ++id) {
    for (int copy = 0; copy < (id == 3 ? 2 : 1); ++copy) {
      VX_RETURN_NOT_OK(
          vertex.AppendRow({Value(id), Value(false), Value(value_of(id))}));
    }
  }
  vertex.SetSortOrder({{0, true}});
  VX_RETURN_NOT_OK(cat.ReplaceTable("vertex", std::move(vertex)));
  opts.max_supersteps = 20;
  Coordinator coord(&cat, program, opts);
  VX_RETURN_NOT_OK(coord.Run());
  return ReadVertexValues(cat, {});
}

TEST(CoordinatorTest, DuplicatedIdGetsTheSameValueOnBothUpdatePaths) {
  // PageRank reads num_vertices every superstep. It is the vertex rows at
  // run start (21) on every path, also after a replace has dropped the
  // duplicate, so all four cells below agree bit for bit.
  Graph ring = ChainGraph(20);
  ring.AddEdge(19, 0, 1.0);
  std::vector<double> pagerank_first;
  for (const bool union_input : {true, false}) {
    std::vector<std::vector<double>> results;
    // 0 always replaces; 1.1 always updates in place.
    for (const double threshold : {0.0, 1.1}) {
      const std::string where =
          StringFormat("%s input, update_threshold=%g",
                       union_input ? "union" : "join", threshold);
      VertexicaOptions opts;
      opts.use_union_input = union_input;
      opts.update_threshold = threshold;
      // Both rows of id 3 start at 100.
      AddOneProgram program;
      auto values = RunWithDuplicatedId3(
          &program, ChainGraph(20),
          [](int64_t id) { return id == 3 ? 100.0 : static_cast<double>(id); },
          opts);
      ASSERT_TRUE(values.ok()) << where << ": " << values.status().ToString();
      ASSERT_EQ(values->size(), 20u) << where;
      EXPECT_EQ((*values)[3], 103.0) << where;
      EXPECT_EQ((*values)[4], 7.0) << where;
      results.push_back(*std::move(values));

      PageRankProgram pagerank(5);
      auto ranks = RunWithDuplicatedId3(
          &pagerank, ring, [](int64_t) { return 1.0 / 20; }, opts);
      ASSERT_TRUE(ranks.ok()) << where << ": " << ranks.status().ToString();
      ASSERT_EQ(ranks->size(), 20u) << where;
      if (pagerank_first.empty()) {
        pagerank_first = *std::move(ranks);
      } else {
        EXPECT_EQ(*ranks, pagerank_first) << where;
      }
    }
    EXPECT_EQ(results[0], results[1]) << (union_input ? "union" : "join");
  }
}

// ---------------------------------------------------------------------------
// ReadVertexValues rejects vertex tables it cannot index by id.
// ---------------------------------------------------------------------------

Status ReadValuesOf(Table vertex) {
  Catalog cat;
  EXPECT_TRUE(cat.ReplaceTable("vertex", std::move(vertex)).ok());
  return ReadVertexValues(cat, {}).status();
}

TEST(GraphTablesTest, ReadVertexValuesRejectsNonInt64Ids) {
  Table vertex(Schema({{"id", DataType::kDouble},
                       {"halted", DataType::kBool},
                       {"v0", DataType::kDouble}}));
  ASSERT_TRUE(vertex.AppendRow({Value(1.0), Value(false), Value(2.0)}).ok());
  const Status st = ReadValuesOf(std::move(vertex));
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
}

TEST(GraphTablesTest, ReadVertexValuesRejectsNonDoubleValues) {
  Table vertex(Schema({{"id", DataType::kInt64},
                       {"halted", DataType::kBool},
                       {"v0", DataType::kInt64}}));
  ASSERT_TRUE(
      vertex.AppendRow({Value(int64_t{1}), Value(false), Value(int64_t{2})})
          .ok());
  const Status st = ReadValuesOf(std::move(vertex));
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
}

TEST(GraphTablesTest, ReadVertexValuesRejectsNegativeIds) {
  Table vertex(MakeVertexSchema(1));
  ASSERT_TRUE(
      vertex.AppendRow({Value(int64_t{0}), Value(false), Value(1.0)}).ok());
  ASSERT_TRUE(
      vertex.AppendRow({Value(int64_t{-2}), Value(false), Value(1.0)}).ok());
  const Status st = ReadValuesOf(std::move(vertex));
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
}

// ---------------------------------------------------------------------------
// Combines spanning several chunks. One superstep sends 40,000 two-column
// messages (three kDefaultMorselRows chunks) mixing finite values of wide
// magnitude, ±0.0, NaN and ±inf; the stored combined table must equal,
// bit for bit, the chunk-parallel hash aggregate over the uncombined
// messages in worker-output order — the association the combiner fold
// replays. Receivers divisible by 11 get only −0.0 (SUM must give +0.0).
// The one NaN sent is the one inf − inf yields: which NaN a sum of two
// different NaNs returns depends on the compiler's operand order, so a
// second NaN pattern would make the expected bits build-dependent.
// ---------------------------------------------------------------------------

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double SpecialPayload(int64_t src, int64_t edge, int64_t dst, int column) {
  const uint64_t h = SplitMix(static_cast<uint64_t>(src) * 1000003u +
                              static_cast<uint64_t>(edge) * 31u +
                              static_cast<uint64_t>(column));
  // Volatile, so inf - inf is computed at run time: the hardware's NaN.
  volatile double inf = std::numeric_limits<double>::infinity();
  if (dst % 11 == 0) return -0.0;
  if (dst % 5 == 0) {
    switch (h % 8) {
      case 0:
        return inf - inf;  // NaN
      case 1:
        return inf;
      case 2:
        return -inf;
      case 3:
        return -0.0;
      case 4:
        return 0.0;
      default:
        break;
    }
  }
  const double unit = static_cast<double>(h >> 11) * 0x1.0p-53 * 2.0 - 1.0;
  return std::ldexp(unit, static_cast<int>((h >> 3) % 41) - 20);
}

/// Sends SpecialPayload along every out-edge in superstep 0, plus one
/// message to an absent receiver, and halts. The absent receivers are
/// negative ids next to the graph's (the receivers stay a dense id range)
/// or, with `sparse_receivers`, ids near ±2^50 (a wide range).
class SpecialPayloadProgram : public VertexProgram {
 public:
  SpecialPayloadProgram(MessageCombiner combiner, bool sparse_receivers)
      : combiner_(combiner), sparse_receivers_(sparse_receivers) {}
  int value_arity() const override { return 1; }
  int message_arity() const override { return 2; }
  void InitValue(int64_t, int64_t, double* value) const override {
    value[0] = 0.0;
  }
  void Compute(VertexContext* ctx) override {
    for (int64_t e = 0; e < ctx->num_out_edges(); ++e) {
      const int64_t dst = ctx->OutEdgeTarget(e);
      const double payload[2] = {SpecialPayload(ctx->vertex_id(), e, dst, 0),
                                 SpecialPayload(ctx->vertex_id(), e, dst, 1)};
      ctx->SendMessage(dst, payload);
    }
    const int64_t id = ctx->vertex_id();
    constexpr int64_t kFar = int64_t{1} << 50;
    const int64_t absent = sparse_receivers_
                               ? (id % 2 == 0 ? kFar : -kFar) + id % 97
                               : -1 - id % 5;
    const double payload[2] = {SpecialPayload(id, -1, absent, 0),
                               SpecialPayload(id, -1, absent, 1)};
    ctx->SendMessage(absent, payload);
    ctx->VoteToHalt();
  }
  MessageCombiner combiner() const override { return combiner_; }

 private:
  MessageCombiner combiner_;
  bool sparse_receivers_;
};

/// The message table stored after one superstep of `program` on `g`.
Table OneSuperstepMessages(const Graph& g, VertexProgram* program,
                           VertexicaOptions opts) {
  Catalog cat;
  EXPECT_TRUE(LoadGraphTables(&cat, g, *program).ok());
  opts.max_supersteps = 1;
  Coordinator coord(&cat, program, opts);
  const Status st = coord.Run();
  EXPECT_TRUE(st.ok()) << st.ToString();
  return **cat.GetTable("message");
}

uint64_t Bits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

/// Empty when `got` and `want` are equal row by row and bit for bit.
std::string DiffMessageTables(const Table& got, const Table& want) {
  if (got.num_rows() != want.num_rows()) {
    return StringFormat("%lld rows, want %lld",
                        static_cast<long long>(got.num_rows()),
                        static_cast<long long>(want.num_rows()));
  }
  for (const char* name : {"src", "dst"}) {
    for (int64_t r = 0; r < got.num_rows(); ++r) {
      const int64_t a = got.ColumnByName(name)->GetInt64(r);
      const int64_t b = want.ColumnByName(name)->GetInt64(r);
      if (a != b) {
        return StringFormat("row %lld: %s %lld, want %lld",
                            static_cast<long long>(r), name,
                            static_cast<long long>(a),
                            static_cast<long long>(b));
      }
    }
  }
  for (const char* name : {"m0", "m1"}) {
    for (int64_t r = 0; r < got.num_rows(); ++r) {
      const double a = got.ColumnByName(name)->GetDouble(r);
      const double b = want.ColumnByName(name)->GetDouble(r);
      if (Bits(a) != Bits(b)) {
        return StringFormat("row %lld (dst %lld): %s %a, want %a",
                            static_cast<long long>(r),
                            static_cast<long long>(
                                want.ColumnByName("dst")->GetInt64(r)),
                            name, a, b);
      }
    }
  }
  return "";
}

/// Checks one combiner over `g` at every threads × input point.
void ExpectCombineMatchesAggregate(const Graph& g, MessageCombiner combiner,
                                   AggOp op, bool sparse_receivers) {
  const std::string what =
      StringFormat("combiner %d, %s receivers", static_cast<int>(combiner),
                   sparse_receivers ? "sparse" : "dense");
  // Reference: the uncombined messages in worker-output order (the union
  // path stores them unsorted), aggregated on dst.
  SpecialPayloadProgram program(combiner, sparse_receivers);
  VertexicaOptions plain;
  plain.use_combiner = false;
  plain.use_union_input = true;
  const Table uncombined = OneSuperstepMessages(g, &program, plain);
  ASSERT_GT(uncombined.num_rows(), 2 * kDefaultMorselRows) << what;
  auto agg = ParallelHashAggregate(uncombined, {"dst"},
                                   {{op, "m0", "m0"}, {op, "m1", "m1"}});
  ASSERT_TRUE(agg.ok()) << what << ": " << agg.status().ToString();
  std::vector<Column> cols;
  cols.push_back(Column::FromInts(
      std::vector<int64_t>(static_cast<size_t>(agg->num_rows()), -1)));
  for (int c = 0; c < agg->num_columns(); ++c) {
    cols.push_back(agg->column(c));
  }
  auto reference = Table::Make(MakeMessageSchema(2), std::move(cols));
  ASSERT_TRUE(reference.ok()) << what;
  // The stored table is in worker-output order on either input path.
  for (const int threads : {1, 8}) {
    for (const bool union_input : {true, false}) {
      ExecKnobs knobs = ExecKnobs::Current();
      knobs.threads = threads;
      ScopedExecKnobs scoped_threads(knobs);
      VertexicaOptions opts;
      opts.use_union_input = union_input;
      const Table combined = OneSuperstepMessages(g, &program, opts);
      EXPECT_EQ(DiffMessageTables(combined, *reference), "")
          << what << ", threads=" << threads << ", "
          << (union_input ? "union" : "join") << " input";
    }
  }
}

TEST(CombinerTest, MultiChunkCombineMatchesChunkParallelAggregate) {
  const Graph g = GenerateRmat(2000, 40000, 77);
  for (const bool sparse_receivers : {false, true}) {
    ExpectCombineMatchesAggregate(g, MessageCombiner::kSum, AggOp::kSum,
                                  sparse_receivers);
    ExpectCombineMatchesAggregate(g, MessageCombiner::kMin, AggOp::kMin,
                                  sparse_receivers);
    ExpectCombineMatchesAggregate(g, MessageCombiner::kMax, AggOp::kMax,
                                  sparse_receivers);
  }
}

}  // namespace
}  // namespace vertexica
