// Tests for dataflow pipelines (§3.4, §4.2.2): composition of relational
// operators and SQL graph algorithms.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>

#include "common/exec_knobs.h"
#include "exec/kernel_stats.h"
#include "graphgen/generators.h"
#include "graphgen/metadata.h"
#include "pipeline/dataflow.h"
#include "pipeline/nodes.h"
#include "sqlgraph/sql_common.h"
#include "sqlgraph/sql_pagerank.h"

namespace vertexica {
namespace {

Graph SmallSocial() {
  Graph g;
  g.num_vertices = 6;
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 0);
  g.AddEdge(2, 3);
  g.AddEdge(3, 4);
  g.AddEdge(4, 5);
  return g;
}

TEST(PipelineTest, SourceAndSelection) {
  Pipeline p;
  const int src = p.AddNode(
      MakeSourceNode("edges", MakeEdgeListTable(SmallSocial())));
  const int sel = p.AddNode(
      MakeSelectionNode(Lt(Col("src"), Lit(int64_t{2}))), {src});
  auto out = p.Run(sel);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->num_rows(), 2);  // edges from 0 and 1
}

TEST(PipelineTest, ResultsAreMemoized) {
  Pipeline p;
  int calls = 0;
  const int src = p.AddNode(MakeFunctionNode(
      "counter", [&calls](const std::vector<Table>&) -> Result<Table> {
        ++calls;
        return Table(Schema({{"x", DataType::kInt64}}));
      }));
  const int a = p.AddNode(MakeSelectionNode(Eq(Col("x"), Lit(int64_t{0}))),
                          {src});
  const int b = p.AddNode(MakeSelectionNode(Ne(Col("x"), Lit(int64_t{0}))),
                          {src});
  ASSERT_TRUE(p.Run(a).ok());
  ASSERT_TRUE(p.Run(b).ok());
  EXPECT_EQ(calls, 1);  // diamond: shared input ran once
  p.Reset();
  ASSERT_TRUE(p.Run(a).ok());
  EXPECT_EQ(calls, 2);
}

TEST(PipelineTest, TimingsRecorded) {
  Pipeline p;
  const int src = p.AddNode(
      MakeSourceNode("edges", MakeEdgeListTable(SmallSocial())));
  const int pr = p.AddNode(MakePageRankNode(3), {src});
  ASSERT_TRUE(p.Run(pr).ok());
  ASSERT_EQ(p.timings().size(), 2u);
  EXPECT_EQ(p.timings()[1].name, "PageRank");
  EXPECT_GE(p.timings()[1].seconds, 0.0);
}

TEST(PipelineTest, PageRankThenHistogram) {
  // §4.2.2: "the users might be interested in looking at the distribution
  // of PageRank values".
  Graph g = GenerateRmat(100, 600, 71);
  Pipeline p;
  const int src = p.AddNode(MakeSourceNode("edges", MakeEdgeListTable(g)));
  const int pr = p.AddNode(MakePageRankNode(5), {src});
  const int hist = p.AddNode(MakeHistogramNode("rank", 8), {pr});
  auto out = p.Run(hist);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_LE(out->num_rows(), 8);
  int64_t total = 0;
  for (int64_t r = 0; r < out->num_rows(); ++r) {
    total += out->ColumnByName("count")->GetInt64(r);
  }
  // Every ranked vertex lands in exactly one bucket.
  const Table ranks = *p.Run(pr);
  EXPECT_EQ(total, ranks.num_rows());
}

TEST(PipelineTest, EdgeTypeFilterThenTriangles) {
  // §4.2.3: "change the edge filter from Family to Classmates".
  Graph g = SmallSocial();
  Table edges = GenerateEdgeMetadata(g, 72);
  Pipeline p;
  const int src = p.AddNode(MakeSourceNode("edges", edges));
  const int family = p.AddNode(
      MakeSelectionNode(Eq(Col("type"), Lit(std::string("family")))), {src});
  const int tri = p.AddNode(MakeTriangleCountingNode(), {family});
  auto out = p.Run(tri);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // Result is a valid per-node triangle table (possibly empty).
  EXPECT_TRUE(out->schema().HasField("triangles"));
}

TEST(PipelineTest, JoinGraphResultWithMetadata) {
  // §3.4: combine graph analysis output with node metadata.
  Graph g = GenerateRmat(80, 400, 73);
  Table metadata = GenerateNodeMetadata(g.num_vertices, 74);
  Pipeline p;
  const int src = p.AddNode(MakeSourceNode("edges", MakeEdgeListTable(g)));
  const int pr = p.AddNode(MakePageRankNode(4), {src});
  const int meta = p.AddNode(MakeSourceNode("metadata", metadata));
  const int joined = p.AddNode(MakeJoinNode({"id"}, {"id"}), {pr, meta});
  const int agg = p.AddNode(
      MakeAggregationNode({"u0"}, {{AggOp::kAvg, "rank", "avg_rank"},
                                   {AggOp::kCountStar, "", "n"}}),
      {joined});
  auto out = p.Run(agg);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->num_rows(), 2);  // u0 has cardinality 2
}

TEST(PipelineTest, ComposedAnalysisNearOrImportant) {
  // §4.2.2: "emit nodes which are either very near (path distance less
  // than a threshold) or are relatively very important (PageRank greater
  // than a threshold)".
  Graph g = GenerateRmat(100, 700, 75);
  Pipeline p;
  const int src = p.AddNode(MakeSourceNode("edges", MakeEdgeListTable(g)));
  const int pr = p.AddNode(MakePageRankNode(5), {src});
  const int sp = p.AddNode(MakeShortestPathsNode(0), {src});
  const int joined = p.AddNode(MakeJoinNode({"id"}, {"id"}), {pr, sp});
  const int filtered = p.AddNode(
      MakeSelectionNode(Or(Lt(Col("dist"), Lit(3.0)),
                           Gt(Col("rank"), Lit(0.02)))),
      {joined});
  auto out = p.Run(filtered);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_GT(out->num_rows(), 0);
  EXPECT_LE(out->num_rows(), 100);
}

TEST(PipelineTest, WeakTiesAndStrongOverlapNodes) {
  Graph g;
  g.num_vertices = 5;
  for (int64_t v = 1; v < 5; ++v) g.AddEdge(0, v);
  Pipeline p;
  const int src = p.AddNode(MakeSourceNode("edges", MakeEdgeListTable(g)));
  const int ties = p.AddNode(MakeWeakTiesNode(1), {src});
  const int overlap = p.AddNode(MakeStrongOverlapNode(1), {src});
  auto ties_out = p.Run(ties);
  ASSERT_TRUE(ties_out.ok());
  EXPECT_EQ(ties_out->num_rows(), 1);  // the hub bridges everything
  auto overlap_out = p.Run(overlap);
  ASSERT_TRUE(overlap_out.ok());
  EXPECT_EQ(overlap_out->num_rows(), 6);  // all leaf pairs share the hub
}

TEST(PipelineTest, ConnectedComponentsNode) {
  Graph g;
  g.num_vertices = 5;
  g.AddEdge(0, 1);
  g.AddEdge(3, 4);
  Pipeline p;
  const int src = p.AddNode(MakeSourceNode("edges", MakeEdgeListTable(g)));
  const int cc = p.AddNode(MakeConnectedComponentsNode(), {src});
  auto out = p.Run(cc);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // Vertex 2 has no edges, so only 4 vertices appear; two components.
  EXPECT_EQ(out->num_rows(), 4);
  std::set<int64_t> labels(out->ColumnByName("label")->ints().begin(),
                           out->ColumnByName("label")->ints().end());
  EXPECT_EQ(labels, (std::set<int64_t>{0, 3}));
}

TEST(PipelineTest, RandomWalkNode) {
  Graph g = GenerateRmat(60, 300, 76);
  Pipeline p;
  const int src = p.AddNode(MakeSourceNode("edges", MakeEdgeListTable(g)));
  const int rwr = p.AddNode(MakeRandomWalkNode(0, 10, 0.2), {src});
  auto out = p.Run(rwr);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // The source retains at least its restart mass.
  for (int64_t r = 0; r < out->num_rows(); ++r) {
    if (out->ColumnByName("id")->GetInt64(r) == 0) {
      EXPECT_GE(out->ColumnByName("score")->GetDouble(r), 0.18);
    }
  }
}

TEST(PipelineTest, BadInputArityFails) {
  Pipeline p;
  const int join = p.AddNode(MakeJoinNode({"id"}, {"id"}));  // no inputs
  EXPECT_TRUE(p.Run(join).status().IsInvalidArgument());
}

TEST(PipelineTest, UnknownNodeIdFails) {
  Pipeline p;
  EXPECT_TRUE(p.Run(3).status().IsInvalidArgument());
}

TEST(PipelineTest, ParallelWaveNodesSeeTheCallersKnobs) {
  // Every knob away from its default, plus a live cancel token and a
  // kernel-counter block: a pool task that installs only the thread count
  // (or nothing) captures something else.
  KernelStats stats;
  ExecKnobs caller;
  caller.threads = 4;
  caller.encoding = EncodingMode::kOff;
  caller.frontier = FrontierMode::kOff;
  caller.vectorized = false;
  caller.cancel = CancelToken::Make();
  caller.kernel_stats = &stats;
  ScopedExecKnobs scoped(caller);
  ASSERT_TRUE(ExecKnobs::Current() == caller);

  // Two independent probes form one wave, which fans out on the pool. Each
  // waits (up to two seconds) for the other to start, so the two run at
  // once and at least one of them runs on a pool worker.
  std::atomic<int> started{0};
  std::vector<ExecKnobs> seen(2);
  Pipeline p;
  std::vector<int> probes;
  for (size_t i = 0; i < seen.size(); ++i) {
    probes.push_back(p.AddNode(MakeFunctionNode(
        "probe", [&, i](const std::vector<Table>&) -> Result<Table> {
          started.fetch_add(1);
          const auto give_up =
              std::chrono::steady_clock::now() + std::chrono::seconds(2);
          while (started.load() < 2 &&
                 std::chrono::steady_clock::now() < give_up) {
            std::this_thread::yield();
          }
          seen[i] = ExecKnobs::Current();
          return Table(Schema({{"x", DataType::kInt64}}));
        })));
  }
  const int sink = p.AddNode(
      MakeFunctionNode("sink",
                       [](const std::vector<Table>& in) -> Result<Table> {
                         return in[0];
                       }),
      probes);
  auto out = p.Run(sink);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_TRUE(seen[i] == caller) << "probe " << i;
  }
}

/// A function node that forwards its first input.
PipelineNodePtr ForwardNode() {
  return MakeFunctionNode(
      "forward", [](const std::vector<Table>& in) -> Result<Table> {
        return in[0];
      });
}

TEST(PipelineTest, SqlNodesOnPoolTasksHonourTheRequestContext) {
  // Two SQL PageRank nodes form one wave, so at threads > 1 one of them
  // runs on a pool task, and its joins and aggregates fan out again.
  // Neither the pipeline nor the sqlgraph code installs a context.
  const Graph g = GenerateRmat(2048, 40000, 17);
  const Table vertices = MakeVertexListTable(g);
  const Table edges = MakeEdgeListTable(g);

  // Kernel counters are deterministic at any thread count, so at four
  // threads they match a serial run only if every pool task counted into
  // the request's block.
  auto counters = [&](int threads) {
    KernelStats stats;
    ExecKnobs knobs = ExecKnobs::Current();
    knobs.threads = threads;
    knobs.kernel_stats = &stats;
    ScopedExecKnobs scope(knobs);
    Pipeline p;
    const int src = p.AddNode(MakeSourceNode("edges", edges));
    const int a = p.AddNode(MakePageRankNode(3), {src});
    const int b = p.AddNode(MakePageRankNode(3), {src});
    const auto out = p.Run(p.AddNode(ForwardNode(), {a, b}));
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return Snapshot(stats);
  };
  const KernelStatsSnapshot serial = counters(1);
  const KernelStatsSnapshot parallel = counters(4);
  EXPECT_GT(serial.bytes_materialized, 0);
  EXPECT_EQ(parallel.bytes_materialized, serial.bytes_materialized);
  EXPECT_EQ(parallel.fused_batches, serial.fused_batches);
  EXPECT_EQ(parallel.legacy_batches, serial.legacy_batches);
  EXPECT_EQ(parallel.batch_hash_rows, serial.batch_hash_rows);

  // The request's deadline passes while both nodes wait; the SQL PageRank
  // each then starts stops with DeadlineExceeded, on the pool task too.
  ExecKnobs knobs = ExecKnobs::Current();
  knobs.threads = 4;
  knobs.cancel = CancelToken().WithDeadlineAfter(0.3);
  ScopedExecKnobs scope(knobs);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> started{0};
  std::mutex mu;
  std::vector<Status> on_pool;
  Pipeline p;
  std::vector<int> late;
  for (int i = 0; i < 2; ++i) {
    late.push_back(p.AddNode(MakeFunctionNode(
        "late", [&](const std::vector<Table>&) -> Result<Table> {
          started.fetch_add(1);
          const auto give_up =
              std::chrono::steady_clock::now() + std::chrono::seconds(2);
          while (started.load() < 2 &&
                 std::chrono::steady_clock::now() < give_up) {
            std::this_thread::yield();
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(400));
          Result<Table> out = SqlPageRank(vertices, edges, 3);
          if (std::this_thread::get_id() != caller) {
            std::lock_guard<std::mutex> lock(mu);
            on_pool.push_back(out.status());
          }
          return out;
        })));
  }
  const auto out = p.Run(p.AddNode(ForwardNode(), late));
  EXPECT_TRUE(out.status().IsDeadlineExceeded()) << out.status().ToString();
  ASSERT_EQ(on_pool.size(), 1u);
  EXPECT_TRUE(on_pool[0].IsDeadlineExceeded()) << on_pool[0].ToString();
}

}  // namespace
}  // namespace vertexica
