// Tests for the extension features: TopN operator, SQL random walk with
// restart (localized PageRank), column compression, the umbrella header,
// and additional coordinator edge cases (orphan messages, aggregator
// visibility, multi-graph catalogs).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "vertexica/vertexica.h"  // umbrella header must be self-contained

#include "algorithms/label_propagation.h"
#include "algorithms/reference.h"
#include "catalog/catalog_io.h"
#include "common/fault_injection.h"
#include "common/exec_knobs.h"
#include "giraph/bsp_engine.h"
#include "sqlgraph/sql_common.h"
#include "storage/compression.h"

namespace vertexica {
namespace {

// ------------------------------------------------------------------- TopN

Table Scores(int64_t n) {
  Table t(Schema({{"id", DataType::kInt64}, {"score", DataType::kDouble}}));
  // Deterministic scrambled scores.
  for (int64_t i = 0; i < n; ++i) {
    VX_CHECK_OK(t.AppendRow(
        {Value(i), Value(static_cast<double>((i * 37) % n))}));
  }
  return t;
}

TEST(TopNTest, MatchesSortLimit) {
  Table t = Scores(500);
  auto topn = PlanBuilder::Scan(t, /*batch_size=*/64)
                  .TopN({{"score", false}}, 10)
                  .Execute();
  auto sorted = PlanBuilder::Scan(t)
                    .OrderBy({{"score", false}})
                    .Limit(10)
                    .Execute();
  ASSERT_TRUE(topn.ok()) << topn.status().ToString();
  ASSERT_TRUE(sorted.ok());
  EXPECT_TRUE(topn->Equals(*sorted));
}

TEST(TopNTest, FewerRowsThanLimit) {
  Table t = Scores(3);
  auto topn = PlanBuilder::Scan(t).TopN({{"score", true}}, 10).Execute();
  ASSERT_TRUE(topn.ok());
  EXPECT_EQ(topn->num_rows(), 3);
  EXPECT_DOUBLE_EQ(topn->column(1).GetDouble(0), 0.0);
}

TEST(TopNTest, ZeroLimitEmpty) {
  auto topn = PlanBuilder::Scan(Scores(5)).TopN({{"score", true}}, 0).Execute();
  ASSERT_TRUE(topn.ok());
  EXPECT_EQ(topn->num_rows(), 0);
}

TEST(TopNTest, UnknownColumnFails) {
  auto topn = PlanBuilder::Scan(Scores(5)).TopN({{"nope", true}, }, 3).Execute();
  EXPECT_TRUE(topn.status().IsInvalidArgument());
}

TEST(TopNTest, StableTieBreaks) {
  Table t(Schema({{"id", DataType::kInt64}, {"k", DataType::kInt64}}));
  for (int64_t i = 0; i < 20; ++i) {
    VX_CHECK_OK(t.AppendRow({Value(i), Value(int64_t{7})}));
  }
  auto topn = PlanBuilder::Scan(t, 4).TopN({{"k", true}}, 5).Execute();
  ASSERT_TRUE(topn.ok());
  for (int64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(topn->column(0).GetInt64(i), i);  // input order preserved
  }
}

// -------------------------------------------------------------- SQL RWR

TEST(SqlRandomWalkTest, MatchesVertexCentricEngine) {
  Graph g = GenerateRmat(120, 800, 61);
  Catalog cat;
  auto vx = RunRandomWalkWithRestart(&cat, g, /*source=*/3, 12, 0.15);
  ASSERT_TRUE(vx.ok());
  auto sql = SqlRandomWalkWithRestart(g, 3, 12, 0.15);
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  ASSERT_EQ(vx->size(), sql->size());
  for (size_t v = 0; v < vx->size(); ++v) {
    EXPECT_NEAR((*sql)[v], (*vx)[v], 1e-9) << "vertex " << v;
  }
}

TEST(SqlRandomWalkTest, MatchesBspEngine) {
  Graph g = GenerateRmat(100, 700, 62);
  RandomWalkWithRestartProgram program(5, 10, 0.2);
  BspEngine engine(g, &program);
  ASSERT_TRUE(engine.Run().ok());
  auto sql = SqlRandomWalkWithRestart(g, 5, 10, 0.2);
  ASSERT_TRUE(sql.ok());
  for (int64_t v = 0; v < g.num_vertices; ++v) {
    EXPECT_NEAR((*sql)[static_cast<size_t>(v)], engine.value(v), 1e-9);
  }
}

TEST(SqlRandomWalkTest, SourceKeepsRestartMass) {
  Graph g = GenerateRmat(64, 400, 63);
  auto sql = SqlRandomWalkWithRestart(g, 0, 15, 0.3);
  ASSERT_TRUE(sql.ok());
  EXPECT_GE((*sql)[0], 0.3 * 0.9);
}

// --------------------------------------------------------- Compression

TEST(CompressionTest, RleRoundTrip) {
  std::vector<int64_t> values = {1, 1, 1, 2, 3, 3, 1};
  auto runs = RleEncode(values);
  ASSERT_EQ(runs.size(), 4u);
  EXPECT_EQ(runs[0].value, 1);
  EXPECT_EQ(runs[0].length, 3);
  EXPECT_EQ(RleDecode(runs), values);
  EXPECT_TRUE(RleEncode({}).empty());
}

TEST(CompressionTest, DictionaryRoundTrip) {
  std::vector<std::string> values = {"family", "friend", "family",
                                     "classmate", "family"};
  auto enc = DictionaryEncode(values);
  EXPECT_EQ(enc.dictionary.size(), 3u);
  EXPECT_EQ(enc.dictionary[0], "family");  // first-appearance order
  EXPECT_EQ(DictionaryDecode(enc), values);
}

TEST(CompressionTest, SortedIdsCompressWell) {
  // A sorted, deduplicated vertex-id column is the best case for RLE on
  // deltas; even plain RLE on a low-cardinality column shines.
  Column c(DataType::kInt64);
  for (int64_t i = 0; i < 10000; ++i) c.AppendInt64(i / 1000);  // 10 runs
  EXPECT_LT(CompressedByteSize(c), UncompressedByteSize(c) / 100);
}

TEST(CompressionTest, EdgeTypeColumnDictionaryRatio) {
  // The §4 metadata edge-type column has 3 distinct strings; dictionary
  // encoding beats raw storage comfortably.
  Graph g = GenerateErdosRenyi(100, 2000, 9);
  Table edges = GenerateEdgeMetadata(g, 10);
  const Column* type = edges.ColumnByName("type");
  ASSERT_NE(type, nullptr);
  EXPECT_LT(CompressedByteSize(*type), UncompressedByteSize(*type));
}

TEST(CompressionTest, RandomDoublesDontCompress) {
  Column c(DataType::kDouble);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) c.AppendDouble(rng.NextDouble());
  EXPECT_EQ(CompressedByteSize(c), UncompressedByteSize(c));
}

// ------------------------------------------- Coordinator edge cases

/// Program that mis-addresses messages to a nonexistent vertex.
class OrphanMessageProgram : public VertexProgram {
 public:
  int value_arity() const override { return 1; }
  int message_arity() const override { return 1; }
  void InitValue(int64_t, int64_t, double* v) const override { v[0] = 0; }
  void Compute(VertexContext* ctx) override {
    if (ctx->superstep() == 0) {
      ctx->SendMessage(999999, 1.0);  // no such vertex
      ctx->SendMessage(ctx->vertex_id(), 1.0);
    } else {
      ctx->ModifyVertexValue(static_cast<double>(ctx->num_messages()));
    }
    if (ctx->superstep() >= 1) ctx->VoteToHalt();
  }
};

TEST(CoordinatorEdgeCaseTest, OrphanMessagesAreDropped) {
  Graph g;
  g.num_vertices = 3;
  g.AddEdge(0, 1);
  OrphanMessageProgram program;
  Catalog cat;
  ASSERT_TRUE(RunVertexProgram(&cat, g, &program).ok());
  auto vals = ReadVertexValues(cat, {});
  ASSERT_TRUE(vals.ok());
  // Every vertex received exactly its own self-message.
  for (double v : *vals) EXPECT_DOUBLE_EQ(v, 1.0);
}

/// Program proving aggregator values are visible one superstep later.
class AggregatorEchoProgram : public VertexProgram {
 public:
  int value_arity() const override { return 1; }
  int message_arity() const override { return 1; }
  void InitValue(int64_t, int64_t, double* v) const override { v[0] = -1; }
  void Compute(VertexContext* ctx) override {
    if (ctx->superstep() == 0) {
      ctx->Aggregate("census", 1.0);
      ctx->SendMessage(ctx->vertex_id(), 0.0);  // keep self alive
    } else if (ctx->superstep() == 1) {
      // Superstep 1 must see superstep 0's total.
      ctx->ModifyVertexValue(ctx->GetAggregate("census"));
    }
    if (ctx->superstep() >= 1) ctx->VoteToHalt();
  }
  std::vector<AggregatorSpec> aggregators() const override {
    return {{"census", AggregatorKind::kSum}};
  }
};

TEST(CoordinatorEdgeCaseTest, AggregatorVisibleNextSuperstep) {
  Graph g;
  g.num_vertices = 7;
  AggregatorEchoProgram program;
  Catalog cat;
  ASSERT_TRUE(RunVertexProgram(&cat, g, &program).ok());
  auto vals = ReadVertexValues(cat, {});
  for (double v : *vals) EXPECT_DOUBLE_EQ(v, 7.0);
}

TEST(CoordinatorEdgeCaseTest, TwoGraphsCoexistViaPrefixes) {
  Graph g1 = GenerateRmat(50, 200, 71);
  Graph g2 = GenerateRmat(60, 300, 72);
  Catalog cat;
  PageRankProgram p1(4);
  PageRankProgram p2(4);
  auto names1 = GraphTableNames::WithPrefix("a_");
  auto names2 = GraphTableNames::WithPrefix("b_");
  ASSERT_TRUE(RunVertexProgram(&cat, g1, &p1, {}, names1).ok());
  ASSERT_TRUE(RunVertexProgram(&cat, g2, &p2, {}, names2).ok());
  EXPECT_TRUE(cat.HasTable("a_vertex"));
  EXPECT_TRUE(cat.HasTable("b_vertex"));
  EXPECT_EQ(*cat.RowCount("a_vertex"), 50);
  EXPECT_EQ(*cat.RowCount("b_vertex"), 60);
  auto r1 = ReadVertexValues(cat, names1);
  auto r2 = ReadVertexValues(cat, names2);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  auto e1 = PageRankReference(g1, 4);
  for (size_t v = 0; v < e1.size(); ++v) {
    EXPECT_NEAR((*r1)[v], e1[v], 1e-9);
  }
}

// Scope-of-analysis via bounding rectangle (§4.1): using two float
// metadata attributes as layout coordinates, select nodes inside a
// rectangle and run analysis on the induced subgraph.
TEST(ScopeSelectionTest, BoundingRectangleInducedSubgraph) {
  Graph g = GenerateRmat(300, 2000, 73);
  Table meta = GenerateNodeMetadata(g.num_vertices, 74);
  // f0 in [0,1) serves as x, f1 in [0,10) as y.
  auto inside = PlanBuilder::Scan(meta)
                    .Filter(And(And(Ge(Col("f0"), Lit(0.2)),
                                    Le(Col("f0"), Lit(0.8))),
                                And(Ge(Col("f1"), Lit(2.0)),
                                    Le(Col("f1"), Lit(8.0)))))
                    .Select({"id"})
                    .Execute();
  ASSERT_TRUE(inside.ok());
  ASSERT_GT(inside->num_rows(), 0);
  ASSERT_LT(inside->num_rows(), g.num_vertices);

  // Induced subgraph: both endpoints inside the rectangle.
  Table edges = MakeEdgeListTable(g);
  auto induced =
      PlanBuilder::Scan(edges)
          .Join(PlanBuilder::Scan(*inside), {"src"}, {"id"}, JoinType::kSemi)
          .Join(PlanBuilder::Scan(*inside), {"dst"}, {"id"}, JoinType::kSemi)
          .Execute();
  ASSERT_TRUE(induced.ok());
  EXPECT_LT(induced->num_rows(), edges.num_rows());
  // The induced edge set feeds any SQL algorithm.
  auto tri = SqlTriangleCount(*induced);
  ASSERT_TRUE(tri.ok());
  EXPECT_GE(*tri, 0);
}

// ------------------------------------------------- Catalog persistence

TEST(CatalogIoTest, SaveAndRestoreRoundTrip) {
  Catalog catalog;
  Table people(Schema({{"id", DataType::kInt64},
                       {"score", DataType::kDouble},
                       {"name", DataType::kString},
                       {"flag", DataType::kBool}}));
  VX_CHECK_OK(people.AppendRow(
      {Value(int64_t{1}), Value(0.5), Value("a,b"), Value(true)}));
  VX_CHECK_OK(people.AppendRow(
      {Value(int64_t{2}), Value::Null(), Value("x"), Value(false)}));
  VX_CHECK_OK(catalog.CreateTable("people", people));
  Table empty(Schema({{"x", DataType::kInt64}}));
  VX_CHECK_OK(catalog.CreateTable("empty", empty));

  const std::string dir = testing::TempDir() + "/vx_catalog_ckpt";
  ASSERT_TRUE(SaveCatalog(catalog, dir).ok());

  Catalog restored;
  ASSERT_TRUE(LoadCatalog(dir, &restored).ok());
  auto back = restored.GetTable("people");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE((*back)->Equals(people));
  auto empty_back = restored.GetTable("empty");
  ASSERT_TRUE(empty_back.ok());
  EXPECT_EQ((*empty_back)->num_rows(), 0);
  EXPECT_EQ((*empty_back)->schema().field(0).type, DataType::kInt64);
}

TEST(CatalogIoTest, CheckpointRecoverResumesAnalysis) {
  // Checkpoint mid-workload: load a graph, checkpoint the catalog, destroy
  // it, recover, and run PageRank on the recovered tables.
  Graph g = GenerateRmat(80, 400, 81);
  PageRankProgram program(5);
  Catalog catalog;
  ASSERT_TRUE(LoadGraphTables(&catalog, g, program).ok());
  const std::string dir = testing::TempDir() + "/vx_catalog_resume";
  ASSERT_TRUE(SaveCatalog(catalog, dir).ok());

  Catalog recovered;
  ASSERT_TRUE(LoadCatalog(dir, &recovered).ok());
  Coordinator coordinator(&recovered, &program);
  ASSERT_TRUE(coordinator.Run().ok());
  auto ranks = ReadVertexValues(recovered, {});
  ASSERT_TRUE(ranks.ok());
  auto expect = PageRankReference(g, 5);
  for (size_t v = 0; v < expect.size(); ++v) {
    EXPECT_NEAR((*ranks)[v], expect[v], 1e-9);
  }
}

TEST(CatalogIoTest, MissingDirectoryFails) {
  Catalog catalog;
  EXPECT_TRUE(LoadCatalog("/nonexistent/vx", &catalog).IsIoError());
}

TEST(CheckpointTest, ResumedRunMatchesUninterrupted) {
  Graph g = GenerateRmat(60, 300, 91);
  // Uninterrupted baseline.
  Catalog full;
  auto expect = RunPageRank(&full, g, 8);
  ASSERT_TRUE(expect.ok());

  // Interrupted run: checkpoint every superstep, stop after 4.
  const std::string dir = testing::TempDir() + "/vx_ckpt_resume";
  PageRankProgram program(8);
  Catalog cat;
  ASSERT_TRUE(LoadGraphTables(&cat, g, program).ok());
  VertexicaOptions opts;
  opts.max_supersteps = 4;  // "crash" after superstep 3
  opts.checkpoint_every = 1;
  opts.checkpoint_dir = dir;
  Coordinator interrupted(&cat, &program, opts);
  ASSERT_TRUE(interrupted.Run().ok());

  // Recover into a fresh catalog and resume to completion.
  Catalog recovered;
  ASSERT_TRUE(LoadCatalog(dir, &recovered).ok());
  VertexicaOptions resume;
  resume.resume_from_checkpoint = true;
  PageRankProgram program2(8);
  Coordinator resumed(&recovered, &program2, resume);
  RunStats stats;
  ASSERT_TRUE(resumed.Run(&stats).ok());
  // Resumed run starts past superstep 0 (i.e. it did not restart).
  ASSERT_FALSE(stats.supersteps.empty());
  EXPECT_GE(stats.supersteps.front().superstep, 4);

  auto ranks = ReadVertexValues(recovered, {});
  ASSERT_TRUE(ranks.ok());
  for (size_t v = 0; v < expect->size(); ++v) {
    EXPECT_NEAR((*ranks)[v], (*expect)[v], 1e-9);
  }
}

TEST(CheckpointTest, ResumedJoinPathMatchesUninterrupted) {
  Graph g = GenerateRmat(60, 300, 93);
  const std::string dir = testing::TempDir() + "/vx_ckpt_join";
  PageRankProgram program(8);
  Catalog cat;
  ASSERT_TRUE(LoadGraphTables(&cat, g, program).ok());
  VertexicaOptions opts;
  opts.use_union_input = false;
  opts.update_threshold = 2.0;  // in-place: the only joins are input builds
  opts.max_supersteps = 4;  // "crash" after superstep 3
  opts.checkpoint_every = 1;
  opts.checkpoint_dir = dir;
  Coordinator interrupted(&cat, &program, opts);
  ASSERT_TRUE(interrupted.Run().ok());

  // Uninterrupted join-path baseline.
  Catalog full;
  VertexicaOptions full_opts;
  full_opts.use_union_input = false;
  full_opts.update_threshold = 2.0;
  auto expect = RunPageRank(&full, g, 8, 0.85, full_opts);
  ASSERT_TRUE(expect.ok()) << expect.status().ToString();

  Catalog recovered;
  ASSERT_TRUE(LoadCatalog(dir, &recovered).ok());
  VertexicaOptions resume = opts;
  resume.max_supersteps = 500;
  resume.checkpoint_every = 0;
  resume.resume_from_checkpoint = true;
  PageRankProgram program2(8);
  Coordinator resumed(&recovered, &program2, resume);
  RunStats stats;
  ASSERT_TRUE(resumed.Run(&stats).ok());
  ASSERT_FALSE(stats.supersteps.empty());
  EXPECT_GE(stats.supersteps.front().superstep, 4);
  for (const SuperstepStats& s : stats.supersteps) {
    // The two input-build joins.
    EXPECT_EQ(s.hash_joins, 2) << "superstep " << s.superstep;
  }
  auto ranks = ReadVertexValues(recovered, {});
  ASSERT_TRUE(ranks.ok());
  ASSERT_EQ(ranks->size(), expect->size());
  for (size_t v = 0; v < expect->size(); ++v) {
    EXPECT_EQ((*ranks)[v], (*expect)[v]) << "vertex " << v;
  }
}

TEST(CheckpointTest, NoResumeFlagRestartsFromZero) {
  Graph g = GenerateRmat(40, 160, 92);
  const std::string dir = testing::TempDir() + "/vx_ckpt_norestart";
  PageRankProgram program(5);
  Catalog cat;
  ASSERT_TRUE(LoadGraphTables(&cat, g, program).ok());
  VertexicaOptions opts;
  opts.max_supersteps = 2;
  opts.checkpoint_every = 1;
  opts.checkpoint_dir = dir;
  Coordinator c(&cat, &program, opts);
  ASSERT_TRUE(c.Run().ok());

  Catalog recovered;
  ASSERT_TRUE(LoadCatalog(dir, &recovered).ok());
  VertexicaOptions no_resume;  // default: start at superstep 0
  PageRankProgram program2(5);
  Coordinator again(&recovered, &program2, no_resume);
  RunStats stats;
  ASSERT_TRUE(again.Run(&stats).ok());
  ASSERT_FALSE(stats.supersteps.empty());
  EXPECT_EQ(stats.supersteps.front().superstep, 0);
}

TEST(CheckpointTest, ResumedFrontierRunMatchesDenseBaseline) {
  Graph g = GenerateRmat(80, 400, 94);
  AssignRandomWeights(&g, 1.0, 4.0, 95);
  // Dense uninterrupted baseline.
  Catalog full;
  std::vector<double> dense;
  {
    ExecKnobs knobs = ExecKnobs::Current();
    knobs.frontier = FrontierMode::kOff;
    ScopedExecKnobs off(knobs);
    auto r = RunShortestPaths(&full, g, 0);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    dense = *r;
  }

  // Frontier run, checkpointed and "crashed" after superstep 1, then
  // resumed with the frontier still forced on: the resumed coordinator
  // must re-derive the active set from the restored tables (RLE halted
  // column, the vertex table's restored-by-verification id order), take
  // the frontier path on every resumed superstep and still land on the
  // dense answer bit for bit — on both input paths.
  ExecKnobs knobs = ExecKnobs::Current();
  knobs.frontier = FrontierMode::kOn;
  ScopedExecKnobs on(knobs);
  for (const bool union_input : {false, true}) {
    SCOPED_TRACE(union_input ? "union input" : "join input");
    const std::string dir = testing::TempDir() + "/vx_ckpt_frontier" +
                            (union_input ? "_union" : "_join");
    ShortestPathProgram program(0);
    Catalog cat;
    ASSERT_TRUE(LoadGraphTables(&cat, g, program).ok());
    VertexicaOptions opts;
    opts.use_union_input = union_input;
    opts.max_supersteps = 2;
    opts.checkpoint_every = 1;
    opts.checkpoint_dir = dir;
    Coordinator interrupted(&cat, &program, opts);
    ASSERT_TRUE(interrupted.Run().ok());

    Catalog recovered;
    ASSERT_TRUE(LoadCatalog(dir, &recovered).ok());
    VertexicaOptions resume = opts;
    resume.max_supersteps = 500;
    resume.checkpoint_every = 0;
    resume.resume_from_checkpoint = true;
    ShortestPathProgram program2(0);
    Coordinator resumed(&recovered, &program2, resume);
    RunStats stats;
    ASSERT_TRUE(resumed.Run(&stats).ok());
    ASSERT_FALSE(stats.supersteps.empty());
    EXPECT_GE(stats.supersteps.front().superstep, 2);
    EXPECT_GT(stats.frontier_supersteps, 0);
    EXPECT_EQ(stats.dense_supersteps, 0);

    auto dists = ReadVertexValues(recovered, {});
    ASSERT_TRUE(dists.ok());
    ASSERT_EQ(dists->size(), dense.size());
    for (size_t v = 0; v < dense.size(); ++v) {
      EXPECT_EQ((*dists)[v], dense[v]) << "vertex " << v;
    }
  }
}

// ----------------------------------- Checkpoint v2: crash atomicity

namespace fs = std::filesystem;

/// Fills a fresh catalog with a table whose contents identify the
/// checkpoint they came from. (Catalog is pinned in place — not movable —
/// so the helpers take an out-param / save directly.)
void FillTagged(Catalog* catalog, int64_t tag) {
  Table t(Schema({{"id", DataType::kInt64}, {"tag", DataType::kInt64}}));
  for (int64_t i = 0; i < 8; ++i) {
    VX_CHECK_OK(t.AppendRow({Value(i), Value(tag)}));
  }
  VX_CHECK_OK(catalog->CreateTable("t", std::move(t)));
}

Status SaveTagged(int64_t tag, const std::string& dir) {
  Catalog catalog;
  FillTagged(&catalog, tag);
  return SaveCatalog(catalog, dir);
}

int64_t ReadTag(const Catalog& catalog) {
  auto t = catalog.GetTable("t");
  VX_CHECK_OK(t.status());
  return (*t)->column(1).GetInt64(0);
}

/// A fresh checkpoint root under the test temp dir.
std::string FreshCheckpointDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

std::string CurrentGeneration(const std::string& dir) {
  std::ifstream in(dir + "/CURRENT");
  std::string name;
  in >> name;
  return name;
}

std::vector<std::string> GenerationDirs(const std::string& dir) {
  std::vector<std::string> gens;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_directory() && name.rfind("gen-", 0) == 0) {
      gens.push_back(name);
    }
  }
  std::sort(gens.begin(), gens.end());
  return gens;
}

/// Flips one byte of `path` in place (CRC damage without a size change).
void FlipByte(const std::string& path, std::streamoff offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(offset);
  char c = 0;
  f.get(c);
  f.seekp(offset);
  f.put(static_cast<char>(c ^ 0x20));
}

TEST(CatalogIoV2Test, CurrentTracksNewestAndPrunesToTwoGenerations) {
  const std::string dir = FreshCheckpointDir("vx_v2_prune");
  for (int64_t tag = 1; tag <= 4; ++tag) {
    ASSERT_TRUE(SaveTagged(tag, dir).ok());
  }
  EXPECT_EQ(CurrentGeneration(dir), "gen-000004");
  // Current + one fallback; older generations and temp dirs are pruned.
  EXPECT_EQ(GenerationDirs(dir),
            (std::vector<std::string>{"gen-000003", "gen-000004"}));
  Catalog restored;
  ASSERT_TRUE(LoadCatalog(dir, &restored).ok());
  EXPECT_EQ(ReadTag(restored), 4);
}

TEST(CatalogIoV2Test, ChecksumDamageFallsBackToPreviousGeneration) {
  const std::string dir = FreshCheckpointDir("vx_v2_crc");
  ASSERT_TRUE(SaveTagged(1, dir).ok());
  ASSERT_TRUE(SaveTagged(2, dir).ok());
  FlipByte(dir + "/" + CurrentGeneration(dir) + "/t0000.csv", 12);
  Catalog restored;
  ASSERT_TRUE(LoadCatalog(dir, &restored).ok());
  EXPECT_EQ(ReadTag(restored), 1);  // the damaged newest one is rejected
}

TEST(CatalogIoV2Test, TornTableFileFallsBack) {
  const std::string dir = FreshCheckpointDir("vx_v2_torn");
  ASSERT_TRUE(SaveTagged(1, dir).ok());
  ASSERT_TRUE(SaveTagged(2, dir).ok());
  const std::string file = dir + "/" + CurrentGeneration(dir) + "/t0000.csv";
  fs::resize_file(file, fs::file_size(file) - 5);
  Catalog restored;
  ASSERT_TRUE(LoadCatalog(dir, &restored).ok());
  EXPECT_EQ(ReadTag(restored), 1);
}

TEST(CatalogIoV2Test, MissingTableFileFallsBack) {
  const std::string dir = FreshCheckpointDir("vx_v2_missing_file");
  ASSERT_TRUE(SaveTagged(1, dir).ok());
  ASSERT_TRUE(SaveTagged(2, dir).ok());
  fs::remove(dir + "/" + CurrentGeneration(dir) + "/t0000.csv");
  Catalog restored;
  ASSERT_TRUE(LoadCatalog(dir, &restored).ok());
  EXPECT_EQ(ReadTag(restored), 1);
}

TEST(CatalogIoV2Test, EmptyManifestFallsBack) {
  const std::string dir = FreshCheckpointDir("vx_v2_empty_manifest");
  ASSERT_TRUE(SaveTagged(1, dir).ok());
  ASSERT_TRUE(SaveTagged(2, dir).ok());
  std::ofstream(dir + "/" + CurrentGeneration(dir) + "/MANIFEST",
                std::ios::trunc);
  Catalog restored;
  ASSERT_TRUE(LoadCatalog(dir, &restored).ok());
  EXPECT_EQ(ReadTag(restored), 1);
}

TEST(CatalogIoV2Test, UnsupportedHeaderIsPreciselyDiagnosed) {
  const std::string dir = FreshCheckpointDir("vx_v2_header");
  ASSERT_TRUE(SaveTagged(1, dir).ok());
  std::ofstream out(dir + "/" + CurrentGeneration(dir) + "/MANIFEST",
                    std::ios::trunc);
  out << "VERTEXICA_CHECKPOINT 99\n";
  out.close();
  Catalog restored;
  const Status st = LoadCatalog(dir, &restored);
  ASSERT_TRUE(st.IsIoError());
  EXPECT_NE(st.ToString().find("unsupported format header"),
            std::string::npos)
      << st.ToString();
  EXPECT_NE(st.ToString().find("VERTEXICA_CHECKPOINT 99"), std::string::npos);
}

TEST(CatalogIoV2Test, CurrentNamingMissingGenerationFallsBack) {
  const std::string dir = FreshCheckpointDir("vx_v2_dangling_current");
  ASSERT_TRUE(SaveTagged(1, dir).ok());
  std::ofstream out(dir + "/CURRENT", std::ios::trunc);
  out << "gen-999999\n";
  out.close();
  Catalog restored;
  ASSERT_TRUE(LoadCatalog(dir, &restored).ok());
  EXPECT_EQ(ReadTag(restored), 1);  // newest real generation wins
}

TEST(CatalogIoV2Test, EmptyDirectoryIsPreciselyDiagnosed) {
  const std::string dir = FreshCheckpointDir("vx_v2_nothing");
  fs::create_directories(dir);
  Catalog restored;
  const Status st = LoadCatalog(dir, &restored);
  ASSERT_TRUE(st.IsIoError());
  EXPECT_NE(st.ToString().find("no checkpoint"), std::string::npos)
      << st.ToString();
}

TEST(CatalogIoV2Test, FailedLoadLeavesCatalogUntouched) {
  const std::string dir = FreshCheckpointDir("vx_v2_untouched");
  ASSERT_TRUE(SaveTagged(1, dir).ok());
  FlipByte(dir + "/" + CurrentGeneration(dir) + "/t0000.csv", 12);
  Catalog catalog;
  FillTagged(&catalog, 7);  // pre-existing state
  EXPECT_FALSE(LoadCatalog(dir, &catalog).ok());  // only gen is damaged
  EXPECT_EQ(ReadTag(catalog), 7);  // nothing was partially installed
}

TEST(CatalogIoV2Test, LegacyV1LayoutIsRejected) {
  // Pre-v2 checkpoints: a bare MANIFEST next to the CSVs, no CURRENT, no
  // checksums. Nothing verifies them, so they are refused, and the
  // caller's catalog keeps its state.
  const std::string dir = FreshCheckpointDir("vx_v2_legacy");
  fs::create_directories(dir);
  Catalog legacy;
  FillTagged(&legacy, 5);
  auto table = legacy.GetTable("t");
  ASSERT_TRUE(table.ok());
  std::ofstream csv(dir + "/t0000.csv", std::ios::binary);
  csv << ToCsv(**table);
  csv.close();
  std::ofstream manifest(dir + "/MANIFEST");
  manifest << "t0000.csv\tt\tid:INT64\ttag:INT64\n";
  manifest.close();
  Catalog catalog;
  FillTagged(&catalog, 7);  // pre-existing state
  const Status st = LoadCatalog(dir, &catalog);
  ASSERT_TRUE(st.IsIoError()) << st.ToString();
  EXPECT_EQ(ReadTag(catalog), 7);  // nothing was installed
}

// Every fault site on the checkpoint path, error mode: SaveCatalog fails,
// yet the directory always restores a complete state — the previous one
// before the publish point, the new one after it. No site leaves a torn,
// unloadable mixture.
TEST(CheckpointFaultTest, InjectedErrorAtEverySiteLeavesRestorableState) {
  struct Case {
    const char* site;
    int64_t expect_tag;  // which state LoadCatalog restores after failure
  };
  const Case cases[] = {
      {"checkpoint.begin", 1},
      {"checkpoint.after_tables", 1},
      {"checkpoint.after_manifest", 1},
      {"checkpoint.after_rename", 1},   // durable but unpublished
      {"checkpoint.after_current", 2},  // published; only pruning remained
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.site);
    const std::string dir =
        FreshCheckpointDir(std::string("vx_fault_") + c.site);
    ASSERT_TRUE(SaveTagged(1, dir).ok());

    ArmFault(c.site, 1, FaultAction::kError);
    const Status st = SaveTagged(2, dir);
    DisarmAllFaults();
    ASSERT_TRUE(st.IsAborted()) << c.site << ": " << st.ToString();
    EXPECT_NE(st.ToString().find(c.site), std::string::npos);

    Catalog restored;
    ASSERT_TRUE(LoadCatalog(dir, &restored).ok());
    EXPECT_EQ(ReadTag(restored), c.expect_tag);

    // The next checkpoint after the failure publishes normally.
    ASSERT_TRUE(SaveTagged(3, dir).ok());
    Catalog after;
    ASSERT_TRUE(LoadCatalog(dir, &after).ok());
    EXPECT_EQ(ReadTag(after), 3);
  }
}

/// Baseline + interrupted-and-resumed PageRank under `opts`; the resumed
/// values must be bit-identical to the uninterrupted ones.
void RunCheckpointFaultResumeCase(const std::string& dir_name,
                                  const VertexicaOptions& base_opts) {
  Graph g = GenerateRmat(70, 350, 96);

  Catalog full;
  PageRankProgram baseline_program(8);
  ASSERT_TRUE(LoadGraphTables(&full, g, baseline_program).ok());
  Coordinator baseline(&full, &baseline_program, base_opts);
  ASSERT_TRUE(baseline.Run().ok());
  auto expect = ReadVertexValues(full, {});
  ASSERT_TRUE(expect.ok());

  // Interrupted run: checkpoint every superstep; the 3rd checkpoint fails
  // at the manifest boundary with an injected error, killing the run.
  const std::string dir = FreshCheckpointDir(dir_name);
  VertexicaOptions opts = base_opts;
  opts.checkpoint_every = 1;
  opts.checkpoint_dir = dir;
  PageRankProgram program(8);
  Catalog cat;
  ASSERT_TRUE(LoadGraphTables(&cat, g, program).ok());
  Coordinator interrupted(&cat, &program, opts);
  ArmFault("checkpoint.after_manifest", 3, FaultAction::kError);
  const Status st = interrupted.Run();
  DisarmAllFaults();
  ASSERT_TRUE(st.IsAborted()) << st.ToString();

  // Recovery: the directory restores the last good checkpoint, and the
  // resumed run finishes bit-identical to the uninterrupted baseline.
  Catalog recovered;
  ASSERT_TRUE(LoadCatalog(dir, &recovered).ok());
  VertexicaOptions resume = base_opts;
  resume.resume_from_checkpoint = true;
  PageRankProgram program2(8);
  Coordinator resumed(&recovered, &program2, resume);
  RunStats stats;
  ASSERT_TRUE(resumed.Run(&stats).ok());
  ASSERT_FALSE(stats.supersteps.empty());
  EXPECT_GT(stats.supersteps.front().superstep, 0);  // resumed, not restarted

  auto ranks = ReadVertexValues(recovered, {});
  ASSERT_TRUE(ranks.ok());
  ASSERT_EQ(ranks->size(), expect->size());
  for (size_t v = 0; v < expect->size(); ++v) {
    EXPECT_EQ((*ranks)[v], (*expect)[v]) << "vertex " << v;
  }
}

TEST(CheckpointFaultTest, FailedCheckpointResumesBitIdentical) {
  RunCheckpointFaultResumeCase("vx_fault_resume_default", {});
}

TEST(CheckpointFaultTest, FailedCheckpointResumesBitIdenticalJoinInput) {
  VertexicaOptions opts;
  opts.num_workers = 2;
  opts.num_partitions = 16;
  opts.use_union_input = false;
  RunCheckpointFaultResumeCase("vx_fault_resume_join_input", opts);
}

TEST(CoordinatorFaultTest, SuperstepFaultAbortsAndCleanRerunIsBitIdentical) {
  Graph g = GenerateRmat(60, 300, 97);

  Catalog full;
  PageRankProgram baseline_program(6);
  ASSERT_TRUE(LoadGraphTables(&full, g, baseline_program).ok());
  Coordinator baseline(&full, &baseline_program, {});
  ASSERT_TRUE(baseline.Run().ok());
  auto expect = ReadVertexValues(full, {});
  ASSERT_TRUE(expect.ok());

  // The superstep-boundary fault aborts the run mid-iteration...
  Catalog faulted;
  PageRankProgram program(6);
  ASSERT_TRUE(LoadGraphTables(&faulted, g, program).ok());
  Coordinator interrupted(&faulted, &program, {});
  ArmFault("coordinator.superstep", 3, FaultAction::kError);
  const Status st = interrupted.Run();
  DisarmAllFaults();
  ASSERT_TRUE(st.IsAborted()) << st.ToString();
  EXPECT_NE(st.ToString().find("coordinator.superstep"), std::string::npos);

  // ...and a clean rerun from fresh tables is bit-identical to the
  // baseline: the abort left no state that could bleed into a new run.
  Catalog rerun_cat;
  PageRankProgram program2(6);
  ASSERT_TRUE(LoadGraphTables(&rerun_cat, g, program2).ok());
  Coordinator rerun(&rerun_cat, &program2, {});
  ASSERT_TRUE(rerun.Run().ok());
  auto ranks = ReadVertexValues(rerun_cat, {});
  ASSERT_TRUE(ranks.ok());
  ASSERT_EQ(ranks->size(), expect->size());
  for (size_t v = 0; v < expect->size(); ++v) {
    EXPECT_EQ((*ranks)[v], (*expect)[v]) << "vertex " << v;
  }
}

TEST(CoordinatorFaultTest, ExchangeFaultAborts) {
  Graph g = GenerateRmat(50, 250, 98);
  VertexicaOptions opts;
  opts.num_partitions = 8;
  opts.use_union_input = false;

  // The message exchange follows the workers — a worker failure in a
  // distributed deployment would surface exactly here.
  Catalog cat;
  PageRankProgram program(5);
  ASSERT_TRUE(LoadGraphTables(&cat, g, program).ok());
  Coordinator interrupted(&cat, &program, opts);
  ArmFault("coordinator.exchange", 1, FaultAction::kError);
  const Status st = interrupted.Run();
  DisarmAllFaults();
  ASSERT_TRUE(st.IsAborted()) << st.ToString();
  EXPECT_NE(st.ToString().find("coordinator.exchange"), std::string::npos);

  Catalog clean;
  PageRankProgram program2(5);
  ASSERT_TRUE(LoadGraphTables(&clean, g, program2).ok());
  Coordinator rerun(&clean, &program2, opts);
  EXPECT_TRUE(rerun.Run().ok());
}

TEST(CheckpointCrashDeathTest, CrashLeavesLastGoodGenerationRestorable) {
  const std::string dir = FreshCheckpointDir("vx_crash_death");
  ASSERT_TRUE(SaveTagged(1, dir).ok());

  // The crash action _Exits with no unwinding — to everything on disk this
  // is a SIGKILL mid-checkpoint, between manifest fsync and publish.
  EXPECT_EXIT(
      {
        ArmFault("checkpoint.after_manifest", 1, FaultAction::kCrash);
        (void)SaveTagged(2, dir);
        std::exit(0);  // unreachable: the fault point exits first
      },
      ::testing::ExitedWithCode(kFaultCrashExitCode), "");

  // The kill left a .tmp- staging dir at most; the published generation is
  // intact and the next save after recovery publishes over it cleanly.
  Catalog restored;
  ASSERT_TRUE(LoadCatalog(dir, &restored).ok());
  EXPECT_EQ(ReadTag(restored), 1);
  ASSERT_TRUE(SaveTagged(3, dir).ok());
  Catalog after;
  ASSERT_TRUE(LoadCatalog(dir, &after).ok());
  EXPECT_EQ(ReadTag(after), 3);
}

// Runs only under the CI fault-injection pass (check.sh arms
// VERTEXICA_FAULTS for exactly this filter): proves the *environment*
// arming path fires in a fresh process, not just the in-process API.
TEST(FaultEnvTest, CheckpointFaultArmedViaEnvironmentFires) {
  const char* spec = std::getenv("VERTEXICA_FAULTS");
  if (spec == nullptr ||
      std::string(spec).find("checkpoint.after_manifest") ==
          std::string::npos) {
    GTEST_SKIP() << "set VERTEXICA_FAULTS=checkpoint.after_manifest=1:error "
                    "to exercise the env arming path";
  }
  const auto armed = ArmedFaultSites();
  ASSERT_NE(std::find(armed.begin(), armed.end(),
                      std::string("checkpoint.after_manifest")),
            armed.end());

  const std::string dir = FreshCheckpointDir("vx_fault_env");
  const Status st = SaveTagged(1, dir);
  ASSERT_TRUE(st.IsAborted()) << st.ToString();
  EXPECT_GT(FaultHits("checkpoint.after_manifest"), 0);

  // One-shot fault: the retry checkpoints cleanly and restores.
  ASSERT_TRUE(SaveTagged(1, dir).ok());
  Catalog restored;
  ASSERT_TRUE(LoadCatalog(dir, &restored).ok());
  EXPECT_EQ(ReadTag(restored), 1);
  DisarmAllFaults();
}

// ------------------------------------------- Edge-derived cache invalidation

TEST(CoordinatorCacheTest, EdgeTableReplacedBetweenRunsRebuildsCaches) {
  // One coordinator, two runs, the edge table replaced in between (the
  // dynamic-graph pattern): each run re-reads the graph tables and
  // rebuilds the edge structures — the join side and the CSR index — or
  // run 2 computes distances over the stale edge set. Exercised on both
  // input paths, with the frontier forced on so the CSR index is actually
  // consulted.
  const int64_t n = 20;
  Graph chain;
  chain.num_vertices = n;
  for (int64_t v = 0; v + 1 < n; ++v) chain.AddEdge(v, v + 1, 1.0);
  Graph shortcut = chain;
  shortcut.AddEdge(0, n / 2, 0.5);  // new shortest path to the back half

  ExecKnobs knobs = ExecKnobs::Current();
  knobs.frontier = FrontierMode::kOn;
  ScopedExecKnobs on(knobs);
  for (const bool union_input : {true, false}) {
    const std::string where =
        std::string(union_input ? "union" : "join") + " input";
    VertexicaOptions opts;
    opts.use_union_input = union_input;
    ShortestPathProgram program(0);
    Catalog cat;
    ASSERT_TRUE(LoadGraphTables(&cat, chain, program).ok());
    Coordinator coordinator(&cat, &program, opts);
    ASSERT_TRUE(coordinator.Run().ok()) << where;
    auto before = ReadVertexValues(cat, {});
    ASSERT_TRUE(before.ok());
    EXPECT_DOUBLE_EQ((*before)[static_cast<size_t>(n / 2)],
                     static_cast<double>(n / 2))
        << where;

    // Replace the graph tables (same coordinator!) and rerun. A fresh
    // coordinator over the same catalog is the trusted reference.
    ASSERT_TRUE(LoadGraphTables(&cat, shortcut, program).ok());
    ASSERT_TRUE(coordinator.Run().ok()) << where;
    auto after = ReadVertexValues(cat, {});
    ASSERT_TRUE(after.ok());

    Catalog fresh_cat;
    auto expect = RunShortestPaths(&fresh_cat, shortcut, 0, opts);
    ASSERT_TRUE(expect.ok());
    ASSERT_EQ(after->size(), expect->size());
    for (size_t v = 0; v < expect->size(); ++v) {
      EXPECT_EQ((*after)[v], (*expect)[v]) << where << ", vertex " << v;
    }
    // The shortcut must actually be visible: distance to the back half
    // drops, which a stale edge structure cannot produce.
    EXPECT_DOUBLE_EQ((*after)[static_cast<size_t>(n / 2)], 0.5) << where;
  }
}

// ------------------------------------------------- Label propagation

TEST(LabelPropagationTest, TwoCliquesTwoCommunities) {
  // Two 5-cliques joined by a single bridge edge.
  Graph g;
  g.num_vertices = 10;
  for (int64_t a = 0; a < 5; ++a) {
    for (int64_t b = a + 1; b < 5; ++b) g.AddEdge(a, b);
  }
  for (int64_t a = 5; a < 10; ++a) {
    for (int64_t b = a + 1; b < 10; ++b) g.AddEdge(a, b);
  }
  g.AddEdge(4, 5);
  Catalog cat;
  auto labels = RunLabelPropagation(&cat, g, 10);
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  // Within-clique agreement.
  for (int64_t v = 1; v < 5; ++v) EXPECT_EQ((*labels)[static_cast<size_t>(v)], (*labels)[0]);
  for (int64_t v = 6; v < 10; ++v) EXPECT_EQ((*labels)[static_cast<size_t>(v)], (*labels)[5]);
}

TEST(LabelPropagationTest, DeterministicAcrossConfigurations) {
  Graph g = GenerateRmat(100, 600, 82);
  Catalog cat1;
  auto l1 = RunLabelPropagation(&cat1, g, 6);
  VertexicaOptions opts;
  opts.num_workers = 2;
  opts.num_partitions = 16;
  opts.use_union_input = false;
  Catalog cat2;
  auto l2 = RunLabelPropagation(&cat2, g, 6, opts);
  ASSERT_TRUE(l1.ok());
  ASSERT_TRUE(l2.ok());
  EXPECT_EQ(*l1, *l2);
}

TEST(LabelPropagationTest, IsolatedVertexKeepsOwnLabel) {
  Graph g;
  g.num_vertices = 3;
  g.AddEdge(0, 1);
  Catalog cat;
  auto labels = RunLabelPropagation(&cat, g, 5);
  ASSERT_TRUE(labels.ok());
  EXPECT_EQ((*labels)[2], 2);
}

}  // namespace
}  // namespace vertexica
