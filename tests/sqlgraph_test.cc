// Tests for the hand-written SQL graph algorithms (§3.1–3.2), validated
// against the vertex-centric engine and the textbook references.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>

#include "algorithms/reference.h"
#include "common/string_util.h"
#include "exec/parallel.h"
#include "graphgen/generators.h"
#include "sqlgraph/clustering_coefficient.h"
#include "sqlgraph/sql_common.h"
#include "sqlgraph/sql_connected_components.h"
#include "sqlgraph/sql_pagerank.h"
#include "sqlgraph/sql_shortest_paths.h"
#include "sqlgraph/strong_overlap.h"
#include "sqlgraph/triangle_count.h"
#include "sqlgraph/weak_ties.h"
#include "storage/encoding.h"

namespace vertexica {
namespace {

Graph TriangleWithTail() {
  Graph g;
  g.num_vertices = 5;
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 0);
  g.AddEdge(1, 3);
  g.AddEdge(2, 3);
  g.AddEdge(3, 4);
  return g;
}

TEST(SqlCommonTest, MakeTablesShapes) {
  Graph g = TriangleWithTail();
  Table v = MakeVertexListTable(g);
  EXPECT_EQ(v.num_rows(), 5);
  Table e = MakeEdgeListTable(g);
  EXPECT_EQ(e.num_rows(), 6);
  EXPECT_TRUE(e.schema().HasField("weight"));
}

TEST(SqlCommonTest, UndirectedAndOriented) {
  Graph g;
  g.num_vertices = 3;
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);  // duplicate reversed
  g.AddEdge(1, 1);  // self loop dropped
  g.AddEdge(2, 1);
  auto und = UndirectedEdges(MakeEdgeListTable(g));
  ASSERT_TRUE(und.ok());
  EXPECT_EQ(und->num_rows(), 4);  // {0-1,1-0,1-2,2-1}
  auto oriented = OrientedEdges(MakeEdgeListTable(g));
  ASSERT_TRUE(oriented.ok());
  EXPECT_EQ(oriented->num_rows(), 2);  // {0<1, 1<2}
}

TEST(SqlCommonTest, GraphFromEdgeTableRoundTrip) {
  Graph g = GenerateRmat(64, 300, 3);
  AssignRandomWeights(&g, 1.0, 3.0, 4);
  auto back = GraphFromEdgeTable(MakeEdgeListTable(g));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_edges(), g.num_edges());
  EXPECT_EQ(back->src, g.src);
  EXPECT_EQ(back->weight, g.weight);
}

TEST(SqlPageRankTest, MatchesReference) {
  Graph g = GenerateRmat(150, 900, 41);
  auto sql = SqlPageRank(g, 8);
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  auto expect = PageRankReference(g, 8);
  ASSERT_EQ(sql->size(), expect.size());
  for (size_t v = 0; v < expect.size(); ++v) {
    EXPECT_NEAR((*sql)[v], expect[v], 1e-9) << "vertex " << v;
  }
}

TEST(SqlPageRankTest, RanksSumToAboutOne) {
  Graph g;
  g.num_vertices = 4;
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 0);
  auto sql = SqlPageRank(g, 20);
  ASSERT_TRUE(sql.ok());
  double sum = 0;
  for (double r : *sql) sum += r;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(SqlPageRankTest, EmptyGraph) {
  Graph g;
  g.num_vertices = 0;
  Table v(Schema({{"id", DataType::kInt64}}));
  Table e(Schema({{"src", DataType::kInt64},
                  {"dst", DataType::kInt64},
                  {"weight", DataType::kDouble}}));
  auto rank = SqlPageRank(v, e, 3);
  ASSERT_TRUE(rank.ok());
  EXPECT_EQ(rank->num_rows(), 0);
}

TEST(SqlShortestPathsTest, MatchesDijkstra) {
  Graph g = GenerateRmat(120, 700, 42);
  AssignRandomWeights(&g, 1.0, 9.0, 43);
  auto sql = SqlShortestPaths(g, 0);
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  auto expect = DijkstraReference(g, 0);
  ASSERT_EQ(sql->size(), expect.size());
  for (size_t v = 0; v < expect.size(); ++v) {
    EXPECT_DOUBLE_EQ((*sql)[v], expect[v]) << "vertex " << v;
  }
}

TEST(SqlShortestPathsTest, UnreachableIsInfinity) {
  Graph g;
  g.num_vertices = 3;
  g.AddEdge(0, 1, 2.0);
  auto sql = SqlShortestPaths(g, 0);
  ASSERT_TRUE(sql.ok());
  EXPECT_DOUBLE_EQ((*sql)[1], 2.0);
  EXPECT_TRUE(std::isinf((*sql)[2]));
}

TEST(SqlConnectedComponentsTest, MatchesUnionFind) {
  Graph g = GenerateErdosRenyi(200, 220, 46);  // sparse => many components
  auto labels = SqlConnectedComponents(g);
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  EXPECT_EQ(*labels, WccReference(g));
}

TEST(SqlConnectedComponentsTest, DirectionIgnored) {
  Graph g;
  g.num_vertices = 4;
  g.AddEdge(1, 0);  // against the "flow"
  g.AddEdge(1, 2);
  auto labels = SqlConnectedComponents(g);
  ASSERT_TRUE(labels.ok());
  EXPECT_EQ((*labels)[0], 0);
  EXPECT_EQ((*labels)[1], 0);
  EXPECT_EQ((*labels)[2], 0);
  EXPECT_EQ((*labels)[3], 3);
}

TEST(SqlConnectedComponentsTest, LongPathConverges) {
  Graph g;
  g.num_vertices = 50;
  for (int64_t v = 0; v + 1 < 50; ++v) g.AddEdge(v + 1, v);
  auto labels = SqlConnectedComponents(g);
  ASSERT_TRUE(labels.ok());
  for (int64_t v = 0; v < 50; ++v) {
    EXPECT_EQ((*labels)[static_cast<size_t>(v)], 0);
  }
}

TEST(SqlTriangleTest, CountsKnownGraph) {
  auto count = SqlTriangleCount(TriangleWithTail());
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, 2);
}

TEST(SqlTriangleTest, MatchesReferenceOnRandomGraph) {
  Graph g = GenerateRmat(100, 800, 44);
  auto count = SqlTriangleCount(g);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, TriangleCountReference(g));
}

TEST(SqlTriangleTest, PerNodeMatchesReference) {
  Graph g = GenerateRmat(80, 500, 45);
  auto per = SqlPerNodeTriangles(MakeEdgeListTable(g));
  ASSERT_TRUE(per.ok());
  auto expect = PerVertexTrianglesReference(g);
  // SQL result only has vertices with >= 1 triangle.
  int64_t nonzero = 0;
  for (int64_t c : expect) {
    if (c > 0) ++nonzero;
  }
  EXPECT_EQ(per->num_rows(), nonzero);
  for (int64_t r = 0; r < per->num_rows(); ++r) {
    const int64_t id = per->ColumnByName("id")->GetInt64(r);
    EXPECT_EQ(per->ColumnByName("triangles")->GetInt64(r),
              expect[static_cast<size_t>(id)])
        << "vertex " << id;
  }
}

TEST(SqlStrongOverlapTest, FindsCommonNeighborPairs) {
  // 0 and 1 share neighbours {2, 3}; all others share fewer.
  Graph g;
  g.num_vertices = 5;
  g.AddEdge(0, 2);
  g.AddEdge(0, 3);
  g.AddEdge(1, 2);
  g.AddEdge(1, 3);
  g.AddEdge(4, 2);
  auto overlap = SqlStrongOverlap(g, 2);
  ASSERT_TRUE(overlap.ok()) << overlap.status().ToString();
  // In the undirected view, (0,1) share {2,3} and (2,3) share {0,1}.
  ASSERT_EQ(overlap->num_rows(), 2);
  EXPECT_EQ(overlap->ColumnByName("a")->GetInt64(0), 0);
  EXPECT_EQ(overlap->ColumnByName("b")->GetInt64(0), 1);
  EXPECT_EQ(overlap->ColumnByName("common")->GetInt64(0), 2);
  EXPECT_EQ(overlap->ColumnByName("a")->GetInt64(1), 2);
  EXPECT_EQ(overlap->ColumnByName("b")->GetInt64(1), 3);
  EXPECT_EQ(overlap->ColumnByName("common")->GetInt64(1), 2);
}

TEST(SqlStrongOverlapTest, ThresholdOne) {
  Graph g;
  g.num_vertices = 3;
  g.AddEdge(0, 2);
  g.AddEdge(1, 2);
  auto overlap = SqlStrongOverlap(g, 1);
  ASSERT_TRUE(overlap.ok());
  // Pairs sharing >= 1 neighbour: (0,1) via 2. Note 0 and 2 share none.
  ASSERT_EQ(overlap->num_rows(), 1);
}

TEST(SqlWeakTiesTest, BridgeNodeScoresHighest) {
  // Star: 0 connects 1..4, none of which interconnect => 0 bridges all 6
  // pairs; leaves bridge none.
  Graph g;
  g.num_vertices = 5;
  for (int64_t v = 1; v < 5; ++v) g.AddEdge(0, v);
  auto ties = SqlWeakTies(g, 1);
  ASSERT_TRUE(ties.ok()) << ties.status().ToString();
  ASSERT_EQ(ties->num_rows(), 1);
  EXPECT_EQ(ties->ColumnByName("id")->GetInt64(0), 0);
  EXPECT_EQ(ties->ColumnByName("open_pairs")->GetInt64(0), 6);
}

TEST(SqlWeakTiesTest, TriangleHasNoWeakTies) {
  Graph g;
  g.num_vertices = 3;
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 0);
  auto ties = SqlWeakTies(g, 1);
  ASSERT_TRUE(ties.ok());
  EXPECT_EQ(ties->num_rows(), 0);
}

TEST(ClusteringCoefficientTest, KnownValues) {
  auto cc = SqlClusteringCoefficients(TriangleWithTail());
  ASSERT_TRUE(cc.ok()) << cc.status().ToString();
  // Vertex 1: neighbours {0,2,3}, edges among them: (0,2),(2,3) => 2/3.
  for (int64_t r = 0; r < cc->num_rows(); ++r) {
    const int64_t id = cc->ColumnByName("id")->GetInt64(r);
    const double coeff = cc->ColumnByName("coeff")->GetDouble(r);
    if (id == 1) {
      EXPECT_NEAR(coeff, 2.0 / 3.0, 1e-9);
    }
    if (id == 4) {
      EXPECT_DOUBLE_EQ(coeff, 0.0);  // degree 1
    }
  }
}

TEST(ClusteringCoefficientTest, CompleteGraphIsOne) {
  Graph g;
  g.num_vertices = 4;
  for (int64_t a = 0; a < 4; ++a) {
    for (int64_t b = a + 1; b < 4; ++b) g.AddEdge(a, b);
  }
  auto global = SqlGlobalClusteringCoefficient(g);
  ASSERT_TRUE(global.ok());
  EXPECT_NEAR(*global, 1.0, 1e-9);
  auto cc = SqlClusteringCoefficients(g);
  ASSERT_TRUE(cc.ok());
  for (int64_t r = 0; r < cc->num_rows(); ++r) {
    EXPECT_NEAR(cc->ColumnByName("coeff")->GetDouble(r), 1.0, 1e-9);
  }
}

TEST(ClusteringCoefficientTest, MaxClusteringVertex) {
  // Vertex 4 sits in a triangle with 5,6 (coeff 1); vertex 0 is a star
  // centre (coeff 0).
  Graph g;
  g.num_vertices = 7;
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(0, 3);
  g.AddEdge(4, 5);
  g.AddEdge(5, 6);
  g.AddEdge(6, 4);
  auto best = SqlMaxClusteringVertex(MakeEdgeListTable(g));
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(*best, 4);  // ties (4,5,6) broken by lowest id
}

TEST(SqlErrorPathTest, MissingColumnsSurfaceErrors) {
  Table bad(Schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}}));
  Table vertices(Schema({{"id", DataType::kInt64}}));
  VX_CHECK_OK(vertices.AppendRow({Value(int64_t{0})}));
  // SqlPageRank requires src/dst.
  EXPECT_FALSE(SqlPageRank(vertices, bad, 2).ok());
  // Shortest paths additionally needs weight.
  Table no_weight(Schema({{"src", DataType::kInt64},
                          {"dst", DataType::kInt64}}));
  EXPECT_FALSE(SqlShortestPaths(vertices, no_weight, 0).ok());
  // Strong overlap over a table without src/dst.
  EXPECT_FALSE(SqlStrongOverlap(bad, 1).ok());
}

TEST(SqlErrorPathTest, EmptyEdgeTablesAreFine) {
  Table empty(Schema({{"src", DataType::kInt64},
                      {"dst", DataType::kInt64},
                      {"weight", DataType::kDouble}}));
  auto tri = SqlTriangleCount(empty);
  ASSERT_TRUE(tri.ok());
  EXPECT_EQ(*tri, 0);
  auto overlap = SqlStrongOverlap(empty, 1);
  ASSERT_TRUE(overlap.ok());
  EXPECT_EQ(overlap->num_rows(), 0);
  auto ties = SqlWeakTies(empty, 1);
  ASSERT_TRUE(ties.ok());
  EXPECT_EQ(ties->num_rows(), 0);
}

TEST(ClusteringCoefficientTest, EmptyEdgesNotFound) {
  Table e(Schema({{"src", DataType::kInt64},
                  {"dst", DataType::kInt64},
                  {"weight", DataType::kDouble}}));
  EXPECT_TRUE(SqlMaxClusteringVertex(e).status().IsNotFound());
}


// ---------------------------------------------------------------------------
// Golden pins for the SQL backend. FNV digests (the `%.17g` scheme of the
// vertexica GoldenTest) of every output row, in output order, of SQL
// PageRank, SSSP and connected components on the vertexica golden graphs
// plus one graph wide enough to span several morsels. The digests were
// recorded from the row-at-a-time join, aggregate and expression kernels;
// every thread count and encoding mode must reproduce them bit for bit.
// ---------------------------------------------------------------------------

uint64_t Fnv1a(uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h ^ 0xff;  // field separator
}

std::string TableDigest(const Table& t) {
  uint64_t h = 14695981039346656037ull;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    for (int c = 0; c < t.num_columns(); ++c) {
      const Column& col = t.column(c);
      char buf[40];
      if (col.IsNull(r)) {
        std::snprintf(buf, sizeof(buf), "null");
      } else {
        std::snprintf(buf, sizeof(buf), "%.17g", col.GetNumeric(r));
      }
      h = Fnv1a(h, buf);
    }
  }
  return StringFormat("%016llx", static_cast<unsigned long long>(h));
}

TEST(GoldenTest, SqlBackendMatchesRecordedDigests) {
  Graph rmat = GenerateRmat(300, 2400, 101);
  AssignRandomWeights(&rmat, 1.0, 5.0, 102);
  Graph ring = GenerateWattsStrogatz(250, 4, 0.2, 103);
  AssignRandomWeights(&ring, 1.0, 5.0, 104);
  Graph wide = GenerateRmat(4096, 40000, 105);
  AssignRandomWeights(&wide, 1.0, 5.0, 106);
  const std::map<std::string, const Graph*> graphs = {
      {"rmat", &rmat}, {"ring", &ring}, {"wide", &wide}};
  static const std::map<std::string, std::string> kDigests = {
      {"ring/pagerank", "741ac30a34776433"},
      {"ring/sssp", "9fee32e61a156b7a"},
      {"ring/cc", "0982a5d956611b92"},
      {"rmat/pagerank", "4265f7122cbfe770"},
      {"rmat/sssp", "3839266b1aa407b8"},
      {"rmat/cc", "8da391bbdcc63d85"},
      {"wide/pagerank", "0441f376c9dfae0e"},
      {"wide/sssp", "7b59031d0e6a20e9"},
      {"wide/cc", "8773f145356e716c"},
  };
  std::string actual_table;
  size_t checked = 0;
  for (const auto& [gname, graph] : graphs) {
    const Table vertices = MakeVertexListTable(*graph);
    const Table edges = MakeEdgeListTable(*graph);
    for (const char* algo : {"pagerank", "sssp", "cc"}) {
      const std::string key = gname + "/" + algo;
      std::string first;
      for (const int threads : {1, 8}) {
        for (const EncodingMode enc :
             {EncodingMode::kOff, EncodingMode::kAuto, EncodingMode::kForce}) {
          ExecKnobs knobs = ExecKnobs::Current();
          knobs.threads = threads;
          knobs.encoding = enc;
          ScopedExecKnobs scope(knobs);
          Result<Table> out = Status::Internal("unset");
          if (std::string(algo) == "pagerank") {
            out = SqlPageRank(vertices, edges, 8);
          } else if (std::string(algo) == "sssp") {
            out = SqlShortestPaths(vertices, edges, 0);
          } else {
            out = SqlConnectedComponents(vertices, edges);
          }
          ASSERT_TRUE(out.ok()) << key << ": " << out.status().ToString();
          const std::string got = TableDigest(*out);
          if (first.empty()) {
            first = got;
            actual_table += StringFormat("      {\"%s\", \"%s\"},\n",
                                         key.c_str(), got.c_str());
          }
          EXPECT_EQ(got, first) << key << " threads=" << threads
                                << " encoding=" << EncodingModeName(enc);
          const auto it = kDigests.find(key);
          if (it != kDigests.end()) {
            EXPECT_EQ(got, it->second)
                << key << " threads=" << threads
                << " encoding=" << EncodingModeName(enc);
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 9u * 6u) << "recorded table:\n" << actual_table;
}

}  // namespace
}  // namespace vertexica
