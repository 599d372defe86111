// Tests for the Engine facade: backend registration, the AlgorithmRegistry,
// and — the point of the whole API — cross-backend parity: the same
// RunRequest produces the same per-vertex answers on every backend.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "algorithms/reference.h"
#include "api/engine.h"
#include "graphgen/generators.h"

namespace vertexica {
namespace {

// Deterministic small graphs shared by the parity suites.
Graph ParityGraph() {
  Graph g = GenerateRmat(120, 700, 13);
  AssignRandomWeights(&g, 1.0, 5.0, 13);
  return g;
}

void ExpectVectorsAgree(const std::vector<double>& actual,
                        const std::vector<double>& expect, double tolerance,
                        const std::string& label) {
  ASSERT_EQ(actual.size(), expect.size()) << label;
  for (size_t v = 0; v < expect.size(); ++v) {
    if (std::isinf(expect[v])) {
      EXPECT_TRUE(std::isinf(actual[v]))
          << label << ": vertex " << v << " should be unreachable";
    } else {
      EXPECT_NEAR(actual[v], expect[v], tolerance)
          << label << ": vertex " << v;
    }
  }
}

TEST(EngineTest, DefaultBackendsInPaperOrder) {
  Engine engine;
  EXPECT_EQ(engine.backends(),
            (std::vector<std::string>{"vertexica", "sqlgraph", "giraph",
                                      "graphdb"}));
  EXPECT_EQ(engine.default_backend(), "vertexica");
}

TEST(EngineTest, RegistryKnowsBuiltinAlgorithms) {
  Engine engine;
  const auto algorithms = engine.algorithms();
  const std::set<std::string> names(algorithms.begin(), algorithms.end());
  for (const char* algo :
       {"pagerank", "sssp", "connected_components", "triangle_count"}) {
    EXPECT_TRUE(names.count(algo) > 0) << algo;
  }
  // pagerank and sssp run everywhere; triangle_count has no graph-database
  // implementation (the paper's point about 1-hop queries stands).
  for (const std::string& backend : engine.backends()) {
    EXPECT_TRUE(engine.Supports("pagerank", backend)) << backend;
    EXPECT_TRUE(engine.Supports("sssp", backend)) << backend;
  }
  EXPECT_FALSE(engine.Supports("triangle_count", "graphdb"));
}

TEST(EngineTest, RunWithoutGraphFails) {
  Engine engine;
  auto result = engine.Run("pagerank");
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(EngineTest, UnknownAlgorithmAndBackendFail) {
  Engine engine;
  ASSERT_TRUE(engine.LoadGraph(ParityGraph()).ok());
  EXPECT_TRUE(engine.Run("no_such_algorithm").status().IsNotFound());
  EXPECT_TRUE(engine.Run("pagerank", "no_such_backend").status().IsNotFound());
  EXPECT_TRUE(engine.Run("triangle_count", "graphdb").status().IsNotFound());
}

TEST(EngineTest, BackendsPrepareLazily) {
  Engine engine;
  ASSERT_TRUE(engine.LoadGraph(ParityGraph()).ok());
  ASSERT_TRUE(engine.Run("pagerank").ok());
  EXPECT_TRUE(engine.backend("vertexica")->prepared());
  // The record-store bulk load has not been paid: no run targeted graphdb.
  EXPECT_FALSE(engine.backend("graphdb")->prepared());
}

TEST(EngineTest, RunWithoutPrepareFailsOnBareBackend) {
  VertexicaBackend backend;
  RunRequest request;
  request.algorithm = "pagerank";
  EnsureBuiltinAlgorithms();
  auto result = backend.Run(request);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(EngineTest, CustomBackendRegistration) {
  Engine engine;
  auto st = engine.RegisterBackend(std::make_unique<GiraphBackend>());
  EXPECT_TRUE(st.IsAlreadyExists());  // id clash with the built-in
  EXPECT_EQ(engine.backends().size(), 4u);
}

TEST(ApiParityTest, PageRankAgreesOnAllBackends) {
  const Graph g = ParityGraph();
  const auto expect = PageRankReference(g, 10);
  Engine engine;
  ASSERT_TRUE(engine.LoadGraph(g).ok());
  RunRequest request;
  request.algorithm = "pagerank";
  request.iterations = 10;
  for (const std::string& backend : engine.backends()) {
    request.backend = backend;
    auto result = engine.Run(request);
    ASSERT_TRUE(result.ok())
        << backend << ": " << result.status().ToString();
    EXPECT_EQ(result->backend, backend);
    EXPECT_EQ(result->algorithm, "pagerank");
    EXPECT_EQ(result->value_name, "rank");
    ExpectVectorsAgree(result->values, expect, 1e-6, backend);
  }
}

TEST(ApiParityTest, SsspAgreesOnAllBackends) {
  const Graph g = ParityGraph();
  const auto expect = DijkstraReference(g, 0);
  Engine engine;
  ASSERT_TRUE(engine.LoadGraph(g).ok());
  RunRequest request;
  request.algorithm = "sssp";
  request.source = 0;
  for (const std::string& backend : engine.backends()) {
    request.backend = backend;
    auto result = engine.Run(request);
    ASSERT_TRUE(result.ok())
        << backend << ": " << result.status().ToString();
    EXPECT_EQ(result->value_name, "dist");
    ExpectVectorsAgree(result->values, expect, 1e-9, backend);
  }
}

TEST(ApiParityTest, SsspRejectsBadSourceOnAllBackends) {
  Engine engine;
  ASSERT_TRUE(engine.LoadGraph(ParityGraph()).ok());
  RunRequest request;
  request.algorithm = "sssp";
  request.source = 1'000'000;
  for (const std::string& backend : engine.backends()) {
    request.backend = backend;
    EXPECT_TRUE(engine.Run(request).status().IsInvalidArgument()) << backend;
  }
}

TEST(ApiParityTest, ConnectedComponentsAgreeOnAllBackends) {
  Graph g = GenerateErdosRenyi(150, 180, 21);  // sparse: several components
  const auto expect = WccReference(g);
  Engine engine;
  ASSERT_TRUE(engine.LoadGraph(g).ok());
  for (const std::string& backend : engine.backends()) {
    auto result = engine.Run("connected_components", backend);
    ASSERT_TRUE(result.ok())
        << backend << ": " << result.status().ToString();
    ASSERT_EQ(result->values.size(), expect.size()) << backend;
    for (size_t v = 0; v < expect.size(); ++v) {
      EXPECT_EQ(static_cast<int64_t>(result->values[v]), expect[v])
          << backend << ": vertex " << v;
    }
  }
}

TEST(ApiParityTest, TriangleCountAgreesWhereSupported) {
  const Graph g = GenerateRmat(100, 900, 17);
  const auto expect = static_cast<double>(TriangleCountReference(g));
  Engine engine;
  ASSERT_TRUE(engine.LoadGraph(g).ok());
  for (const char* const backend : {"vertexica", "sqlgraph", "giraph"}) {
    auto result = engine.Run("triangle_count", backend);
    ASSERT_TRUE(result.ok())
        << backend << ": " << result.status().ToString();
    auto it = result->aggregates.find("triangles");
    ASSERT_NE(it, result->aggregates.end()) << backend;
    EXPECT_DOUBLE_EQ(it->second, expect) << backend;
  }
}

TEST(ApiParityTest, ThreadsKnobIsBitIdenticalToSerial) {
  // The §2.3 "parallel workers" guarantee of the morsel executor: the
  // `threads` request field must not change results at all. Run every
  // parity algorithm at threads=1 and threads=4 on the relational backends
  // and require bit-identical per-vertex values.
  const Graph g = ParityGraph();
  Engine engine;
  ASSERT_TRUE(engine.LoadGraph(g).ok());
  for (const char* const backend : {"vertexica", "sqlgraph"}) {
    for (const char* algorithm :
         {"pagerank", "sssp", "connected_components", "triangle_count"}) {
      RunRequest request;
      request.algorithm = algorithm;
      request.backend = backend;
      request.iterations = 10;
      request.source = 0;

      request.threads = 1;
      auto serial = engine.Run(request);
      ASSERT_TRUE(serial.ok())
          << backend << "/" << algorithm << ": " << serial.status().ToString();
      request.threads = 4;
      auto parallel = engine.Run(request);
      ASSERT_TRUE(parallel.ok()) << backend << "/" << algorithm << ": "
                                 << parallel.status().ToString();

      ASSERT_EQ(parallel->values.size(), serial->values.size())
          << backend << "/" << algorithm;
      for (size_t v = 0; v < serial->values.size(); ++v) {
        EXPECT_EQ(parallel->values[v], serial->values[v])
            << backend << "/" << algorithm << ": vertex " << v
            << " diverges between threads=1 and threads=4";
      }
      EXPECT_EQ(parallel->aggregates, serial->aggregates)
          << backend << "/" << algorithm;
    }
  }
}

TEST(ApiParityTest, EncodingKnobIsBitIdenticalAcrossModes) {
  // The storage-encoding knob changes only the physical representation of
  // the engine-owned tables (RLE/dictionary segments + zone maps, see
  // docs/STORAGE.md) — results must be bit-identical with encoding forced
  // on and off, on every backend.
  const Graph g = ParityGraph();
  Engine engine;
  ASSERT_TRUE(engine.LoadGraph(g).ok());
  for (const std::string& backend : engine.backends()) {
    for (const char* algorithm : {"pagerank", "sssp"}) {
      RunRequest request;
      request.algorithm = algorithm;
      request.backend = backend;
      request.iterations = 10;
      request.source = 0;

      request.encoding = "off";
      auto plain = engine.Run(request);
      ASSERT_TRUE(plain.ok())
          << backend << "/" << algorithm << ": " << plain.status().ToString();
      request.encoding = "force";
      auto encoded = engine.Run(request);
      ASSERT_TRUE(encoded.ok()) << backend << "/" << algorithm << ": "
                                << encoded.status().ToString();

      ASSERT_EQ(encoded->values.size(), plain->values.size())
          << backend << "/" << algorithm;
      for (size_t v = 0; v < plain->values.size(); ++v) {
        EXPECT_EQ(encoded->values[v], plain->values[v])
            << backend << "/" << algorithm << ": vertex " << v
            << " diverges between encoding=off and encoding=force";
      }
      EXPECT_EQ(encoded->aggregates, plain->aggregates)
          << backend << "/" << algorithm;
    }
  }
}

TEST(ApiParityTest, ThreadsKnobAgreesWithReference) {
  // threads=4 runs still match the single-threaded reference answers.
  const Graph g = ParityGraph();
  const auto expect = PageRankReference(g, 10);
  Engine engine;
  ASSERT_TRUE(engine.LoadGraph(g).ok());
  RunRequest request;
  request.algorithm = "pagerank";
  request.iterations = 10;
  request.threads = 4;
  for (const std::string& backend : engine.backends()) {
    request.backend = backend;
    auto result = engine.Run(request);
    ASSERT_TRUE(result.ok()) << backend << ": " << result.status().ToString();
    ExpectVectorsAgree(result->values, expect, 1e-6, backend);
  }
}

TEST(ApiParityTest, VertexicaOptionsPassThrough) {
  Engine engine;
  ASSERT_TRUE(engine.LoadGraph(ParityGraph()).ok());
  RunRequest request;
  request.algorithm = "pagerank";
  request.iterations = 50;
  request.vertexica.max_supersteps = 3;
  auto result = engine.Run(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.num_supersteps(), 3);
}

TEST(ApiResultTest, ToTableMaterializesValues) {
  Engine engine;
  ASSERT_TRUE(engine.LoadGraph(ParityGraph()).ok());
  auto result = engine.Run("pagerank");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  Table t = result->ToTable();
  EXPECT_EQ(t.num_rows(),
            static_cast<int64_t>(result->values.size()));
  ASSERT_NE(t.ColumnByName("rank"), nullptr);
  EXPECT_DOUBLE_EQ(t.ColumnByName("rank")->GetDouble(5), result->values[5]);
  EXPECT_EQ(t.ColumnByName("id")->GetInt64(5), 5);
}

TEST(ApiResultTest, StatsSerializeUniformly) {
  Engine engine;
  ASSERT_TRUE(engine.LoadGraph(ParityGraph()).ok());
  auto vertexica_result = engine.Run("pagerank");
  ASSERT_TRUE(vertexica_result.ok());
  const std::string json = vertexica_result->stats.ToJson();
  EXPECT_NE(json.find("\"num_supersteps\""), std::string::npos);
  EXPECT_NE(json.find("\"worker_seconds\""), std::string::npos);

  // Backends without a per-step phase breakdown still serialize the same
  // shape, and their superstep count stays truthful.
  auto giraph_result = engine.Run("pagerank", "giraph");
  ASSERT_TRUE(giraph_result.ok());
  const std::string giraph_json = giraph_result->stats.ToJson();
  EXPECT_NE(giraph_json.find("\"total_seconds\""), std::string::npos);
  EXPECT_GT(giraph_result->stats.num_supersteps(), 0);
  EXPECT_EQ(giraph_json.find("\"num_supersteps\":0,"), std::string::npos)
      << "expected nonzero superstep count in: " << giraph_json;
}

TEST(ApiResultTest, HashJoinMetricCountsSuperstepJoins) {
  // The join-input path runs its hash joins inside the superstep loop, on
  // the superstep's own collector; the run's metric counts every one.
  Engine engine;
  ASSERT_TRUE(engine.LoadGraph(ParityGraph()).ok());
  RunRequest request;
  request.algorithm = "pagerank";
  request.iterations = 5;
  request.vertexica.use_union_input = false;
  auto result = engine.Run(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  int64_t superstep_joins = 0;
  for (const SuperstepStats& s : result->stats.supersteps) {
    superstep_joins += s.hash_joins;
  }
  EXPECT_GT(superstep_joins, 0);
  ASSERT_EQ(result->backend_metrics.count("hash_joins"), 1u);
  EXPECT_EQ(result->backend_metrics.at("hash_joins"),
            static_cast<double>(superstep_joins));
}

TEST(ApiResultTest, GiraphModeledCostsSurfaceInMetrics) {
  Engine engine;
  ASSERT_TRUE(engine.LoadGraph(ParityGraph()).ok());
  RunRequest request;
  request.algorithm = "pagerank";
  request.backend = "giraph";
  request.giraph.startup_overhead_ms = 1000.0;
  auto result = engine.Run(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_DOUBLE_EQ(result->backend_metrics.at("startup_seconds"), 1.0);
  EXPECT_GE(result->stats.total_seconds, 1.0);
}

TEST(ApiResultTest, GraphDbModeledIoSurfacesInMetrics) {
  Engine engine;
  ASSERT_TRUE(engine.LoadGraph(ParityGraph()).ok());
  RunRequest request;
  request.algorithm = "pagerank";
  request.backend = "graphdb";
  request.gdb_access_latency_ns = 2000.0;
  auto result = engine.Run(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->backend_metrics.at("record_accesses"), 0.0);
  EXPECT_GT(result->backend_metrics.at("modeled_io_seconds"), 0.0);
}

TEST(ApiRegistryTest, ApplicationCanRegisterNewAlgorithm) {
  EnsureBuiltinAlgorithms();
  AlgorithmRegistry::Global()->Register(
      "vertex_count", "giraph",
      [](GraphBackend* b, const RunRequest&) -> Result<RunResult> {
        auto* backend = static_cast<GiraphBackend*>(b);
        RunResult result;
        result.aggregates["vertices"] =
            static_cast<double>(backend->graph().num_vertices);
        return result;
      });
  Engine engine;
  ASSERT_TRUE(engine.LoadGraph(ParityGraph()).ok());
  EXPECT_TRUE(engine.Supports("vertex_count", "giraph"));
  auto result = engine.Run("vertex_count", "giraph");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_DOUBLE_EQ(result->aggregates.at("vertices"), 120.0);
}

TEST(ApiRegistryTest, ReloadingGraphRepreparesBackends) {
  Engine engine;
  ASSERT_TRUE(engine.LoadGraph(ParityGraph()).ok());
  auto first = engine.Run("pagerank", "sqlgraph");
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->values.size(), 120u);

  Graph small = GenerateRmat(40, 160, 5);
  ASSERT_TRUE(engine.LoadGraph(small).ok());
  auto second = engine.Run("pagerank", "sqlgraph");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->values.size(), 40u);
}

}  // namespace
}  // namespace vertexica
