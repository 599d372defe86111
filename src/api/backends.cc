#include "api/backends.h"

#include <limits>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "algorithms/connected_components.h"
#include "algorithms/pagerank.h"
#include "algorithms/sssp.h"
#include "algorithms/triangle_program.h"
#include "api/exec_context.h"
#include "common/timer.h"
#include "exec/kernel_stats.h"
#include "giraph/bsp_engine.h"
#include "graphdb/gdb_algorithms.h"
#include "sqlgraph/sql_common.h"
#include "sqlgraph/sql_connected_components.h"
#include "sqlgraph/sql_pagerank.h"
#include "sqlgraph/sql_shortest_paths.h"
#include "sqlgraph/triangle_count.h"
#include "vertexica/coordinator.h"
#include "vertexica/graph_tables.h"

namespace vertexica {

Result<RunResult> RegistryBackend::Run(const RunRequest& request) {
  if (!prepared()) {
    return Status::InvalidArgument("backend '" + id_ +
                                   "' has no prepared graph — call Prepare "
                                   "(or Engine::LoadGraph) first");
  }
  VX_ASSIGN_OR_RETURN(
      AlgorithmRegistry::Factory factory,
      AlgorithmRegistry::Global()->Find(request.algorithm, id_));
  // Resolve the request's knob overrides (threads, encoding, frontier,
  // vectorized) against the current context into one explicit
  // context, then install it around the dispatch: every layer that reads
  // a knob (exec kernels, the graph-table loader, the superstep
  // coordinator, BSP compute threads) and every pool task they submit
  // runs under this request's configuration.
  VX_ASSIGN_OR_RETURN(ExecKnobs knobs, ExecKnobsFromRequest(request));
  // One per-run counter block (not process-wide atomics): concurrent runs
  // on one server never interleave their counters. It rides the context
  // into every pool task; the coordinator's per-superstep blocks add
  // their counts to it.
  KernelStats kernel_stats;
  knobs.kernel_stats = &kernel_stats;
  const ScopedExecKnobs scoped_knobs(knobs);
  VX_ASSIGN_OR_RETURN(RunResult result, factory(this, request));
  result.backend = id_;
  result.algorithm = request.algorithm;
  const KernelStatsSnapshot kernels = Snapshot(kernel_stats);
  auto& metrics = result.backend_metrics;
  if (kernels.bytes_materialized > 0 || kernels.fused_batches > 0 ||
      kernels.legacy_batches > 0 || kernels.batch_hash_rows > 0) {
    metrics["bytes_materialized"] =
        static_cast<double>(kernels.bytes_materialized);
    metrics["fused_batches"] = static_cast<double>(kernels.fused_batches);
    metrics["legacy_batches"] = static_cast<double>(kernels.legacy_batches);
    metrics["batch_hash_rows"] = static_cast<double>(kernels.batch_hash_rows);
  }
  if (kernels.hash_joins > 0) {
    metrics["hash_joins"] = static_cast<double>(kernels.hash_joins);
  }
  if (kernels.ranges_checked > 0) {
    metrics["ranges_checked"] = static_cast<double>(kernels.ranges_checked);
    metrics["ranges_pruned"] = static_cast<double>(kernels.ranges_pruned);
    metrics["rows_pruned"] = static_cast<double>(kernels.rows_pruned);
  }
  return result;
}

Status VertexicaBackend::Prepare(std::shared_ptr<const Graph> graph) {
  // The vertex/message tables are (re)materialized per run because initial
  // vertex values depend on the program; the edge table is program-
  // independent, so it is built (sorted, encoded, zone-mapped) exactly once
  // here and shared immutably by every run's private catalog.
  VX_RETURN_NOT_OK(SetGraph(std::move(graph)));
  VX_RETURN_NOT_OK(LoadEdgeTable(&base_catalog_, *graph_));
  return Status::OK();
}

Status SqlGraphBackend::Prepare(std::shared_ptr<const Graph> graph) {
  VX_RETURN_NOT_OK(SetGraph(std::move(graph)));
  vertices_ = MakeVertexListTable(*graph_);
  edges_ = MakeEdgeListTable(*graph_);
  return Status::OK();
}

Status GiraphBackend::Prepare(std::shared_ptr<const Graph> graph) {
  VX_RETURN_NOT_OK(SetGraph(std::move(graph)));
  return Status::OK();
}

Status GraphDbBackend::Prepare(std::shared_ptr<const Graph> graph) {
  VX_RETURN_NOT_OK(SetGraph(std::move(graph)));
  db_ = std::make_unique<graphdb::GraphDb>();
  VX_RETURN_NOT_OK(db_->LoadGraph(*graph_));
  return Status::OK();
}

Result<RunResult> GraphDbBackend::Run(const RunRequest& request) {
  // One run at a time: even "read-only" gdb algorithms bump record access
  // counters and commit results as node properties (see backends.h).
  std::lock_guard<std::mutex> lock(run_mutex_);
  return RegistryBackend::Run(request);
}

namespace {

Status ValidateSource(const Graph& graph, int64_t source) {
  if (source < 0 || source >= graph.num_vertices) {
    return Status::InvalidArgument(
        "source vertex " + std::to_string(source) + " outside [0, " +
        std::to_string(graph.num_vertices) + ")");
  }
  return Status::OK();
}

/// Scatters an (id, <value_col>) result table into a dense vector indexed
/// by vertex id; ids absent from the table keep `fill`.
Result<std::vector<double>> DenseFromTable(const Table& t,
                                           const std::string& value_col,
                                           int64_t num_vertices, double fill) {
  const Column* ids = t.ColumnByName("id");
  const Column* vals = t.ColumnByName(value_col);
  if (ids == nullptr || vals == nullptr) {
    return Status::Internal("result table lacks (id, " + value_col +
                            ") columns");
  }
  std::vector<double> out(static_cast<size_t>(num_vertices), fill);
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    const int64_t id = ids->GetInt64(r);
    if (id < 0 || id >= num_vertices) {
      return Status::OutOfRange("vertex id " + std::to_string(id) +
                                " outside the prepared graph");
    }
    out[static_cast<size_t>(id)] = vals->GetNumeric(r);
  }
  return out;
}

/// Runs `program` on the Vertexica coordinator over `graph`, filling the
/// unified result (values, aggregates, full superstep stats). Pass
/// `extract_values` = false for aggregate-only algorithms to skip the
/// full vertex-table scan.
Result<RunResult> RunOnCoordinator(VertexicaBackend* backend,
                                   const Graph& graph, VertexProgram* program,
                                   const RunRequest& request,
                                   bool extract_values = true) {
  RunResult result;
  // Each run gets a private catalog — the coordinator replaces the vertex
  // and message tables every superstep, which must stay run-local so
  // concurrent runs on one backend don't see each other's supersteps.
  // Runs on the prepared base graph seed it copy-on-write from the
  // backend's snapshot and reuse the shared immutable edge table;
  // algorithms that run on a transformed temporary graph (cc's
  // WithReverseEdges, triangle's CanonicallyOriented) load a full private
  // table set instead.
  const bool on_base_graph = (&graph == &backend->graph());
  Catalog catalog(on_base_graph ? backend->base_snapshot()
                                : CatalogSnapshot());
  if (on_base_graph) {
    VX_RETURN_NOT_OK(LoadProgramTables(&catalog, graph, *program));
  } else {
    VX_RETURN_NOT_OK(LoadGraphTables(&catalog, graph, *program));
  }
  Coordinator coordinator(&catalog, program, request.vertexica);
  VX_RETURN_NOT_OK(coordinator.Run(&result.stats));
  if (extract_values) {
    VX_ASSIGN_OR_RETURN(result.values, ReadVertexValues(catalog, {}));
  }
  result.aggregates = coordinator.aggregates();
  return result;
}

/// Runs `program` on the BSP comparator over `graph`, mapping GiraphStats
/// onto the unified stats + backend_metrics.
Result<RunResult> RunOnBsp(const Graph& graph, VertexProgram* program,
                           const RunRequest& request,
                           bool extract_values = true) {
  RunResult result;
  BspEngine engine(graph, program, request.giraph);
  GiraphStats stats;
  VX_RETURN_NOT_OK(engine.Run(&stats));
  if (extract_values) result.values = engine.values(0);
  result.aggregates = engine.aggregates();
  result.stats.total_seconds = stats.total_seconds;
  result.stats.total_messages = stats.total_messages;
  result.stats.superstep_count = stats.supersteps;
  result.backend_metrics["compute_seconds"] = stats.compute_seconds;
  result.backend_metrics["startup_seconds"] = stats.startup_seconds;
  result.backend_metrics["message_seconds"] = stats.message_seconds;
  return result;
}

/// Copies the GraphDb logical-I/O report onto the unified stats.
void FillGdbMetrics(const graphdb::GdbRunStats& stats, RunResult* result) {
  result->stats.total_seconds = stats.total_seconds;
  result->backend_metrics["measured_seconds"] = stats.seconds;
  result->backend_metrics["modeled_io_seconds"] = stats.modeled_io_seconds;
  result->backend_metrics["record_accesses"] =
      static_cast<double>(stats.TotalAccesses());
}

void RegisterVertexicaAlgorithms(AlgorithmRegistry* registry) {
  registry->Register(kPageRank, kVertexicaBackendId,
                     [](GraphBackend* b, const RunRequest& req) -> Result<RunResult> {
    auto* backend = static_cast<VertexicaBackend*>(b);
    PageRankProgram program(req.iterations, req.damping);
    VX_ASSIGN_OR_RETURN(
        RunResult result,
        RunOnCoordinator(backend, backend->graph(), &program, req));
    result.value_name = "rank";
    return result;
  });
  registry->Register(kSssp, kVertexicaBackendId,
                     [](GraphBackend* b, const RunRequest& req) -> Result<RunResult> {
    auto* backend = static_cast<VertexicaBackend*>(b);
    VX_RETURN_NOT_OK(ValidateSource(backend->graph(), req.source));
    ShortestPathProgram program(req.source);
    VX_ASSIGN_OR_RETURN(
        RunResult result,
        RunOnCoordinator(backend, backend->graph(), &program, req));
    result.value_name = "dist";
    return result;
  });
  registry->Register(kConnectedComponents, kVertexicaBackendId,
                     [](GraphBackend* b, const RunRequest& req) -> Result<RunResult> {
    auto* backend = static_cast<VertexicaBackend*>(b);
    ConnectedComponentsProgram program;
    VX_ASSIGN_OR_RETURN(
        RunResult result,
        RunOnCoordinator(backend, backend->graph().WithReverseEdges(),
                         &program, req));
    result.value_name = "label";
    return result;
  });
  registry->Register(kTriangleCount, kVertexicaBackendId,
                     [](GraphBackend* b, const RunRequest& req) -> Result<RunResult> {
    auto* backend = static_cast<VertexicaBackend*>(b);
    TriangleCountProgram program;
    VX_ASSIGN_OR_RETURN(
        RunResult result,
        RunOnCoordinator(backend, CanonicallyOriented(backend->graph()),
                         &program, req, /*extract_values=*/false));
    if (result.aggregates.find("triangles") == result.aggregates.end()) {
      result.aggregates["triangles"] = 0.0;
    }
    return result;
  });
}

void RegisterSqlGraphAlgorithms(AlgorithmRegistry* registry) {
  registry->Register(kPageRank, kSqlGraphBackendId,
                     [](GraphBackend* b, const RunRequest& req) -> Result<RunResult> {
    auto* backend = static_cast<SqlGraphBackend*>(b);
    RunResult result;
    WallTimer timer;
    VX_ASSIGN_OR_RETURN(Table ranks,
                        SqlPageRank(backend->vertices(), backend->edges(),
                                    req.iterations, req.damping));
    result.stats.total_seconds = timer.ElapsedSeconds();
    VX_ASSIGN_OR_RETURN(
        result.values,
        DenseFromTable(ranks, "rank", backend->graph().num_vertices, 0.0));
    result.value_name = "rank";
    return result;
  });
  registry->Register(kSssp, kSqlGraphBackendId,
                     [](GraphBackend* b, const RunRequest& req) -> Result<RunResult> {
    auto* backend = static_cast<SqlGraphBackend*>(b);
    VX_RETURN_NOT_OK(ValidateSource(backend->graph(), req.source));
    RunResult result;
    WallTimer timer;
    VX_ASSIGN_OR_RETURN(Table dist,
                        SqlShortestPaths(backend->vertices(),
                                         backend->edges(), req.source));
    result.stats.total_seconds = timer.ElapsedSeconds();
    VX_ASSIGN_OR_RETURN(
        result.values,
        DenseFromTable(dist, "dist", backend->graph().num_vertices,
                       std::numeric_limits<double>::infinity()));
    result.value_name = "dist";
    return result;
  });
  registry->Register(kConnectedComponents, kSqlGraphBackendId,
                     [](GraphBackend* b, const RunRequest&) -> Result<RunResult> {
    auto* backend = static_cast<SqlGraphBackend*>(b);
    RunResult result;
    WallTimer timer;
    VX_ASSIGN_OR_RETURN(
        Table labels,
        SqlConnectedComponents(backend->vertices(), backend->edges()));
    result.stats.total_seconds = timer.ElapsedSeconds();
    VX_ASSIGN_OR_RETURN(
        result.values,
        DenseFromTable(labels, "label", backend->graph().num_vertices, 0.0));
    result.value_name = "label";
    return result;
  });
  registry->Register(kTriangleCount, kSqlGraphBackendId,
                     [](GraphBackend* b, const RunRequest&) -> Result<RunResult> {
    auto* backend = static_cast<SqlGraphBackend*>(b);
    RunResult result;
    WallTimer timer;
    VX_ASSIGN_OR_RETURN(int64_t count, SqlTriangleCount(backend->edges()));
    result.stats.total_seconds = timer.ElapsedSeconds();
    result.aggregates["triangles"] = static_cast<double>(count);
    return result;
  });
}

void RegisterGiraphAlgorithms(AlgorithmRegistry* registry) {
  registry->Register(kPageRank, kGiraphBackendId,
                     [](GraphBackend* b, const RunRequest& req) -> Result<RunResult> {
    auto* backend = static_cast<GiraphBackend*>(b);
    PageRankProgram program(req.iterations, req.damping);
    VX_ASSIGN_OR_RETURN(RunResult result,
                        RunOnBsp(backend->graph(), &program, req));
    result.value_name = "rank";
    return result;
  });
  registry->Register(kSssp, kGiraphBackendId,
                     [](GraphBackend* b, const RunRequest& req) -> Result<RunResult> {
    auto* backend = static_cast<GiraphBackend*>(b);
    VX_RETURN_NOT_OK(ValidateSource(backend->graph(), req.source));
    ShortestPathProgram program(req.source);
    VX_ASSIGN_OR_RETURN(RunResult result,
                        RunOnBsp(backend->graph(), &program, req));
    result.value_name = "dist";
    return result;
  });
  registry->Register(kConnectedComponents, kGiraphBackendId,
                     [](GraphBackend* b, const RunRequest& req) -> Result<RunResult> {
    auto* backend = static_cast<GiraphBackend*>(b);
    ConnectedComponentsProgram program;
    VX_ASSIGN_OR_RETURN(
        RunResult result,
        RunOnBsp(backend->graph().WithReverseEdges(), &program, req));
    result.value_name = "label";
    return result;
  });
  registry->Register(kTriangleCount, kGiraphBackendId,
                     [](GraphBackend* b, const RunRequest& req) -> Result<RunResult> {
    auto* backend = static_cast<GiraphBackend*>(b);
    TriangleCountProgram program;
    VX_ASSIGN_OR_RETURN(
        RunResult result,
        RunOnBsp(CanonicallyOriented(backend->graph()), &program, req,
                 /*extract_values=*/false));
    if (result.aggregates.find("triangles") == result.aggregates.end()) {
      result.aggregates["triangles"] = 0.0;
    }
    return result;
  });
}

void RegisterGraphDbAlgorithms(AlgorithmRegistry* registry) {
  registry->Register(kPageRank, kGraphDbBackendId,
                     [](GraphBackend* b, const RunRequest& req) -> Result<RunResult> {
    auto* backend = static_cast<GraphDbBackend*>(b);
    RunResult result;
    graphdb::GdbRunStats stats;
    stats.access_latency_ns = req.gdb_access_latency_ns;
    VX_ASSIGN_OR_RETURN(result.values,
                        graphdb::GdbPageRank(backend->db(), req.iterations,
                                             req.damping, &stats));
    FillGdbMetrics(stats, &result);
    result.value_name = "rank";
    return result;
  });
  registry->Register(kSssp, kGraphDbBackendId,
                     [](GraphBackend* b, const RunRequest& req) -> Result<RunResult> {
    auto* backend = static_cast<GraphDbBackend*>(b);
    VX_RETURN_NOT_OK(ValidateSource(backend->graph(), req.source));
    RunResult result;
    graphdb::GdbRunStats stats;
    stats.access_latency_ns = req.gdb_access_latency_ns;
    VX_ASSIGN_OR_RETURN(
        result.values,
        graphdb::GdbShortestPaths(backend->db(), req.source, &stats));
    FillGdbMetrics(stats, &result);
    result.value_name = "dist";
    return result;
  });
  registry->Register(kConnectedComponents, kGraphDbBackendId,
                     [](GraphBackend* b, const RunRequest& req) -> Result<RunResult> {
    auto* backend = static_cast<GraphDbBackend*>(b);
    RunResult result;
    graphdb::GdbRunStats stats;
    stats.access_latency_ns = req.gdb_access_latency_ns;
    VX_ASSIGN_OR_RETURN(std::vector<int64_t> labels,
                        graphdb::GdbConnectedComponents(backend->db(),
                                                        &stats));
    result.values.assign(labels.begin(), labels.end());
    FillGdbMetrics(stats, &result);
    result.value_name = "label";
    return result;
  });
}

}  // namespace

void EnsureBuiltinAlgorithms() {
  static std::once_flag once;
  std::call_once(once, [] {
    AlgorithmRegistry* registry = AlgorithmRegistry::Global();
    RegisterVertexicaAlgorithms(registry);
    RegisterSqlGraphAlgorithms(registry);
    RegisterGiraphAlgorithms(registry);
    RegisterGraphDbAlgorithms(registry);
  });
}

}  // namespace vertexica
