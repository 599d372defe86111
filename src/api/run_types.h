/// \file run_types.h
/// \brief The typed request/response pair of the `Engine` facade.
///
/// The paper's point is that the *same* vertex-centric query runs on a
/// relational engine and on native graph systems. `RunRequest` is that
/// query, stated once, backend-agnostically; `RunResult` is the uniform
/// answer every backend produces: a dense per-vertex value vector (also
/// materializable as a relational table), scalar aggregates, and unified
/// `RunStats`.

#ifndef VERTEXICA_API_RUN_TYPES_H_
#define VERTEXICA_API_RUN_TYPES_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "giraph/bsp_engine.h"
#include "storage/table.h"
#include "vertexica/coordinator.h"
#include "vertexica/options.h"

namespace vertexica {

/// \name Canonical backend ids (registration order of the default Engine)
/// @{
inline constexpr char kVertexicaBackendId[] = "vertexica";
inline constexpr char kSqlGraphBackendId[] = "sqlgraph";
inline constexpr char kGiraphBackendId[] = "giraph";
inline constexpr char kGraphDbBackendId[] = "graphdb";
/// @}

/// \name Built-in algorithm names (AlgorithmRegistry keys)
/// @{
inline constexpr char kPageRank[] = "pagerank";
inline constexpr char kSssp[] = "sssp";
inline constexpr char kConnectedComponents[] = "connected_components";
inline constexpr char kTriangleCount[] = "triangle_count";
/// @}

/// \brief One backend-agnostic algorithm invocation.
///
/// Only `algorithm` is required. Parameters an algorithm does not use are
/// ignored (e.g. `source` by pagerank), so the same request can be replayed
/// across algorithms and backends for comparison runs.
struct RunRequest {
  /// AlgorithmRegistry key: "pagerank", "sssp", "connected_components",
  /// "triangle_count", or any name registered by the application.
  std::string algorithm;

  /// Backend id; empty selects the Engine's default backend.
  std::string backend;

  /// Iteration bound for fixed-iteration algorithms (pagerank).
  int iterations = 10;

  /// PageRank damping factor.
  double damping = 0.85;

  /// Source vertex for single-source algorithms (sssp).
  int64_t source = 0;

  /// End-to-end parallelism: the one knob controlling every layer that
  /// fans out — the morsel-parallel relational executor (scans, joins,
  /// aggregates; see exec/parallel.h), Vertexica worker-UDF instances, and
  /// Giraph BSP compute threads. 0 keeps the ambient default
  /// (VERTEXICA_THREADS env var, else hardware cores); a negative value
  /// fails the run with InvalidArgument. Backend-specific knobs left at 0
  /// inherit this value; explicitly set ones
  /// (e.g. `vertexica.num_workers`) win. The graphdb backend is
  /// single-threaded by design and ignores it. On the relational backends
  /// (vertexica, sqlgraph) results are bit-identical across `threads`
  /// settings — morsel boundaries never depend on the thread count; the
  /// giraph comparator partitions vertices by worker count, so its
  /// floating-point combine order (and hence low-order bits) may vary with
  /// `threads`.
  int threads = 0;

  /// Storage-encoding policy for the engine-owned tables (see
  /// docs/STORAGE.md): "" keeps the ambient setting (VERTEXICA_ENCODING
  /// env var, else auto); "off" stores everything plain; "auto"/"on"
  /// encodes a column when the encoded footprint is smaller; "force"
  /// encodes every eligible column. Installed in the request context
  /// around the backend dispatch, like `threads`. Value-neutral: results
  /// are bit-identical across settings on every backend — only the physical
  /// representation (and SuperstepStats encoded/decoded byte counters)
  /// changes.
  ///
  /// `encoding`, `vectorized` and `frontier` take their environment
  /// variable's vocabulary, case-insensitively (ParseEncodingMode,
  /// ParseOnOff, ParseFrontierMode); any other value fails the run with
  /// InvalidArgument before it is admitted.
  std::string encoding;

  /// Execution-path policy for the relational σ/π kernels (see
  /// docs/EXECUTOR.md): "" keeps the ambient setting (VERTEXICA_VECTORIZED
  /// env var, else on); "off" pins the table-at-a-time interpreter; "on"
  /// allows the fused selection-vector path for eligible pipelines.
  /// Installed in the request context around the backend dispatch, like
  /// `threads`. Value-neutral: the fused path is bit-identical to the
  /// interpreter (only the KernelStats counters change).
  std::string vectorized;

  /// Frontier-path policy for the Vertexica superstep loop (see
  /// docs/EXECUTOR.md): "" keeps the ambient setting (VERTEXICA_FRONTIER
  /// env var, else auto); "auto" takes the sparse active-vertex path when
  /// the active fraction drops below the coordinator's threshold; "on"
  /// forces it whenever structurally possible; "off" always runs the dense
  /// path. Installed in the request context around the backend dispatch,
  /// like `threads`; backends without a superstep loop ignore it.
  /// Value-neutral: the frontier path is bit-identical to the dense path
  /// (only SuperstepStats frontier counters change).
  std::string frontier;

  /// End-to-end deadline for this run, in milliseconds; 0 and +inf mean
  /// none, and a negative or NaN value fails the run with InvalidArgument.
  /// The budget covers admission queue wait plus execution: a request
  /// still queued when it expires is shed with `DeadlineExceeded`, and a
  /// running one stops cooperatively (ParallelFor grain boundaries,
  /// coordinator superstep boundaries) with the same status. Resolved into
  /// the run's CancelToken by ExecKnobsFromRequest; see
  /// docs/DEVELOPING.md ("Fault injection & recovery") for the semantics.
  double deadline_ms = 0;

  /// \name Backend passthroughs
  /// Tuning knobs forwarded verbatim to the backend that understands them;
  /// the others ignore them.
  /// @{
  VertexicaOptions vertexica;          ///< relational-engine knobs (§2.3)
  GiraphOptions giraph;                ///< BSP comparator knobs
  double gdb_access_latency_ns = 0.0;  ///< modeled record I/O of the graph DB
  /// @}
};

/// \brief The uniform answer of every backend.
struct RunResult {
  std::string backend;     ///< id of the backend that produced this result
  std::string algorithm;   ///< registry key that was run

  /// Semantic name of the per-vertex value ("rank", "dist", "label", ...);
  /// used as the value column name by `ToTable`.
  std::string value_name = "value";

  /// Dense per-vertex output indexed by vertex id. Empty for algorithms
  /// whose only output is scalar (e.g. triangle_count).
  std::vector<double> values;

  /// Scalar outputs: global aggregator values ("pagerank_mass",
  /// "triangles") and algorithm-level scalars.
  std::map<std::string, double> aggregates;

  /// Backend-specific measurements that have no slot in RunStats, e.g.
  /// "startup_seconds" (giraph) or "record_accesses" (graphdb).
  std::map<std::string, double> backend_metrics;

  /// Unified run statistics. Backends without a superstep loop fill only
  /// the totals and leave `supersteps` empty.
  RunStats stats;

  /// \brief Materializes `values` as a relational table
  /// (id INT64, <value_name> DOUBLE) — the output is still just a table,
  /// ready for plain SQL over it.
  Table ToTable() const;
};

}  // namespace vertexica

#endif  // VERTEXICA_API_RUN_TYPES_H_
