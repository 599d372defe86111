/// \file coordinator.h
/// \brief The coordinator (§2.2): the stored procedure that drives
/// supersteps — "it runs as long as there is any message for the next
/// superstep".
///
/// A run holds one vertex, one edge and one message table: the catalog
/// snapshots, replaced as supersteps rewrite them. Each superstep the
/// coordinator
///  1. assembles the worker input from the vertex/edge/message tables —
///     either as the §2.3 table union, read in place (no union table is
///     built; see vertexica/worker_driver.h), or as the traditional 3-way
///     join,
///  2. runs the worker UDFs in parallel over the vertex-batching partitions
///     (§2.3), each writing typed updates, messages and aggregator partials
///     into its partition's sink,
///  3. builds the next message table from the partitions' sinks:
///     concatenated, or — with a combiner — folded per receiver straight
///     out of the sinks, so the uncombined messages are never materialized
///     as a table (fold order: vertexica/worker_driver.h),
///  4. applies vertex updates in place or by table replacement depending on
///     the update fraction (update vs. replace), and swaps in the new
///     message table.

#ifndef VERTEXICA_VERTEXICA_COORDINATOR_H_
#define VERTEXICA_VERTEXICA_COORDINATOR_H_

#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "graphgen/graph.h"
#include "storage/bitvector.h"
#include "storage/csr_index.h"
#include "vertexica/graph_tables.h"
#include "vertexica/options.h"
#include "vertexica/vertex_program.h"
#include "vertexica/worker_driver.h"

namespace vertexica {

/// \brief Measurements for one superstep (shown in the demo GUI's time
/// monitor and consumed by the benches).
struct SuperstepStats {
  int superstep = 0;
  /// Worker input size: rows of the logical V+E+M union (on frontier
  /// supersteps the active vertex rows, their edges and every message), or
  /// of the materialized join input.
  int64_t input_rows = 0;
  int64_t active_vertices = 0;   ///< vertices whose Compute ran
  int64_t vertex_updates = 0;    ///< vertices whose state changed
  int64_t messages_sent = 0;     ///< messages for the next superstep
  double seconds = 0.0;
  bool used_replace = false;     ///< update-vs-replace decision taken

  /// \name Phase breakdown (sums to ≈ seconds)
  /// @{
  double input_seconds = 0.0;    ///< message grouping / join assembly
  double worker_seconds = 0.0;   ///< vertex batching + Compute
  /// Aggregator fold and message collection: the combiner fold over the
  /// worker sinks, or their concatenation without a combiner.
  double split_seconds = 0.0;
  double apply_seconds = 0.0;    ///< vertex update / table swaps
  /// @}

  /// \name Stored-table footprint (storage/encoding.h)
  /// Sizes of the vertex + message tables as stored at the end of the
  /// superstep: `encoded_bytes` is the actual (possibly compressed)
  /// representation, `decoded_bytes` the plain equivalent. A table a
  /// superstep rewrote is stored plain, so the two differ only by the
  /// load-time encoding of tables the run has not rewritten yet.
  /// @{
  int64_t encoded_bytes = 0;
  int64_t decoded_bytes = 0;
  /// @}

  /// \name Frontier-path accounting (common/exec_knobs.h)
  /// Whether this superstep's worker input was built from the sparse
  /// active-vertex frontier instead of the full tables, and how many
  /// vertices the frontier contained (the active-set popcount; 0 on dense
  /// supersteps).
  /// @{
  bool used_frontier = false;
  int64_t frontier_vertices = 0;
  /// @}

  /// \name Join accounting (exec/kernel_stats.h)
  /// Hash joins executed by this superstep's relational plans — the 3-way
  /// input build and the replace-path vertex rebuild — read off the
  /// superstep's own KernelStats block, which then adds its counts to the
  /// run's block. `join_rows` is rows emitted, `join_seconds` wall-clock
  /// inside the join kernels (part of input_seconds/apply_seconds, not in
  /// addition to them). `merge_joins` is always 0: it stays for readers of
  /// the older stats layout.
  /// @{
  int64_t merge_joins = 0;
  int64_t hash_joins = 0;
  int64_t join_rows = 0;
  double join_seconds = 0.0;
  /// @}
};

/// \brief Whole-run measurements.
struct RunStats {
  std::vector<SuperstepStats> supersteps;
  double total_seconds = 0.0;
  int64_t total_messages = 0;

  /// \name Frontier-vs-dense superstep counts (common/exec_knobs.h)
  /// How many supersteps took each input-build path; they sum to
  /// `supersteps.size()` when per-step stats are collected.
  /// @{
  int64_t frontier_supersteps = 0;
  int64_t dense_supersteps = 0;
  /// @}

  /// Superstep count for engines that run supersteps without a per-step
  /// phase breakdown (e.g. the BSP comparator behind the Engine facade);
  /// -1 = derive the count from `supersteps`.
  int superstep_count = -1;

  int num_supersteps() const {
    return superstep_count >= 0 ? superstep_count
                                : static_cast<int>(supersteps.size());
  }

  /// \brief Serializes totals and the per-superstep phase breakdown as a
  /// single JSON object, so benches and `RunResult` report uniformly:
  /// {"total_seconds":…,"total_messages":…,"num_supersteps":…,
  ///  "supersteps":[{"superstep":…,"input_rows":…,…},…]}.
  std::string ToJson() const;
};

/// \brief Streams `stats.ToJson()`.
std::ostream& operator<<(std::ostream& os, const RunStats& stats);

/// \brief Drives a vertex program over the graph tables in a catalog.
class Coordinator {
 public:
  Coordinator(Catalog* catalog, VertexProgram* program,
              VertexicaOptions options = {}, GraphTableNames names = {});

  /// \brief Runs supersteps until no messages remain and all vertices have
  /// voted to halt (or max_supersteps is reached).
  ///
  /// The run reads the vertex, edge and message tables from the catalog
  /// once and keeps them resident across supersteps. Per-run constants —
  /// the vertex count programs read and the update-fraction denominator —
  /// are the vertex rows at run start.
  ///
  /// The catalog is written at checkpoints and when the run completes. A
  /// run that fails or is cancelled returns its error and leaves the
  /// catalog holding the run's starting tables, or the last checkpoint's.
  /// A coordinator may run again, e.g. after the graph tables were
  /// replaced: each run re-reads them.
  Status Run(RunStats* stats = nullptr);

  /// \brief Global aggregator values from the final superstep.
  const std::map<std::string, double>& aggregates() const {
    return prev_aggregates_;
  }

 private:
  /// Shared snapshots so the morsel-parallel input build (exec/parallel.h)
  /// can range-scan the catalog tables without copying them.
  using TablePtr = std::shared_ptr<const Table>;

  /// One superstep's worker input: the in-place union view over
  /// the graph tables, or the materialized 3-way join.
  struct WorkerInput {
    UnionWorkerInput view;
    std::shared_ptr<const CsrIndex> message_index;  ///< union: dst grouping
    Table join;                                     ///< join input path
    int64_t rows = 0;  ///< SuperstepStats::input_rows
  };
  /// Assembles the worker input over the vertex, edge and message tables.
  /// Union path: groups the messages on `dst` (one pass) next to the
  /// edge table's `edge_index`; join path: runs the 3-way join against the
  /// `edge_join_side` (both built once per run). A non-null
  /// `frontier` restricts the input to the active vertex rows — a row
  /// filter on the union path, a restricted probe side on the join path —
  /// with every output bit-identical to the dense input (inactive vertices
  /// produce no output).
  Result<WorkerInput> BuildWorkerInput(const TablePtr& vertex,
                                       const TablePtr& edge,
                                       const CsrIndex* edge_index,
                                       const TablePtr& edge_join_side,
                                       const TablePtr& message,
                                       const Bitvector* frontier) const;

  /// Projects/numbers the (esrc, edst, eweight, edge_seq) join side of the
  /// edge table — the half of the join input that is the same every
  /// superstep, so a run builds it once.
  Result<TablePtr> BuildEdgeJoinSide(const TablePtr& edge) const;
  /// The per-superstep half: vertex ⟕ message ⟕ prebuilt edge side.
  Result<Table> BuildJoinInputWithEdgeSide(const TablePtr& vertex,
                                           const TablePtr& edge_side,
                                           const TablePtr& message) const;
  /// The combiner CollectMessages folds with: the program's, or kNone when
  /// use_combiner is off.
  MessageCombiner ActiveCombiner() const;
  /// In-place path of §2.3 "Update Vs Replace": copies the vertex columns
  /// and scatters the updates.
  Result<Table> UpdateVerticesInPlace(const Table& vertex,
                                      const Table& updates) const;
  /// Replace path: anti-join out updated ids, union the new rows.
  Result<Table> RebuildVertices(const Table& vertex,
                                const Table& updates) const;

  /// Re-declares the stored vertex table sorted by id when its ids are
  /// nondecreasing but the declaration is missing — checkpoint restore
  /// (catalog_io) persists no sort-order metadata, and without it a
  /// resumed run would silently run every superstep dense (the frontier
  /// requires the declaration) on either input path.
  Status RestoreSortedInvariant() const;

  Catalog* catalog_;
  VertexProgram* program_;
  VertexicaOptions options_;
  GraphTableNames names_;
  std::map<std::string, double> prev_aggregates_;
};

/// \brief Convenience entry point: loads `graph` into `catalog` (vertex,
/// edge and empty message tables) and runs the program to completion.
Status RunVertexProgram(Catalog* catalog, const Graph& graph,
                        VertexProgram* program,
                        VertexicaOptions options = {},
                        GraphTableNames names = {}, RunStats* stats = nullptr);

}  // namespace vertexica

#endif  // VERTEXICA_VERTEXICA_COORDINATOR_H_
