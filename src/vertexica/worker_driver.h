/// \file worker_driver.h
/// \brief The superstep worker driver: runs one superstep's worker UDFs
/// over the vertex-batching partitions (§2.3) and collects their typed
/// outputs.
///
/// Union input — §2.3's table union, read in place. The union of the
/// vertex, edge and message tables is logical: for each vertex-batching
/// partition (PartitionOf on vertex id) the driver walks the partition's
/// vertex rows in ascending id and reads each vertex's edges as a slice of
/// the edge table's CsrIndex and its messages as a slice of a `dst`
/// grouping of the message table. No union table, partition copy,
/// per-partition sort or split pass is materialized. The per-vertex streams
/// are exactly those a stable hash partition plus a stable per-partition
/// sort of the materialized union would produce: a vertex's edges in
/// edge-table order, its messages in message-table order, the last row
/// winning for a duplicated vertex id, partitions in order and ids
/// ascending within each. On frontier supersteps the frontier is a row
/// filter: only vertices with an active row are visited.
///
/// Join input — §2.3's 3-way-join strawman. The wide
/// vertex ⟕ message ⟕ edge rows are grouped per partition by row index
/// (stably, then stably id-ordered) and each id group is parsed with the
/// msg_seq/edge_seq columns undoing the join fan-out.
///
/// Both inputs fill one WorkerSink per partition, concatenated in partition
/// order into a single WorkerOutput — the one worker-output format.

#ifndef VERTEXICA_VERTEXICA_WORKER_DRIVER_H_
#define VERTEXICA_VERTEXICA_WORKER_DRIVER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/result.h"
#include "storage/bitvector.h"
#include "storage/csr_index.h"
#include "storage/table.h"
#include "udf/transform.h"
#include "vertexica/worker.h"

namespace vertexica {

/// \brief One superstep's worker output, in partition order.
struct WorkerOutput {
  Table updates;   ///< changed vertices: (id, halted, v0..)
  Table messages;  ///< new messages: (src, dst, m0..)
  /// Aggregator partials (index into aggregator_names, partial) in
  /// partition order — the order the coordinator folds them in.
  std::vector<std::pair<int64_t, double>> aggregate_rows;
  int64_t active = 0;  ///< vertices whose Compute ran
};

/// \brief The graph tables of one (shard-)superstep, read in place.
struct UnionWorkerInput {
  const Table* vertex = nullptr;
  const Table* edge = nullptr;
  const CsrIndex* edge_index = nullptr;     ///< over edge.src
  const Table* message = nullptr;
  const CsrIndex* message_index = nullptr;  ///< over message.dst
  /// Active vertex rows of a frontier superstep over a vertex table sorted
  /// by id; null visits every vertex.
  const Bitvector* frontier = nullptr;
};

/// \brief Runs the workers over the in-place union input.
Result<WorkerOutput> RunUnionWorkers(const WorkerSharedState& shared,
                                     const UnionWorkerInput& input,
                                     const TransformParallelism& par);

/// \brief Runs the workers over the 3-way-join input (columns id, halted,
/// v0.., msender, mm0.., msg_seq, edst, eweight, edge_seq; the seq columns
/// nullable).
Result<WorkerOutput> RunJoinWorkers(const WorkerSharedState& shared,
                                    const Table& input,
                                    const TransformParallelism& par);

}  // namespace vertexica

#endif  // VERTEXICA_VERTEXICA_WORKER_DRIVER_H_
