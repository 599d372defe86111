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
/// filter: only vertices with an active row are visited. When the edge
/// index is the identity order (a loader-built edge table) a vertex's edge
/// slice is a contiguous run of the edge columns and Compute reads it in
/// place; otherwise the slice is gathered into scratch.
///
/// Join input — §2.3's 3-way-join strawman. The wide
/// vertex ⟕ message ⟕ edge rows are grouped per partition by row index
/// (stably, then stably id-ordered) and each id group is parsed with the
/// msg_seq/edge_seq columns undoing the join fan-out; a duplicated vertex
/// id's last row wins here too.
///
/// Both inputs fill one WorkerSink per partition. The updates and aggregator
/// partials are concatenated in partition order into a WorkerOutput; the
/// messages stay in the sinks until CollectMessages turns them into the
/// next superstep's message table — concatenated, or folded per receiver
/// by the program's combiner without materializing the uncombined rows.
///
/// Combiner fold order. The combiners run on the typed fold
/// (exec/typed_fold.h) over the partition-order message sequence, cut into
/// chunks of kDefaultMorselRows rows — the association the chunk-parallel
/// hash aggregate (exec/parallel.h) gives a GROUP BY dst over the
/// concatenated messages, so the combined table is the same in rows,
/// order and bits. Chunks fold in parallel; boundaries never depend on the
/// thread count.

#ifndef VERTEXICA_VERTEXICA_WORKER_DRIVER_H_
#define VERTEXICA_VERTEXICA_WORKER_DRIVER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/cache_sizing.h"
#include "common/result.h"
#include "storage/bitvector.h"
#include "storage/csr_index.h"
#include "storage/table.h"
#include "vertexica/worker.h"

namespace vertexica {

/// \brief A superstep's resolved (workers, partitions) pair;
/// partitions >= workers >= 1.
struct WorkerParallelism {
  int workers = 1;
  int partitions = 1;
};

/// \brief Resolves VertexicaOptions::num_partitions and num_workers, the
/// one place their rules live:
///  - `num_partitions <= 0` resolves to kVertexBatchPartitions, a fixed
///    constant deliberately *not* derived from the worker count: partition
///    boundaries determine per-vertex tuple order, so tying them to the
///    thread count would make results vary with parallelism;
///  - `num_workers <= 0` resolves to the ambient ExecThreads() (the
///    RunRequest::threads knob, else VERTEXICA_THREADS, else cores);
///  - the workers are clamped to [1, partitions]: a worker with no
///    partition to process would be pure overhead.
WorkerParallelism ResolveWorkerParallelism(int num_partitions,
                                           int num_workers);

/// \brief One superstep's worker output, in partition order.
struct WorkerOutput {
  Table updates;  ///< changed vertices: (id, halted, v0..)
  /// The partitions' sinks in partition order, holding only their messages
  /// (src, dst, m0..); see CollectMessages.
  std::vector<WorkerSink> message_sinks;
  /// Aggregator partials (index into aggregator_names, partial) in
  /// partition order — the order the coordinator folds them in.
  std::vector<std::pair<int64_t, double>> aggregate_rows;
  int64_t active = 0;  ///< vertices whose Compute ran
};

/// \brief The graph tables of one superstep, read in place.
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

/// \brief The vertex rows a frontier superstep visits: for each id group
/// holding an active row, the group's last row, ascending. `ids` must keep
/// a duplicated id's rows adjacent (the frontier's id-sorted vertex table),
/// so an active row stands for its whole group and the row read is the one
/// the dense path reads.
std::vector<int64_t> FrontierVertexRows(const std::vector<int64_t>& ids,
                                        const Bitvector& frontier);

/// \brief Runs the workers over the in-place union input.
Result<WorkerOutput> RunUnionWorkers(const WorkerSharedState& shared,
                                     const UnionWorkerInput& input,
                                     const WorkerParallelism& par);

/// \brief Runs the workers over the 3-way-join input (columns id, halted,
/// v0.., msender, mm0.., msg_seq, edst, eweight, edge_seq; the seq columns
/// nullable).
Result<WorkerOutput> RunJoinWorkers(const WorkerSharedState& shared,
                                    const Table& input,
                                    const WorkerParallelism& par);

/// \brief The next superstep's message table (src, dst, m0..) from the
/// sinks' messages, read in the order given — global partition order. With
/// `combiner` kNone the messages are concatenated; otherwise they are
/// folded per receiver (see "Combiner fold order" above) into
/// (src = −1, dst, m0..) rows. The sinks are consumed.
Result<Table> CollectMessages(std::vector<WorkerSink> sinks, int message_arity,
                              MessageCombiner combiner);

}  // namespace vertexica

#endif  // VERTEXICA_VERTEXICA_WORKER_DRIVER_H_
