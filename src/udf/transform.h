/// \file transform.h
/// \brief Vertica-style transform UDFs (table functions with PARTITION BY).
///
/// The Vertexica worker (§2.2) is "a container for the vertex-compute
/// function [that] runs as a database UDF". In Vertica these are transform
/// functions invoked per partition of their input; this module reproduces
/// that invocation contract for general UDFs: the engine hash-partitions
/// the input on a key, optionally sorts each partition, and calls the UDF
/// once per partition. UDF instances run in parallel across a thread pool
/// ("as many workers as the number of cores").
///
/// The superstep workers keep this contract's partitioning — the same
/// PartitionOf buckets, kDefaultTransformPartitions and the parallelism
/// rules of ResolveTransformParallelism — but not its materialization:
/// vertexica/worker_driver.h reads each partition's rows in place instead
/// of copying and sorting them through ApplyTransform.

#ifndef VERTEXICA_UDF_TRANSFORM_H_
#define VERTEXICA_UDF_TRANSFORM_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/cache_sizing.h"
#include "common/threadpool.h"
#include "exec/operator.h"

namespace vertexica {

/// \brief User entry point: consume one sorted partition, emit output rows.
///
/// `emit` may be called any number of times; each call appends a batch with
/// the UDF's declared output schema. Implementations must be thread-safe
/// across *instances* (one instance per partition invocation) but each
/// instance is called from a single thread.
class TransformUdf {
 public:
  virtual ~TransformUdf() = default;

  /// \brief Output schema of the function.
  virtual const Schema& output_schema() const = 0;

  /// \brief Processes one partition. `partition` is sorted by the configured
  /// sort keys. Emitted tables must match `output_schema()`.
  virtual Status ProcessPartition(const Table& partition,
                                  const std::function<Status(Table)>& emit) = 0;
};

/// \brief Factory: one fresh UDF instance per partition (mirrors Vertica's
/// per-invocation UDx lifecycle).
using TransformUdfFactory = std::function<std::unique_ptr<TransformUdf>()>;

/// \brief Execution options for ApplyTransform.
///
/// Parallelism contract (normalized in one place by
/// ResolveTransformParallelism; every consumer sees the same rules):
///  - `num_partitions <= 0` resolves to kDefaultTransformPartitions, a
///    fixed constant deliberately *not* derived from the worker count:
///    partition boundaries determine per-vertex tuple order, so tying them
///    to the thread count would make results vary with parallelism.
///  - `num_workers <= 0` resolves to the ambient ExecThreads() (the
///    RunRequest::threads knob, else VERTEXICA_THREADS, else cores).
///  - `num_partitions >= num_workers` always holds after resolution: a
///    worker with no partition to process would be pure overhead, so the
///    effective worker count is clamped down to the partition count.
struct TransformOptions {
  /// Number of hash partitions ("vertex batching" granularity, §2.3).
  int num_partitions = 0;  // 0 => kDefaultTransformPartitions
  /// Parallel UDF instances; 0 => ambient ExecThreads().
  int num_workers = 0;
  /// Sort each partition by these column indices (ascending) before the UDF
  /// sees it.
  std::vector<int> sort_columns;
};

/// \brief Default "vertex batching" granularity (see TransformOptions):
/// the shared order-defining partition constant (common/cache_sizing.h),
/// which sharded vertex layouts (storage/partition.h) pin too.
inline constexpr int kDefaultTransformPartitions = kVertexBatchPartitions;

/// \brief Resolved (workers, partitions) pair after applying the
/// TransformOptions contract above. partitions >= workers >= 1.
struct TransformParallelism {
  int workers = 1;
  int partitions = 1;
};
TransformParallelism ResolveTransformParallelism(const TransformOptions& opts);

/// \brief Runs a transform UDF over `input` partitioned by `partition_column`
/// (an INT64 column index), returning the concatenated outputs.
///
/// Equivalent SQL: `SELECT udf(...) OVER (PARTITION BY key ORDER BY ...)`.
/// Partition bodies run on pool workers under the caller's knobs, cancel
/// token and kernel-counter block (ExecKnobs).
Result<Table> ApplyTransform(const Table& input, int partition_column,
                             const TransformUdfFactory& factory,
                             const TransformOptions& options = {});

}  // namespace vertexica

#endif  // VERTEXICA_UDF_TRANSFORM_H_
