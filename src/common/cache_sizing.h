/// \file cache_sizing.h
/// \brief The two partition-count policies of the engine, in one place.
///
/// Partition counts used to be a scattering of literal 64s with two very
/// different meanings hiding behind the same number:
///
///  1. **Order-defining partitioning** — vertex batching (§2.3).
///     Partition boundaries determine per-vertex tuple order, so the count
///     is a fixed architectural constant: deriving it from the row count,
///     thread count, or cache size would change results.
///     `kVertexBatchPartitions` is that constant (the default of
///     ResolveWorkerParallelism, vertexica/worker_driver.h).
///
///  2. **Cache-sized partitioning** — radix partitioning of hash join and
///     aggregate builds, where the count is a pure performance choice:
///     per-hash chains are assembled in a fixed chunk-then-row order, so
///     results are provably identical at any partition count, and the right
///     count is "each partition's working set fits in L2".
///     `CacheSizedPartitionCount` is that policy.
///
/// Keeping both here makes the distinction auditable: a new partitioned
/// kernel must decide which contract it is under, not inherit a magic 64.

#ifndef VERTEXICA_COMMON_CACHE_SIZING_H_
#define VERTEXICA_COMMON_CACHE_SIZING_H_

#include <algorithm>
#include <cstdint>

namespace vertexica {

/// \brief The fixed vertex-batching partition count (§2.3). Order-defining:
/// changing it changes per-vertex tuple order and therefore results, so it
/// is a constant of the dataflow, never derived from data or hardware.
inline constexpr int kVertexBatchPartitions = 64;

/// \brief Working-set target for one cache-sized partition, chosen to sit
/// comfortably inside a typical per-core L2 (256 KiB–1 MiB): the build
/// loop's partition-local state (hash-chain nodes, bucket arrays) stays
/// cache-resident while it is being assembled.
inline constexpr int64_t kCachePartitionBytes = 256 * 1024;

/// \brief Cache-sized partition count for a build of `rows` rows at
/// `bytes_per_row` of partition-local state, clamped to
/// [1, max_partitions]. Depends only on the row count — never on threads —
/// and is only valid for kernels whose output is provably identical at any
/// partition count (radix hash builds; see exec/parallel.cc).
inline int CacheSizedPartitionCount(int64_t rows, int64_t bytes_per_row,
                                    int max_partitions) {
  const int64_t total = rows * std::max<int64_t>(bytes_per_row, 1);
  return static_cast<int>(
      std::clamp<int64_t>(total / kCachePartitionBytes, 1, max_partitions));
}

}  // namespace vertexica

#endif  // VERTEXICA_COMMON_CACHE_SIZING_H_
