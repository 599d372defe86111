/// \file partition.h
/// \brief Hash partitioning and persistent sharding of tables.
///
/// §2.3 "Vertex Batching": Vertexica hash-partitions the vertex/edge/message
/// union on vertex id into a fixed number of partitions, each processed
/// serially by one worker. This module provides that scatter primitive
/// (HashPartition) plus the persistent form the sharded superstep dataflow
/// is built on: a ShardingSpec that coarsens the same hash partitioning into
/// contiguous shard blocks, and a PartitionSet of resident, metadata-bearing
/// shard tables partitioned once per run.
///
/// Scatter contract (shared by HashPartition, ShardScatter, PartitionSet):
///  - NULL keys deterministically land in partition/shard 0. The key
///    column's validity bitmap is consulted; the value slot of a NULL row
///    (which holds an unspecified placeholder) never reaches the hash.
///  - Row order within a partition preserves input order (the scatter is
///    stable), so any declared sort order of the input holds within each
///    output partition.
///  - An RLE-encoded key column scatters run-at-a-time: one bucket decision
///    per run, and — when the key column is fully valid — the
///    per-partition key columns are rebuilt directly from the assigned
///    runs, so the key column is never decoded. A null-bearing RLE key
///    still reads values run-at-a-time but gathers through the generic
///    (decoding) path, producing plain outputs.

#ifndef VERTEXICA_STORAGE_PARTITION_H_
#define VERTEXICA_STORAGE_PARTITION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/cache_sizing.h"
#include "common/hash.h"
#include "common/result.h"
#include "storage/table.h"

namespace vertexica {

/// \brief Partition id of an int64 key for `num_partitions` buckets.
inline int PartitionOf(int64_t key, int num_partitions) {
  return static_cast<int>(HashInt64(static_cast<uint64_t>(key)) %
                          static_cast<uint64_t>(num_partitions));
}

/// \brief Splits `table` into `num_partitions` tables by hashing the int64
/// column `key_column`. Row order within a partition preserves input order;
/// NULL keys go to partition 0 (see the scatter contract above).
std::vector<Table> HashPartition(const Table& table, int key_column,
                                 int num_partitions);


/// \brief How keys map to shards: keys hash into `base_partitions` buckets
/// (PartitionOf — the same function vertex batching uses) and contiguous
/// runs of buckets form the `num_shards` shards.
///
/// Coarsening the *same* base partitioning is what makes shard placement
/// compose with vertex batching: a shard's rows hash into a contiguous
/// block of the base partitions, so a per-shard batching pass (with the
/// same base count) reproduces exactly the partitions of a one-shard pass,
/// in order — the property behind the sharded dataflow being bit-identical
/// at any shard count. `num_shards` must not exceed `base_partitions`.
struct ShardingSpec {
  int num_shards = 1;
  /// Keep equal to the vertex-batching count (the shared order-defining
  /// constant in common/cache_sizing.h; audited in vertexica/coordinator.cc).
  int base_partitions = kVertexBatchPartitions;

  /// \brief Shard owning base partition `p`: contiguous monotone blocks.
  int ShardOfPartition(int p) const {
    return static_cast<int>(static_cast<int64_t>(p) * num_shards /
                            base_partitions);
  }
  /// \brief Shard owning `key` (non-NULL).
  int ShardOfKey(int64_t key) const {
    return ShardOfPartition(PartitionOf(key, base_partitions));
  }
  /// \brief NULL keys deterministically own shard 0 (scatter contract).
  int ShardOfNull() const { return 0; }

  /// \brief Structural audit (the VX_DCHECK tier; see docs/DEVELOPING.md):
  /// shard count in [1, base_partitions], and ShardOfPartition a monotone
  /// surjection onto [0, num_shards) — every shard owns at least one
  /// contiguous block of base partitions, the coarsening property the
  /// sharded dataflow's bit-identical-at-any-shard-count claim rests on.
  Status Validate() const;
};

/// \brief Order-preserving scatter of `table` into `spec.num_shards` tables
/// by the shard of the int64 column `key_column`. Any declared sort order
/// of the input is re-declared on every shard (a stable scatter keeps each
/// shard a subsequence of the input). NULL keys go to shard 0.
Result<std::vector<Table>> ShardScatter(const Table& table, int key_column,
                                        const ShardingSpec& spec);

/// \brief A resident shard set: one table per shard, partitioned once and
/// kept across uses (the superstep dataflow re-reads shards every superstep
/// instead of re-partitioning its input).
///
/// With more than one shard, Build retains per-shard physical-design
/// metadata: inherited sort-order declarations from the scatter, and — when
/// the ambient encoding mode is not off — per-shard segment encodings and
/// zone maps (Table::EncodeColumns over each shard). A one-shard set is the
/// input snapshot itself: no scatter, no copy, no re-encode. Shards are
/// exposed as shared snapshots so the morsel-parallel executor can
/// range-scan them without copying.
class PartitionSet {
 public:
  using TablePtr = std::shared_ptr<const Table>;

  PartitionSet() = default;

  /// \brief Partitions `table` on `key_column` per `spec`; at one shard
  /// the set holds `table` itself as shard 0. Fails when the key column is
  /// not INT64 or the spec is malformed (num_shards < 1 or
  /// num_shards > base_partitions).
  static Result<PartitionSet> Build(TablePtr table, int key_column,
                                    const ShardingSpec& spec);

  const ShardingSpec& spec() const { return spec_; }
  int key_column() const { return key_column_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  const TablePtr& shard(int s) const {
    return shards_[static_cast<size_t>(s)];
  }

  /// \brief Sum of rows across shards.
  int64_t total_rows() const;

  /// \brief Swaps in a new table for shard `s` (the vertex-update and
  /// message-exchange paths; the caller is responsible for the rows still
  /// belonging to the shard).
  void ReplaceShard(int s, Table t);

  /// \brief Deep structural audit (the VX_DCHECK tier; see
  /// docs/DEVELOPING.md). Verifies the spec itself (ShardingSpec::Validate),
  /// that the set holds exactly `spec().num_shards` non-null shard tables
  /// each passing Table::CheckInvariants, and — the placement contract —
  /// that every row of every shard actually hashes to that shard (NULL keys
  /// to shard 0). Catches ReplaceShard callers that break the "rows still
  /// belong to the shard" obligation. O(total rows); call behind
  /// VX_DCHECK_OK.
  Status CheckInvariants() const;

 private:
  ShardingSpec spec_;
  int key_column_ = 0;
  std::vector<TablePtr> shards_;
};

}  // namespace vertexica

#endif  // VERTEXICA_STORAGE_PARTITION_H_
