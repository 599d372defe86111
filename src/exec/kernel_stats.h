/// \file kernel_stats.h
/// \brief Per-run kernel counters: bytes materialized, fused vs legacy
/// batches, batched-hash rows.
///
/// ScanPruneStats (exec/scan.h) is process-wide atomics — fine for a
/// single-run bench, but under the concurrent server (docs/SERVER.md)
/// process-wide counters interleave across requests and can only be reset
/// by everyone at once. KernelStats is the per-run form: the API layer
/// allocates one per request (api/backends.cc) and puts it in the request
/// context (`ExecKnobs::kernel_stats`, common/exec_knobs.h), which the
/// thread pool installs in every task, so morsel workers report into
/// *their* run's block.
/// All fields are relaxed atomics precisely because many pool threads of
/// one run increment them concurrently; blocks of different runs never
/// alias.
///
/// The headline counter, `bytes_materialized`, measures what the fused
/// selection-vector pipeline (exec/vectorized.h) exists to remove: every
/// intermediate table an operator materializes inside a σ/π pipeline —
/// scan slices, filter masks and outputs, projection outputs, fused-kernel
/// outputs. Pipeline breakers (join build, aggregate, sort, exchange) are
/// deliberately not counted: their materialization is inherent, not
/// fusable. The counter is deterministic for a given plan + knob setting —
/// morsel boundaries never depend on the thread count — so bench rows can
/// report it as a stable "bytes per pipeline" figure.

#ifndef VERTEXICA_EXEC_KERNEL_STATS_H_
#define VERTEXICA_EXEC_KERNEL_STATS_H_

#include <atomic>
#include <cstdint>

namespace vertexica {

class Column;
class Table;

/// \brief One run's kernel counters (relaxed atomics; see file comment).
struct KernelStats {
  /// Bytes of intermediate tables materialized inside σ/π pipelines.
  std::atomic<int64_t> bytes_materialized{0};
  /// Morsels executed by the fused selection-vector kernels.
  std::atomic<int64_t> fused_batches{0};
  /// Morsel outputs produced by the interpreter (table-at-a-time) path.
  std::atomic<int64_t> legacy_batches{0};
  /// Join-key rows hashed by the batched hash kernel (BatchJoinKeyHash).
  std::atomic<int64_t> batch_hash_rows{0};
};

/// \brief Plain-value copy of a KernelStats block (atomics aren't
/// copyable; benches and stats publishers read through this).
struct KernelStatsSnapshot {
  int64_t bytes_materialized = 0;
  int64_t fused_batches = 0;
  int64_t legacy_batches = 0;
  int64_t batch_hash_rows = 0;
};

KernelStatsSnapshot Snapshot(const KernelStats& stats);

/// \brief Physical byte footprint of `col` as materialized — respects the
/// current representation (RLE runs, dict codes, validity) and never
/// forces a decode.
int64_t MaterializedByteSize(const Column& col);

/// \name Reporting hooks into `ExecKnobs::Current().kernel_stats` (no-ops
/// when it is nullptr)
/// @{
void NoteMaterialized(const Table& table);
void NoteMaterialized(const Column& column);
void NoteFusedBatch();
void NoteLegacyBatch();
void NoteBatchHashRows(int64_t rows);
/// @}

}  // namespace vertexica

#endif  // VERTEXICA_EXEC_KERNEL_STATS_H_
