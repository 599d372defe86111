/// \file kernel_stats.h
/// \brief Per-run kernel counters: bytes materialized, fused vs legacy
/// batches, batched-hash rows, hash joins and zone-map pruning.
///
/// KernelStats is the one counter block a run carries. The API layer
/// allocates one per request (api/backends.cc) and puts it in the request
/// context (`ExecKnobs::kernel_stats`, common/exec_knobs.h), which the
/// thread pool installs in every task, so morsel workers report into
/// *their* run's block and concurrent runs never mix their counts. A layer
/// that wants a sub-total (the coordinator, per superstep) installs a
/// fresh block over a copy of the context and adds its snapshot to the
/// enclosing block when done.
/// All fields are relaxed atomics precisely because many pool threads of
/// one run increment them concurrently.
///
/// The headline counter, `bytes_materialized`, measures what the fused
/// selection-vector pipeline (exec/vectorized.h) exists to remove: every
/// intermediate table an operator materializes inside a σ/π pipeline —
/// scan slices, filter masks and outputs, projection outputs, fused-kernel
/// outputs. Pipeline breakers (join build, aggregate, sort, exchange) are
/// deliberately not counted: their materialization is inherent, not
/// fusable. The counter is deterministic for a given plan + knob setting —
/// morsel boundaries never depend on the thread count — so bench rows can
/// report it as a stable "bytes per pipeline" figure. So are the join and
/// prune counts; only `hash_nanos` is a timing.

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
  /// Morsels executed by the fused selection-vector kernels, and chunks
  /// folded by the join → project → aggregate pipeline
  /// (exec/join_aggregate.h).
  std::atomic<int64_t> fused_batches{0};
  /// Morsel outputs produced by the interpreter (table-at-a-time) path.
  std::atomic<int64_t> legacy_batches{0};
  /// Join-key rows hashed by the batched hash kernel (BatchJoinKeyHash).
  std::atomic<int64_t> batch_hash_rows{0};
  /// ParallelHashJoin invocations, the rows they emitted and the
  /// wall-clock nanoseconds spent inside them.
  std::atomic<int64_t> hash_joins{0};
  std::atomic<int64_t> hash_rows{0};
  std::atomic<int64_t> hash_nanos{0};
  /// Zone-map pruning (MorselMayMatch, exec/scan.h): row ranges tested,
  /// ranges skipped entirely and the rows in the skipped ranges.
  std::atomic<int64_t> ranges_checked{0};
  std::atomic<int64_t> ranges_pruned{0};
  std::atomic<int64_t> rows_pruned{0};
};

/// \brief Plain-value copy of a KernelStats block (atomics aren't
/// copyable; benches and stats publishers read through this).
struct KernelStatsSnapshot {
  int64_t bytes_materialized = 0;
  int64_t fused_batches = 0;
  int64_t legacy_batches = 0;
  int64_t batch_hash_rows = 0;
  int64_t hash_joins = 0;
  int64_t hash_rows = 0;
  int64_t hash_nanos = 0;
  int64_t ranges_checked = 0;
  int64_t ranges_pruned = 0;
  int64_t rows_pruned = 0;
};

KernelStatsSnapshot Snapshot(const KernelStats& stats);

/// \brief Adds `counts` to `stats` — how a nested block's totals reach
/// the enclosing one.
void AddTo(const KernelStatsSnapshot& counts, KernelStats* stats);

/// \brief Physical byte footprint of `col` as materialized — respects the
/// current representation (RLE runs, dict codes, validity) and never
/// forces a decode.
int64_t MaterializedByteSize(const Column& col);

/// \name Reporting hooks into `ExecKnobs::Current().kernel_stats` (no-ops
/// when it is nullptr)
/// @{
void NoteMaterialized(const Table& table);
void NoteMaterialized(const Column& column);
void NoteFusedBatch(int64_t batches = 1);
void NoteLegacyBatch();
void NoteBatchHashRows(int64_t rows);
/// One hash join that emitted `rows` rows in `nanos` nanoseconds.
void NoteHashJoin(int64_t rows, int64_t nanos);
/// One zone-map range check over `rows` rows; `pruned` when it was skipped.
void NoteRangeChecked(int64_t rows, bool pruned);
/// @}

}  // namespace vertexica

#endif  // VERTEXICA_EXEC_KERNEL_STATS_H_
