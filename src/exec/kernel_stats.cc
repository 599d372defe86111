#include "exec/kernel_stats.h"

#include "common/exec_knobs.h"
#include "storage/table.h"

namespace vertexica {

namespace {

/// Every counter once: the block's atomic and the snapshot's plain field.
struct CounterField {
  std::atomic<int64_t> KernelStats::*block;
  int64_t KernelStatsSnapshot::*plain;
};

constexpr CounterField kCounterFields[] = {
    {&KernelStats::bytes_materialized,
     &KernelStatsSnapshot::bytes_materialized},
    {&KernelStats::fused_batches, &KernelStatsSnapshot::fused_batches},
    {&KernelStats::legacy_batches, &KernelStatsSnapshot::legacy_batches},
    {&KernelStats::batch_hash_rows, &KernelStatsSnapshot::batch_hash_rows},
    {&KernelStats::hash_joins, &KernelStatsSnapshot::hash_joins},
    {&KernelStats::hash_rows, &KernelStatsSnapshot::hash_rows},
    {&KernelStats::hash_nanos, &KernelStatsSnapshot::hash_nanos},
    {&KernelStats::ranges_checked, &KernelStatsSnapshot::ranges_checked},
    {&KernelStats::ranges_pruned, &KernelStatsSnapshot::ranges_pruned},
    {&KernelStats::rows_pruned, &KernelStatsSnapshot::rows_pruned},
};

/// Adds `n` to `counter` of the current context's block, if there is one.
void Bump(std::atomic<int64_t> KernelStats::*counter, int64_t n) {
  KernelStats* stats = ExecKnobs::Current().kernel_stats;
  if (stats == nullptr) return;
  (stats->*counter).fetch_add(n, std::memory_order_relaxed);
}

}  // namespace

KernelStatsSnapshot Snapshot(const KernelStats& stats) {
  KernelStatsSnapshot out;
  for (const CounterField& f : kCounterFields) {
    out.*f.plain = (stats.*f.block).load(std::memory_order_relaxed);
  }
  return out;
}

void AddTo(const KernelStatsSnapshot& counts, KernelStats* stats) {
  for (const CounterField& f : kCounterFields) {
    (stats->*f.block).fetch_add(counts.*f.plain, std::memory_order_relaxed);
  }
}

int64_t MaterializedByteSize(const Column& col) {
  int64_t bytes = col.ValidityByteSize();
  if (const auto* runs = col.rle_runs()) {
    return bytes + static_cast<int64_t>(runs->size()) *
                       static_cast<int64_t>(sizeof(RleRun));
  }
  if (const auto* dict = col.dict()) {
    // The dictionary itself is shared by all copies of the segment; the
    // per-row materialization cost is the code vector.
    return bytes + static_cast<int64_t>(dict->codes.size()) *
                       static_cast<int64_t>(sizeof(dict->codes[0]));
  }
  switch (col.type()) {
    case DataType::kInt64:
      return bytes + col.length() * 8;
    case DataType::kDouble:
      return bytes + col.length() * 8;
    case DataType::kBool:
      return bytes + col.length();
    case DataType::kString: {
      // Plain (or plain-decoded) strings: header plus character storage.
      int64_t sum = 0;
      for (const std::string& s : col.strings()) {
        sum += static_cast<int64_t>(sizeof(std::string) + s.size());
      }
      return bytes + sum;
    }
  }
  return bytes;
}

void NoteMaterialized(const Table& table) {
  KernelStats* stats = ExecKnobs::Current().kernel_stats;
  if (stats == nullptr) return;
  int64_t bytes = 0;
  for (int c = 0; c < table.num_columns(); ++c) {
    bytes += MaterializedByteSize(table.column(c));
  }
  stats->bytes_materialized.fetch_add(bytes, std::memory_order_relaxed);
}

void NoteMaterialized(const Column& column) {
  KernelStats* stats = ExecKnobs::Current().kernel_stats;
  if (stats == nullptr) return;
  stats->bytes_materialized.fetch_add(MaterializedByteSize(column),
                                      std::memory_order_relaxed);
}

void NoteFusedBatch(int64_t batches) {
  Bump(&KernelStats::fused_batches, batches);
}

void NoteLegacyBatch() { Bump(&KernelStats::legacy_batches, 1); }

void NoteBatchHashRows(int64_t rows) {
  Bump(&KernelStats::batch_hash_rows, rows);
}

void NoteHashJoin(int64_t rows, int64_t nanos) {
  Bump(&KernelStats::hash_joins, 1);
  Bump(&KernelStats::hash_rows, rows);
  Bump(&KernelStats::hash_nanos, nanos);
}

void NoteRangeChecked(int64_t rows, bool pruned) {
  Bump(&KernelStats::ranges_checked, 1);
  if (!pruned) return;
  Bump(&KernelStats::ranges_pruned, 1);
  Bump(&KernelStats::rows_pruned, rows);
}

}  // namespace vertexica
