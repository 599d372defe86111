#include "exec/kernel_stats.h"

#include "common/exec_knobs.h"
#include "storage/table.h"

namespace vertexica {

KernelStatsSnapshot Snapshot(const KernelStats& stats) {
  KernelStatsSnapshot out;
  out.bytes_materialized =
      stats.bytes_materialized.load(std::memory_order_relaxed);
  out.fused_batches = stats.fused_batches.load(std::memory_order_relaxed);
  out.legacy_batches = stats.legacy_batches.load(std::memory_order_relaxed);
  out.batch_hash_rows = stats.batch_hash_rows.load(std::memory_order_relaxed);
  return out;
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

void NoteFusedBatch() {
  KernelStats* stats = ExecKnobs::Current().kernel_stats;
  if (stats == nullptr) return;
  stats->fused_batches.fetch_add(1, std::memory_order_relaxed);
}

void NoteLegacyBatch() {
  KernelStats* stats = ExecKnobs::Current().kernel_stats;
  if (stats == nullptr) return;
  stats->legacy_batches.fetch_add(1, std::memory_order_relaxed);
}

void NoteBatchHashRows(int64_t rows) {
  KernelStats* stats = ExecKnobs::Current().kernel_stats;
  if (stats == nullptr) return;
  stats->batch_hash_rows.fetch_add(rows, std::memory_order_relaxed);
}

}  // namespace vertexica
