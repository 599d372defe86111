#include "exec/scan.h"

#include <algorithm>

#include "exec/kernel_stats.h"

namespace vertexica {

bool MorselMayMatch(const Table& table,
                    const std::vector<ColumnPredicate>& preds,
                    int64_t row_begin, int64_t row_end) {
  if (preds.empty() || row_begin >= row_end) return true;
  bool may_match = true;
  for (const ColumnPredicate& pred : preds) {
    const Column* col = table.ColumnByName(pred.column);
    if (col == nullptr) continue;  // stale pushdown: never prune
    const auto& zm = col->zone_map();
    if (zm == nullptr) continue;
    if (!zm->RangeMayMatch(pred.op, pred.literal, row_begin, row_end)) {
      // One impossible conjunct makes the whole conjunction false.
      may_match = false;
      break;
    }
  }
  NoteRangeChecked(row_end - row_begin, /*pruned=*/!may_match);
  return may_match;
}

TableScan::TableScan(std::shared_ptr<const Table> table, int64_t batch_size)
    : table_(std::move(table)),
      batch_size_(batch_size),
      limit_(table_->num_rows()) {
  VX_CHECK(batch_size_ > 0);
}

TableScan::TableScan(Table table, int64_t batch_size)
    : TableScan(std::make_shared<const Table>(std::move(table)), batch_size) {}

TableScan::TableScan(std::shared_ptr<const Table> table, int64_t batch_size,
                     int64_t offset, int64_t count)
    : table_(std::move(table)), batch_size_(batch_size) {
  VX_CHECK(batch_size_ > 0);
  VX_CHECK(offset >= 0 && count >= 0);
  first_row_ = std::min(offset, table_->num_rows());
  offset_ = first_row_;
  limit_ = std::min(first_row_ + count, table_->num_rows());
}

void TableScan::PushDownPredicates(std::vector<ColumnPredicate> preds) {
  pushed_ = std::move(preds);
}

Result<std::optional<Table>> TableScan::Next() {
  while (offset_ < limit_) {
    const int64_t count = std::min(batch_size_, limit_ - offset_);
    if (!pushed_.empty() &&
        !MorselMayMatch(*table_, pushed_, offset_, offset_ + count)) {
      offset_ += count;  // provably no matching row: skip without slicing
      continue;
    }
    Table batch = table_->Slice(offset_, count);
    NoteMaterialized(batch);
    offset_ += count;
    return std::optional<Table>(std::move(batch));
  }
  return std::optional<Table>{};
}

Result<std::shared_ptr<const Table>> CollectShared(Operator* op) {
  if (auto* scan = dynamic_cast<TableScan*>(op)) {
    if (auto table = scan->shared_table_if_whole()) return table;
  }
  VX_ASSIGN_OR_RETURN(Table out, Collect(op));
  return std::make_shared<const Table>(std::move(out));
}

}  // namespace vertexica
