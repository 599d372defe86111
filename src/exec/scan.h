/// \file scan.h
/// \brief Table scan over an immutable table snapshot, with zone-map
/// pruning of pushed-down comparison predicates.

#ifndef VERTEXICA_EXEC_SCAN_H_
#define VERTEXICA_EXEC_SCAN_H_

#include <memory>
#include <vector>

#include "exec/operator.h"
#include "storage/encoding.h"

namespace vertexica {

/// \brief Zone-map range pruning, shared by TableScan batches and the
/// morsel driver (exec/parallel.h): true when rows [row_begin, row_end) of
/// `table` may contain a row satisfying *every* predicate in `preds`,
/// judged by the referenced columns' zone maps. Conservative: a missing
/// column, missing zone map or mixed-type comparison never prunes. Reports
/// the check to the context's KernelStats (`ranges_checked`,
/// `ranges_pruned`, `rows_pruned`).
bool MorselMayMatch(const Table& table,
                    const std::vector<ColumnPredicate>& preds,
                    int64_t row_begin, int64_t row_end);

/// \brief Emits `batch_size`-row slices of a materialized table.
///
/// A scan may be restricted to a row range [offset, offset+count): that is
/// the partitioned/morsel scan the parallel driver (exec/parallel.h) hands
/// to each worker, so N range scans over disjoint ranges together cover the
/// table exactly once.
///
/// A scan may also carry pushed-down comparison predicates
/// (PlanBuilder::Filter installs them): batches whose zone maps prove that
/// no row can satisfy some predicate are skipped without being sliced.
/// Pruning is an optimization only — the scan never evaluates predicates
/// row-by-row, so the Filter above it must still run; with zone maps built
/// (Table::BuildZoneMaps / EncodeColumns) the pair returns bit-identical
/// rows while touching fewer of them.
class TableScan : public Operator {
 public:
  explicit TableScan(std::shared_ptr<const Table> table,
                     int64_t batch_size = kDefaultBatchSize);

  /// \brief Convenience overload copying a table value.
  explicit TableScan(Table table, int64_t batch_size = kDefaultBatchSize);

  /// \brief Range-restricted (morsel) scan over rows
  /// [offset, offset+count); the range is clamped to the table.
  TableScan(std::shared_ptr<const Table> table, int64_t batch_size,
            int64_t offset, int64_t count);

  /// \brief Installs pushed-down predicates used solely to skip batches
  /// via zone maps (see class comment).
  void PushDownPredicates(std::vector<ColumnPredicate> preds);
  const std::vector<ColumnPredicate>& pushed_predicates() const {
    return pushed_;
  }

  const Schema& output_schema() const override { return table_->schema(); }

  /// \brief The underlying snapshot when this scan covers the whole table
  /// and has not started emitting; nullptr otherwise. Lets blocking
  /// operators (joins) reuse the shared snapshot — with its metadata —
  /// instead of re-materializing it batch by batch.
  std::shared_ptr<const Table> shared_table_if_whole() const {
    return offset_ == first_row_ && first_row_ == 0 &&
                   limit_ == table_->num_rows() && pushed_.empty()
               ? table_
               : nullptr;
  }

  Result<std::optional<Table>> Next() override;

  std::string label() const override {
    std::string out;
    if (first_row_ != 0 || limit_ != table_->num_rows()) {
      out = "TableScan(rows " + std::to_string(first_row_) + ".." +
            std::to_string(limit_) + ")";
    } else {
      out = "TableScan(" + std::to_string(table_->num_rows()) + " rows)";
    }
    for (const auto& p : pushed_) {
      out += " [push: " + p.column + " " + CompareOpName(p.op) + " " +
             p.literal.ToString() + "]";
    }
    return out;
  }
  std::vector<const Operator*> children() const override {
    return {};
  }

 private:
  std::shared_ptr<const Table> table_;
  int64_t batch_size_;
  int64_t first_row_ = 0;  // construction-time range start (for label())
  int64_t offset_ = 0;     // scan cursor
  int64_t limit_ = 0;      // one past the last row to emit
  std::vector<ColumnPredicate> pushed_;
};

/// \brief Materializes an operator like Collect, but returns the shared
/// snapshot directly (no copy, metadata intact) when the operator is a
/// whole-table TableScan — the common shape of join inputs built by
/// PlanBuilder::Scan.
Result<std::shared_ptr<const Table>> CollectShared(Operator* op);

}  // namespace vertexica

#endif  // VERTEXICA_EXEC_SCAN_H_
