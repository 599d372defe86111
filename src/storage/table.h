/// \file table.h
/// \brief In-memory columnar table: the engine's relation representation.

#ifndef VERTEXICA_STORAGE_TABLE_H_
#define VERTEXICA_STORAGE_TABLE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/column.h"
#include "storage/schema.h"

namespace vertexica {

/// \brief One sort key: a column index and a direction. The unit of both
/// table sorting (storage/sort.h) and the declared sort-order property
/// below.
struct SortKey {
  int column;
  bool ascending = true;
};

/// \brief A columnar relation: a schema plus one column per field.
///
/// Tables are value types (copyable, movable); operators produce new tables
/// rather than mutating inputs, matching the paper's "replace instead of
/// update" philosophy (§2.3). All columns always have identical length.
class Table {
 public:
  Table() = default;

  /// \brief Empty table with the given schema.
  explicit Table(Schema schema);

  /// \brief Assembles a table; fails if column count/types/lengths disagree
  /// with the schema.
  static Result<Table> Make(Schema schema, std::vector<Column> columns);

  const Schema& schema() const { return schema_; }
  int num_columns() const { return schema_.num_fields(); }
  int64_t num_rows() const { return num_rows_; }

  const Column& column(int i) const { return columns_[static_cast<size_t>(i)]; }
  Column* mutable_column(int i) {
    // The caller may mutate arbitrarily, so the declared sort order cannot
    // be assumed to survive; callers that preserve it re-declare it.
    sort_order_.clear();
    return &columns_[static_cast<size_t>(i)];
  }

  /// \brief Column by field name; nullptr when absent.
  const Column* ColumnByName(const std::string& name) const;

  /// \brief Index of field `name`, or InvalidArgument.
  Result<int> ColumnIndex(const std::string& name) const;

  /// \brief Appends one row given as per-field values.
  Status AppendRow(const std::vector<Value>& row);

  /// \brief Appends all rows of `other`; schemas must have equal types.
  Status Append(const Table& other);

  /// \brief Gather rows at `indices` (any order, duplicates allowed).
  Table Take(const std::vector<int64_t>& indices) const;

  /// \brief Contiguous row range [offset, offset+count).
  Table Slice(int64_t offset, int64_t count) const;

  /// \brief Projection onto the given column indices (relational π).
  Table SelectColumns(const std::vector<int>& col_indices) const;

  /// \brief Same data, renamed columns (used to build union common schemas).
  Table RenameColumns(const std::vector<std::string>& names) const;

  /// \name Segment encoding (storage/encoding.h)
  /// Value-neutral physical-representation switches; readers see identical
  /// data before and after.
  /// @{
  /// \brief Encodes every eligible column under `mode` (RLE for INT64/BOOL,
  /// dictionary for STRING; kAuto only when smaller). Builds zone maps as a
  /// side effect. Returns the number of columns now encoded.
  int EncodeColumns(EncodingMode mode = EncodingMode::kAuto);
  /// \brief Reverts every column to the plain representation.
  void DecodeColumns();
  /// \brief Builds zone maps on every column (without encoding anything),
  /// enabling zone-map scan pruning on this table.
  void BuildZoneMaps();
  /// @}

  /// \name Sort-order property
  ///
  /// A non-empty order declares that rows are lexicographically
  /// nondecreasing by `keys[0]`, then `keys[1]`, ... under the
  /// Column::CompareRows total order (NULLs first, NaN last). Producers
  /// that guarantee the order declare it (SortTable, the sorted graph
  /// loader); any mutation drops it conservatively, exactly like the zone
  /// map. Consumers (the coordinator's vertex-by-id frontier and in-place
  /// apply) treat the declaration as trusted physical-design metadata —
  /// the same contract as zone maps — so a false declaration is a producer
  /// bug, not a consumer hazard.
  /// @{
  const std::vector<SortKey>& sort_order() const { return sort_order_; }
  /// \brief Declares the order. Key indices must be valid for this schema.
  void SetSortOrder(std::vector<SortKey> keys);
  void ClearSortOrder() { sort_order_.clear(); }
  /// @}

  /// \brief One row as Values.
  std::vector<Value> GetRow(int64_t i) const;

  /// \brief Deep equality: schema + data.
  bool Equals(const Table& other) const;

  /// \brief Debug/console rendering of up to `max_rows` rows.
  std::string ToString(int64_t max_rows = 20) const;

  /// \brief Sum of rows across columns — used by tests as a sanity invariant.
  bool IsConsistent() const;

  /// \brief Deep structural audit (the VX_DCHECK tier; see
  /// docs/DEVELOPING.md). Verifies that the schema and the column vector
  /// agree in count and type, that every column has `num_rows()` rows and
  /// itself passes Column::CheckInvariants, that every declared sort key
  /// names a valid column, and that the declared lexicographic order
  /// actually holds row-by-row under the Column::CompareRows total order —
  /// the "trusted physical-design metadata" contract that the frontier and
  /// zone-map pruning lean on. O(rows × columns); call behind VX_DCHECK_OK.
  Status CheckInvariants() const;

 private:
  Schema schema_;
  std::vector<Column> columns_;
  int64_t num_rows_ = 0;
  /// Declared sort order; empty = unknown/none. Dropped on mutation.
  std::vector<SortKey> sort_order_;
};

}  // namespace vertexica

#endif  // VERTEXICA_STORAGE_TABLE_H_
