/// \file sort.h
/// \brief Stable multi-key table sorting.
///
/// Every sort in the engine is stable: rows with equal keys keep their
/// input order, so for given keys and input order the permutation is
/// unique and any two correct implementations return the same one. Key
/// lists that are all INT64 and NULL-free go through one LSD radix
/// primitive (RadixSortRows), applied key by key from last to first; any
/// other key list (DOUBLE, STRING or BOOL keys, or NULLs) uses a
/// comparator stable sort over Column::CompareRows. Callers include the
/// edge-table loader (vertexica/graph_tables.cc), the superstep's id and
/// message sorts, the worker driver's vertex batching, SortOp/TopN,
/// transform partitions and CsrIndex::Build.

#ifndef VERTEXICA_STORAGE_SORT_H_
#define VERTEXICA_STORAGE_SORT_H_

#include <vector>

#include "storage/table.h"

namespace vertexica {

// SortKey (column index + direction) lives in storage/table.h, next to the
// Table sort-order property it also describes.

/// \brief Stably reorders `rows` by `values[row]`, ascending or descending.
/// Keys are normalised to `v - min` (`max - v` when descending); a range
/// below max(rows, 2^16) takes one counting pass, any other range 16-bit
/// LSD digit passes. Linear in `rows->size()`. Every entry of `rows` must
/// index `values`.
void RadixSortRows(const std::vector<int64_t>& values, bool ascending,
                   std::vector<int64_t>* rows);

/// \brief Returns the row permutation that sorts `table` by `keys`
/// (stable; NULLs first within ascending order).
std::vector<int64_t> SortIndices(const Table& table,
                                 const std::vector<SortKey>& keys);

/// \brief Returns a new table sorted by `keys`, with its sort-order
/// property (Table::sort_order) declared accordingly.
Table SortTable(const Table& table, const std::vector<SortKey>& keys);

}  // namespace vertexica

#endif  // VERTEXICA_STORAGE_SORT_H_
