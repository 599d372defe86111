/// \file typed_fold.h
/// \brief The typed grouped fold: GROUP BY one NULL-free INT64 key over
/// NULL-free INT64/DOUBLE inputs, evaluated column at a time.
///
/// One kernel serves both grouped folds of the engine: a SQL
/// `GROUP BY key` whose key is a single NULL-free INT64 column
/// (ParallelHashAggregate, exec/parallel.h) and the message combiner that
/// folds a superstep's messages per receiver (CollectMessages,
/// vertexica/worker_driver.h). It replaces the per-row `AccState` switch
/// with flat typed accumulators: one pass maps each row to its group, then
/// one tight loop per aggregate folds its input column into its
/// accumulator column.
///
/// Fold order (the contract that keeps it bit-identical to the
/// row-at-a-time aggregate): the input rows are cut into chunks at row
/// offsets that are multiples of the grain; each chunk folds its rows in
/// order into groups in first-appearance order (SUM from `0` / `0.0` with
/// `+=`; MIN/MAX take the group's first value and replace it only on a
/// strict `<` / `>`, which fixes the NaN and −0.0 outcomes; COUNT counts);
/// the chunk partials are then merged serially in chunk order, the same
/// way, into groups in global first-appearance order. INT64 SUM wraps in
/// two's complement; AVG divides the DOUBLE sum of its inputs by the row
/// count. Chunks fold in parallel and their boundaries never depend on the
/// thread count.

#ifndef VERTEXICA_EXEC_TYPED_FOLD_H_
#define VERTEXICA_EXEC_TYPED_FOLD_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/hash.h"
#include "common/result.h"
#include "common/threadpool.h"
#include "exec/aggregate.h"
#include "storage/column.h"

namespace vertexica {

/// \brief One aggregate of a typed fold: its op and its input's type
/// (INT64 or DOUBLE; ignored for COUNT and COUNT(*)).
struct FoldSpec {
  AggOp op;
  DataType type;
};

/// \brief One aggregate's input rows: the pointer of its FoldSpec type
/// (neither for COUNT and COUNT(*)).
struct FoldInput {
  const int64_t* ints = nullptr;
  const double* doubles = nullptr;
};

/// \brief Group key → group number. Keys are vertex ids in practice, which
/// are dense, so a fold whose keys span at most twice as many values as it
/// has rows indexes a direct-address table over that span; any other span
/// takes an Int64HashMap. Either way it is the same map, so the choice
/// never changes the fold.
class GroupIndex {
 public:
  /// `lo`..`hi`: the keys' range; `rows`: rows to be folded.
  GroupIndex(int64_t lo, int64_t hi, size_t rows);

  /// `key`'s group number; -1 until the caller assigns one.
  int64_t& operator[](int64_t key) {
    if (hash_.has_value()) return hash_->GetOrInsert(key, -1);
    return direct_[static_cast<size_t>(static_cast<uint64_t>(key) -
                                       static_cast<uint64_t>(lo_))];
  }

 private:
  int64_t lo_ = 0;
  std::vector<int64_t> direct_;
  std::optional<Int64HashMap<int64_t>> hash_;
};

/// \brief The groups and accumulators of one fold: one chunk's partial, or
/// the merge of all partials.
class TypedFold {
 public:
  /// Folds `rows` rows whose keys lie in [lo, hi].
  TypedFold(std::vector<FoldSpec> specs, int64_t lo, int64_t hi,
            size_t rows);

  /// Folds `n` rows: key keys[i] and, for aggregate a, inputs[a] at i.
  void AddRows(const int64_t* keys, const FoldInput* inputs, size_t n);

  /// Folds a later chunk's partial into this fold (the chunk-order merge).
  void Merge(const TypedFold& later);

  size_t num_groups() const { return keys_.size(); }
  int64_t lo() const { return lo_; }
  int64_t hi() const { return hi_; }

  /// The group keys in first-appearance order, then one column per
  /// aggregate (AggregateOutputSchema's types), consuming the state.
  std::vector<Column> TakeColumns() &&;

 private:
  /// Folds `n` rows; `weights` null adds one row per input row, else
  /// weights[i] rows (a partial's row counts).
  void Fold(const int64_t* keys, const FoldInput* inputs,
            const int64_t* weights, size_t n);

  std::vector<FoldSpec> specs_;
  int64_t lo_;
  int64_t hi_;
  GroupIndex index_;
  bool count_rows_;                          ///< COUNT or AVG reads rows_
  std::vector<int64_t> keys_;                ///< group keys
  std::vector<int64_t> rows_;                ///< rows folded per group
  std::vector<std::vector<int64_t>> iacc_;   ///< per aggregate: INT64 acc
  std::vector<std::vector<double>> dacc_;    ///< per aggregate: DOUBLE acc
  std::vector<int64_t> gid_;                 ///< per input row (scratch)
};

/// \brief Folds rows [0, rows) in chunks of `grain` rows on the pool (at
/// most `threads` threads), then merges the partials in chunk order.
/// `for_each_slice(begin, end, body)` must call
/// `body(const int64_t* keys, const FoldInput* inputs, size_t n)` for
/// consecutive slices covering rows [begin, end) of the input in order.
template <typename ForEachSlice>
Result<TypedFold> ParallelTypedFold(const std::vector<FoldSpec>& specs,
                                    size_t rows, size_t grain, int threads,
                                    const ForEachSlice& for_each_slice) {
  const size_t num_chunks = (rows + grain - 1) / grain;
  std::vector<std::optional<TypedFold>> partials(num_chunks);
  VX_RETURN_NOT_OK(ThreadPool::Default()->ParallelFor(
      0, num_chunks, /*grain=*/1,
      [&](size_t begin, size_t end) -> Status {
        for (size_t j = begin; j < end; ++j) {
          const size_t first = j * grain;
          const size_t last = std::min(rows, first + grain);
          int64_t lo = std::numeric_limits<int64_t>::max();
          int64_t hi = std::numeric_limits<int64_t>::min();
          for_each_slice(first, last,
                         [&](const int64_t* keys, const FoldInput*, size_t n) {
                           for (size_t i = 0; i < n; ++i) {
                             lo = std::min(lo, keys[i]);
                             hi = std::max(hi, keys[i]);
                           }
                         });
          // Built on the folding thread and published once at the end, so
          // concurrent chunks share no written cache lines.
          TypedFold fold(specs, lo, hi, last - first);
          for_each_slice(first, last,
                         [&fold](const int64_t* keys, const FoldInput* inputs,
                                 size_t n) { fold.AddRows(keys, inputs, n); });
          partials[j].emplace(std::move(fold));
        }
        return Status::OK();
      },
      threads));

  int64_t lo = std::numeric_limits<int64_t>::max();
  int64_t hi = std::numeric_limits<int64_t>::min();
  size_t partial_groups = 0;
  for (const auto& p : partials) {
    lo = std::min(lo, p->lo());
    hi = std::max(hi, p->hi());
    partial_groups += p->num_groups();
  }
  TypedFold merged(specs, lo, hi, partial_groups);
  for (const auto& p : partials) merged.Merge(*p);
  return merged;
}

}  // namespace vertexica

#endif  // VERTEXICA_EXEC_TYPED_FOLD_H_
