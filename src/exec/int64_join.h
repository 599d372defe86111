/// \file int64_join.h
/// \brief The probe side of the typed join on one NULL-free INT64 key,
/// shared by the materializing join (ParallelHashJoin, exec/parallel.h) and
/// the join → project → aggregate pipeline (exec/join_aggregate.h).
///
/// The build side's rows are grouped by key in a CsrIndex
/// (storage/csr_index.h): each key's build rows form one slice, in
/// ascending row order. The probe side is cut into morsels of `grain` rows
/// and one parallel pass counts each morsel's output rows. Output rows are
/// probe-row-major, with each probe row's matches in build-row order: the
/// order every join kernel of the engine emits.

#ifndef VERTEXICA_EXEC_INT64_JOIN_H_
#define VERTEXICA_EXEC_INT64_JOIN_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "exec/hash_join.h"
#include "storage/column.h"
#include "storage/csr_index.h"

namespace vertexica {

/// \brief Output rows of a probe row that has `matches` build matches.
inline int64_t JoinOutputRows(JoinType type, int64_t matches) {
  switch (type) {
    case JoinType::kInner:
      return matches;
    case JoinType::kLeft:
      return std::max<int64_t>(matches, 1);
    case JoinType::kSemi:
      return matches > 0 ? 1 : 0;
    case JoinType::kAnti:
      return matches == 0 ? 1 : 0;
  }
  return 0;
}

/// \brief The build index and the per-morsel output row offsets of one
/// INT64-key join. Reads the key columns in place; both must outlive it.
class Int64JoinProbe {
 public:
  /// Indexes `build_key` and counts every probe morsel's output rows. Both
  /// keys must be NULL-free INT64 columns.
  static Result<Int64JoinProbe> Make(const Column& probe_key,
                                     const Column& build_key, JoinType type,
                                     int threads, int64_t grain);

  size_t num_morsels() const { return offset_.size() - 1; }
  /// First output row of probe morsel `j`; `j == num_morsels()` gives the
  /// output row count.
  int64_t morsel_offset(size_t j) const { return offset_[j]; }
  int64_t output_rows() const { return offset_.back(); }
  /// True when every probe row yields exactly one output row, so output
  /// row i is probe row i.
  bool one_each() const { return one_each_; }
  const CsrIndex& index() const { return *index_; }

  /// Calls `emit(i, slice)` for each probe row `i` of morsel `j` in order,
  /// with the slice of its build matches.
  template <typename Emit>
  void ForEachProbeRow(size_t j, const Emit& emit) const {
    const auto first = static_cast<int64_t>(j) * grain_;
    const int64_t end = std::min(probe_rows_, first + grain_);
    for (int64_t i = first; i < end; ++i) {
      emit(i, index_->NeighborSlice(keys_[i]));
    }
  }

  /// Inner join only: calls `emit(probe_row, build_row)` for the output
  /// rows [begin, end), in output order. A probe row whose matches straddle
  /// `begin` or `end` contributes exactly its matches inside the range, so
  /// consecutive ranges split the output where the materialized join
  /// output would be split.
  template <typename Emit>
  void ForEachInnerPair(int64_t begin, int64_t end, const Emit& emit) const {
    if (begin >= end) return;
    // The morsel holding output row `begin`: the last one starting at or
    // before it.
    const auto j = static_cast<size_t>(
        std::upper_bound(offset_.begin(), offset_.end(), begin) -
        offset_.begin() - 1);
    int64_t o = offset_[j];  // output row of probe row i's first match
    for (int64_t i = static_cast<int64_t>(j) * grain_; o < end; ++i) {
      const CsrIndex::Slice m = index_->NeighborSlice(keys_[i]);
      const int64_t stop = std::min(m.end, m.begin + (end - o));
      for (int64_t p = m.begin + std::max<int64_t>(0, begin - o); p < stop;
           ++p) {
        emit(i, index_->Row(p));
      }
      o += m.length();
    }
  }

 private:
  Int64JoinProbe() = default;

  std::shared_ptr<const CsrIndex> index_;
  const int64_t* keys_ = nullptr;
  int64_t probe_rows_ = 0;
  int64_t grain_ = 1;
  std::vector<int64_t> offset_;  ///< num_morsels() + 1 entries
  bool one_each_ = true;
};

}  // namespace vertexica

#endif  // VERTEXICA_EXEC_INT64_JOIN_H_
