/// \file csr_index.h
/// \brief CSR-style grouped row index: O(1) per-key row slices over an
/// INT64 key column in any row order — the engine's one INT64 key → rows
/// index.
///
/// The edge loader keeps edges sorted by (src, dst) with an RLE source
/// column, so each vertex's out-edges already sit in one contiguous row
/// range — the CSR property, just stored relationally. Over such a
/// nondecreasing key column a key's slice is its [begin, end) row range,
/// read straight from the RLE runs when the key column is encoded (no
/// decode) and from one counting or grouping pass otherwise.
///
/// Over a key column in any other order (an edge table loaded unsorted, or
/// the message table keyed on `dst`, which arrives in worker-output order)
/// Build additionally computes the stable grouping permutation: every row
/// listed by ascending key, ties in ascending row order. Slices then index
/// into that permutation. Either way a key's slice lists exactly its rows
/// in table order, which is what the superstep worker driver
/// (vertexica/worker_driver.h) reads: each vertex's edges in edge-table
/// order and its messages in message-table order.
///
/// Two layouts hold the slices; the choice never changes a slice:
///   - Direct address, when the key span hi − lo is under twice the row
///     count (vertex ids are dense): one offsets array over [lo, hi], built
///     by a count and a prefix sum; the permutation, when needed, comes
///     from a stable counting scatter.
///   - Hash, for any other span: an Int64HashMap from key to slice, sized
///     once to the group count; the permutation comes from the engine's one
///     INT64 sort primitive, RadixSortRows (storage/sort.h).
///
/// Build fails (nullptr) only for NULL or non-INT64 keys, which no graph
/// table loader produces; the coordinator turns that into InvalidArgument.

#ifndef VERTEXICA_STORAGE_CSR_INDEX_H_
#define VERTEXICA_STORAGE_CSR_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/hash.h"
#include "storage/column.h"

namespace vertexica {

/// \brief Immutable per-key row-slice index over an INT64 key column;
/// shareable across threads once built.
class CsrIndex {
 public:
  /// \brief A contiguous range [begin, end) of index positions; position
  /// `p` is table row Row(p).
  struct Slice {
    int64_t begin = 0;
    int64_t end = 0;
    int64_t length() const { return end - begin; }
  };

  /// \brief Builds the index over `keys`. Returns nullptr when the column
  /// is not INT64 or holds NULLs. Adjacent-run merging handles RLE
  /// encodings that split one value across runs.
  static std::shared_ptr<const CsrIndex> Build(const Column& keys);

  /// \brief The slice of `key`; an empty slice when absent.
  Slice NeighborSlice(int64_t key) const {
    if (!offsets_.empty()) {
      const uint64_t s =
          static_cast<uint64_t>(key) - static_cast<uint64_t>(lo_);
      if (s >= offsets_.size() - 1) return {};
      return {offsets_[s], offsets_[s + 1]};
    }
    const Slice* s = slices_.Find(key);
    return s == nullptr ? Slice{} : *s;
  }

  /// \brief Table row at index position `pos`.
  int64_t Row(int64_t pos) const {
    return order_.empty() ? pos : order_[static_cast<size_t>(pos)];
  }

  /// \brief True when Row(p) == p: the keys are nondecreasing, so a key's
  /// slice is also its contiguous run of table rows.
  bool identity_order() const { return order_.empty(); }

  /// \brief True when the slices live in the direct-address layout.
  bool direct_address() const { return !offsets_.empty(); }

  int64_t num_keys() const { return num_keys_; }
  int64_t num_rows() const { return num_rows_; }

  /// \brief Deep structural audit against the column this index claims to
  /// describe (the VX_DCHECK tier; see docs/DEVELOPING.md). Re-derives the
  /// stable grouping permutation from `keys` and verifies that the index
  /// order is exactly it (identity iff the column is nondecreasing), that
  /// the layout is the one the key span selects (a direct-address index
  /// must start at the column's minimum and hold monotone offsets ending at
  /// num_rows, one non-empty bucket per key), that the slices are
  /// contiguous and cover every position once in ascending key order, and
  /// that num_keys/num_rows match — i.e. the index still describes this
  /// snapshot and not a stale one. O(rows log rows); call behind
  /// VX_DCHECK_OK.
  Status CheckInvariants(const Column& keys) const;

 private:
  explicit CsrIndex(size_t hash_slices) : slices_(hash_slices) {}

  /// Direct-address layout: slot k − lo_ holds key k's first position and
  /// slot k − lo_ + 1 its end; span + 2 entries. Empty in the hash layout.
  std::vector<int64_t> offsets_;
  int64_t lo_ = 0;
  /// Hash layout: key → slice. Empty in the direct-address layout.
  Int64HashMap<Slice> slices_;
  /// Stable grouping permutation; empty when the keys are nondecreasing.
  std::vector<int64_t> order_;
  int64_t num_keys_ = 0;
  int64_t num_rows_ = 0;
};

}  // namespace vertexica

#endif  // VERTEXICA_STORAGE_CSR_INDEX_H_
