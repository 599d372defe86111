#include "storage/csr_index.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "storage/sort.h"

namespace vertexica {

std::shared_ptr<const CsrIndex> CsrIndex::Build(const Column& keys) {
  if (keys.type() != DataType::kInt64 || keys.null_count() > 0) {
    return nullptr;
  }
  auto index = std::shared_ptr<CsrIndex>(new CsrIndex());
  index->num_rows_ = keys.length();
  const auto add_slice = [&index](int64_t key, int64_t begin, int64_t end) {
    index->slices_.GetOrInsert(key, {begin, end});
    ++index->num_keys_;
  };

  if (const std::vector<RleRun>* runs = keys.rle_runs()) {
    const bool nondecreasing = std::is_sorted(
        runs->begin(), runs->end(),
        [](const RleRun& a, const RleRun& b) { return a.value < b.value; });
    if (nondecreasing) {
      // Straight from the encoded representation — no decode. Adjacent
      // runs may legally share a value (Column::FromRleRuns), so merge
      // them into one slice.
      int64_t row = 0;
      int64_t slice_begin = 0;
      for (size_t k = 0; k < runs->size(); ++k) {
        const RleRun& run = (*runs)[k];
        row += run.length;
        if (k + 1 == runs->size() || (*runs)[k + 1].value != run.value) {
          add_slice(run.value, slice_begin, row);
          slice_begin = row;
        }
      }
      return index;
    }
  }

  const std::vector<int64_t>& values = keys.ints();  // decodes RLE once
  const int64_t n = static_cast<int64_t>(values.size());
  if (!std::is_sorted(values.begin(), values.end())) {
    // Any other order: the stable grouping permutation, from the shared
    // radix sort (storage/sort.h) — each key's rows keep their table order.
    index->order_.resize(static_cast<size_t>(n));
    std::iota(index->order_.begin(), index->order_.end(), int64_t{0});
    RadixSortRows(values, /*ascending=*/true, &index->order_);
  }
  int64_t slice_begin = 0;
  for (int64_t p = 1; p <= n; ++p) {
    const int64_t key = values[static_cast<size_t>(index->Row(p - 1))];
    if (p == n || values[static_cast<size_t>(index->Row(p))] != key) {
      add_slice(key, slice_begin, p);
      slice_begin = p;
    }
  }
  return index;
}

Status CsrIndex::CheckInvariants(const Column& keys) const {
  const auto fail = [](std::string msg) {
    return Status::Internal("CsrIndex invariant violated: " + std::move(msg));
  };
  if (keys.type() != DataType::kInt64) {
    return fail(StringFormat("audited against a %s key column",
                             DataTypeName(keys.type())));
  }
  if (keys.null_count() > 0) {
    return fail("key column holds NULLs (Build would have refused it)");
  }
  if (num_rows_ != keys.length()) {
    return fail(StringFormat(
        "index covers %lld rows but the key column has %lld (stale index?)",
        static_cast<long long>(num_rows_),
        static_cast<long long>(keys.length())));
  }
  if (num_keys_ != static_cast<int64_t>(slices_.size())) {
    return fail(StringFormat(
        "num_keys says %lld but the map holds %zu slices",
        static_cast<long long>(num_keys_), slices_.size()));
  }
  if (!order_.empty() && static_cast<int64_t>(order_.size()) != num_rows_) {
    return fail(StringFormat(
        "permutation lists %zu rows but the index covers %lld",
        order_.size(), static_cast<long long>(num_rows_)));
  }
  // Re-derive the stable grouping permutation and demand the index order
  // is exactly it: identity when the column is nondecreasing, else the
  // stored permutation.
  std::vector<int64_t> derived(static_cast<size_t>(num_rows_));
  std::iota(derived.begin(), derived.end(), int64_t{0});
  std::stable_sort(derived.begin(), derived.end(),
                   [&keys](int64_t a, int64_t b) {
                     return keys.GetInt64(a) < keys.GetInt64(b);
                   });
  if (!order_.empty() && std::is_sorted(derived.begin(), derived.end())) {
    return fail("index stores a permutation over a nondecreasing key column");
  }
  for (int64_t p = 0; p < num_rows_; ++p) {
    const int64_t want = derived[static_cast<size_t>(p)];
    if (order_.empty() && want != p) {
      return fail(StringFormat(
          "key column decreases before row %lld but the index claims "
          "identity order",
          static_cast<long long>(p)));
    }
    if (Row(p) != want) {
      return fail(StringFormat(
          "position %lld holds row %lld but the stable grouping puts row "
          "%lld there",
          static_cast<long long>(p), static_cast<long long>(Row(p)),
          static_cast<long long>(want)));
    }
  }
  // Walk the groups in index order and demand the index maps each distinct
  // key to exactly its position range.
  int64_t derived_keys = 0;
  int64_t slice_begin = 0;
  for (int64_t i = 1; i <= num_rows_; ++i) {
    const int64_t key = keys.GetInt64(Row(i - 1));
    if (i < num_rows_ && keys.GetInt64(Row(i)) == key) continue;
    const Slice got = NeighborSlice(key);
    if (got.begin != slice_begin || got.end != i) {
      return fail(StringFormat(
          "key %lld maps to slice [%lld, %lld) but its rows span "
          "[%lld, %lld)",
          static_cast<long long>(key), static_cast<long long>(got.begin),
          static_cast<long long>(got.end),
          static_cast<long long>(slice_begin), static_cast<long long>(i)));
    }
    ++derived_keys;
    slice_begin = i;
  }
  if (derived_keys != num_keys_) {
    return fail(StringFormat(
        "column holds %lld distinct keys but the index maps %lld",
        static_cast<long long>(derived_keys),
        static_cast<long long>(num_keys_)));
  }
  return Status::OK();
}

}  // namespace vertexica
