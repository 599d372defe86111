#include "storage/csr_index.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "storage/sort.h"

namespace vertexica {

namespace {

/// The direct-address rule, the one the typed fold's GroupIndex also uses:
/// `rows` rows whose keys in [lo, hi] span fewer than twice as many values.
bool DirectAddressSpan(int64_t lo, int64_t hi, int64_t rows) {
  return rows > 0 && static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) <
                         2 * static_cast<uint64_t>(rows);
}

}  // namespace

std::shared_ptr<const CsrIndex> CsrIndex::Build(const Column& keys) {
  if (keys.type() != DataType::kInt64 || keys.null_count() > 0) {
    return nullptr;
  }
  const int64_t n = keys.length();
  // Nondecreasing RLE runs are read straight from the encoded
  // representation — no decode. Any other column is decoded once.
  const std::vector<RleRun>* runs = keys.rle_runs();
  if (runs != nullptr &&
      !std::is_sorted(runs->begin(), runs->end(),
                      [](const RleRun& a, const RleRun& b) {
                        return a.value < b.value;
                      })) {
    runs = nullptr;
  }
  const std::vector<int64_t>* values = runs == nullptr ? &keys.ints() : nullptr;
  int64_t lo = 0;
  int64_t hi = 0;
  bool sorted = true;
  if (runs != nullptr) {
    if (!runs->empty()) {
      lo = runs->front().value;
      hi = runs->back().value;
    }
  } else if (n > 0) {
    const std::vector<int64_t>& v = *values;
    lo = hi = v[0];
    for (size_t i = 1; i < v.size(); ++i) {
      sorted = sorted && v[i - 1] <= v[i];
      lo = std::min(lo, v[i]);
      hi = std::max(hi, v[i]);
    }
  }

  if (DirectAddressSpan(lo, hi, n)) {
    auto index = std::shared_ptr<CsrIndex>(new CsrIndex(0));
    index->num_rows_ = n;
    index->lo_ = lo;
    const auto slot = [lo](int64_t key) {
      return static_cast<size_t>(static_cast<uint64_t>(key) -
                                 static_cast<uint64_t>(lo));
    };
    std::vector<int64_t>& offsets = index->offsets_;
    offsets.assign(slot(hi) + 2, 0);
    if (runs != nullptr) {
      for (const RleRun& run : *runs) {
        offsets[slot(run.value) + 1] += run.length;
      }
    } else {
      for (const int64_t v : *values) ++offsets[slot(v) + 1];
    }
    for (size_t s = 1; s < offsets.size(); ++s) {
      if (offsets[s] != 0) ++index->num_keys_;
      offsets[s] += offsets[s - 1];
    }
    if (!sorted) {
      // Stable counting scatter: each key's rows in table order — the same
      // permutation the radix sort gives.
      index->order_.resize(static_cast<size_t>(n));
      std::vector<int64_t> cursor(offsets.begin(), offsets.end() - 1);
      for (size_t i = 0; i < values->size(); ++i) {
        index->order_[static_cast<size_t>(cursor[slot((*values)[i])]++)] =
            static_cast<int64_t>(i);
      }
    }
    return index;
  }

  std::vector<int64_t> order;
  if (!sorted) {
    // The stable grouping permutation, from the shared radix sort
    // (storage/sort.h) — each key's rows keep their table order.
    order.resize(static_cast<size_t>(n));
    std::iota(order.begin(), order.end(), int64_t{0});
    RadixSortRows(*values, /*ascending=*/true, &order);
  }
  // Calls fn(key, begin, end) for each key's slice in ascending key order.
  // Adjacent runs may legally share a value (Column::FromRleRuns), so they
  // merge into one slice.
  const auto for_each_slice = [&](const auto& fn) {
    int64_t begin = 0;
    if (runs != nullptr) {
      int64_t row = 0;
      for (size_t k = 0; k < runs->size(); ++k) {
        const RleRun& run = (*runs)[k];
        row += run.length;
        if (k + 1 == runs->size() || (*runs)[k + 1].value != run.value) {
          fn(run.value, begin, row);
          begin = row;
        }
      }
      return;
    }
    const std::vector<int64_t>& v = *values;
    const auto key_at = [&](int64_t p) {
      const int64_t row = order.empty() ? p : order[static_cast<size_t>(p)];
      return v[static_cast<size_t>(row)];
    };
    for (int64_t p = 1; p <= n; ++p) {
      const int64_t key = key_at(p - 1);
      if (p == n || key_at(p) != key) {
        fn(key, begin, p);
        begin = p;
      }
    }
  };
  size_t num_slices = 0;
  for_each_slice([&num_slices](int64_t, int64_t, int64_t) { ++num_slices; });
  auto index = std::shared_ptr<CsrIndex>(new CsrIndex(num_slices));
  index->num_rows_ = n;
  index->num_keys_ = static_cast<int64_t>(num_slices);
  for_each_slice([&index](int64_t key, int64_t begin, int64_t end) {
    index->slices_.GetOrInsert(key, {begin, end});
  });
  index->order_ = std::move(order);
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
  int64_t lo = 0;
  int64_t hi = 0;
  for (int64_t r = 0; r < num_rows_; ++r) {
    const int64_t key = keys.GetInt64(r);
    lo = r == 0 ? key : std::min(lo, key);
    hi = r == 0 ? key : std::max(hi, key);
  }
  if (direct_address() != DirectAddressSpan(lo, hi, num_rows_)) {
    return fail(StringFormat(
        "keys span [%lld, %lld] over %lld rows, which selects the %s layout, "
        "but the index uses the other one",
        static_cast<long long>(lo), static_cast<long long>(hi),
        static_cast<long long>(num_rows_),
        direct_address() ? "hash" : "direct-address"));
  }
  if (direct_address()) {
    const uint64_t span =
        static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
    if (lo_ != lo || offsets_.size() != span + 2) {
      return fail(StringFormat(
          "direct-address layout starts at %lld with %zu offsets but the "
          "keys span [%lld, %lld] (stale index?)",
          static_cast<long long>(lo_), offsets_.size(),
          static_cast<long long>(lo), static_cast<long long>(hi)));
    }
    int64_t buckets = 0;
    for (size_t s = 1; s < offsets_.size(); ++s) {
      if (offsets_[s] < offsets_[s - 1]) {
        return fail(StringFormat("offsets decrease at slot %zu", s));
      }
      if (offsets_[s] != offsets_[s - 1]) ++buckets;
    }
    if (offsets_.front() != 0 || offsets_.back() != num_rows_) {
      return fail(StringFormat(
          "offsets run from %lld to %lld but the index covers %lld rows",
          static_cast<long long>(offsets_.front()),
          static_cast<long long>(offsets_.back()),
          static_cast<long long>(num_rows_)));
    }
    if (buckets != num_keys_) {
      return fail(StringFormat(
          "num_keys says %lld but %lld buckets are non-empty",
          static_cast<long long>(num_keys_), static_cast<long long>(buckets)));
    }
  } else if (num_keys_ != static_cast<int64_t>(slices_.size())) {
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
