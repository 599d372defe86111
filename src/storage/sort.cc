#include "storage/sort.h"

#include <algorithm>
#include <numeric>

namespace vertexica {

namespace {

constexpr int kDigitBits = 16;
constexpr uint64_t kDigitBuckets = uint64_t{1} << kDigitBits;

/// One stable counting-sort pass of `rows` (and, unless `last`, of the
/// parallel `keys`) on `digit(key)` in [0, buckets). A pass whose keys all
/// land in one bucket would be the identity and is skipped.
template <typename Digit>
void CountingPass(size_t buckets, Digit digit, bool last,
                  std::vector<uint64_t>* keys, std::vector<int64_t>* rows,
                  std::vector<uint64_t>* key_tmp,
                  std::vector<int64_t>* row_tmp,
                  std::vector<size_t>* start) {
  const size_t n = keys->size();
  start->assign(buckets + 1, 0);
  for (const uint64_t k : *keys) ++(*start)[digit(k) + 1];
  if ((*start)[digit((*keys)[0]) + 1] == n) return;
  for (size_t b = 1; b <= buckets; ++b) (*start)[b] += (*start)[b - 1];
  for (size_t i = 0; i < n; ++i) {
    const uint64_t k = (*keys)[i];
    const size_t pos = (*start)[digit(k)]++;
    (*row_tmp)[pos] = (*rows)[i];
    if (!last) (*key_tmp)[pos] = k;
  }
  rows->swap(*row_tmp);
  if (!last) keys->swap(*key_tmp);
}

}  // namespace

void RadixSortRows(const std::vector<int64_t>& values, bool ascending,
                   std::vector<int64_t>* rows) {
  const size_t n = rows->size();
  if (n < 2) return;
  std::vector<uint64_t> keys(n);
  int64_t lo = values[static_cast<size_t>((*rows)[0])];
  int64_t hi = lo;
  for (size_t i = 0; i < n; ++i) {
    const int64_t v = values[static_cast<size_t>((*rows)[i])];
    keys[i] = static_cast<uint64_t>(v);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  // Unsigned wrap-around keeps both normalisations exact over the full
  // int64 span: every key lands in [0, range].
  const uint64_t range = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  if (range == 0) return;
  const uint64_t base = static_cast<uint64_t>(ascending ? lo : hi);
  for (uint64_t& k : keys) k = ascending ? k - base : base - k;

  std::vector<int64_t> row_tmp(n);
  std::vector<size_t> start;
  if (range < std::max<uint64_t>(n, kDigitBuckets)) {
    CountingPass(
        static_cast<size_t>(range) + 1,
        [](uint64_t k) { return static_cast<size_t>(k); }, /*last=*/true,
        &keys, rows, nullptr, &row_tmp, &start);
    return;
  }
  std::vector<uint64_t> key_tmp(n);
  for (int shift = 0; shift < 64 && (range >> shift) != 0;
       shift += kDigitBits) {
    const bool last =
        shift + kDigitBits >= 64 || (range >> (shift + kDigitBits)) == 0;
    CountingPass(
        kDigitBuckets,
        [shift](uint64_t k) {
          return static_cast<size_t>((k >> shift) & (kDigitBuckets - 1));
        },
        last, &keys, rows, &key_tmp, &row_tmp, &start);
  }
}

std::vector<int64_t> SortIndices(const Table& table,
                                 const std::vector<SortKey>& keys) {
  std::vector<int64_t> indices(static_cast<size_t>(table.num_rows()));
  std::iota(indices.begin(), indices.end(), 0);

  const bool radix = std::all_of(
      keys.begin(), keys.end(), [&table](const SortKey& k) {
        const Column& col = table.column(k.column);
        return col.type() == DataType::kInt64 && col.null_count() == 0;
      });
  if (radix) {
    // RLE key: sort the runs and expand each run's row range. Equal-valued
    // runs keep their original order and every run expands in ascending
    // row order, which is exactly the stable row sort — without decoding
    // the key column. O(runs + n).
    const std::vector<RleRun>* runs =
        keys.size() == 1 ? table.column(keys[0].column).rle_runs() : nullptr;
    if (runs != nullptr) {
      const std::vector<int64_t>& run_starts =
          *table.column(keys[0].column).rle_run_starts();
      std::vector<int64_t> run_values(runs->size());
      for (size_t r = 0; r < runs->size(); ++r) {
        run_values[r] = (*runs)[r].value;
      }
      std::vector<int64_t> run_order(runs->size());
      std::iota(run_order.begin(), run_order.end(), 0);
      RadixSortRows(run_values, keys[0].ascending, &run_order);
      size_t out = 0;
      for (const int64_t r : run_order) {
        const auto ur = static_cast<size_t>(r);
        for (int64_t i = 0; i < (*runs)[ur].length; ++i) {
          indices[out++] = run_starts[ur] + i;
        }
      }
      return indices;
    }
    // LSD over the key list: a stable pass per key, least significant
    // first, leaves rows ordered by the whole list.
    for (auto k = keys.rbegin(); k != keys.rend(); ++k) {
      RadixSortRows(table.column(k->column).ints(), k->ascending, &indices);
    }
    return indices;
  }

  std::stable_sort(indices.begin(), indices.end(),
                   [&table, &keys](int64_t a, int64_t b) {
                     for (const SortKey& k : keys) {
                       const Column& col = table.column(k.column);
                       int cmp = col.CompareRows(a, col, b);
                       if (!k.ascending) cmp = -cmp;
                       if (cmp != 0) return cmp < 0;
                     }
                     return false;
                   });
  return indices;
}

Table SortTable(const Table& table, const std::vector<SortKey>& keys) {
  Table out = table.Take(SortIndices(table, keys));
  out.SetSortOrder(keys);  // the one producer that guarantees it by doing it
  return out;
}

}  // namespace vertexica
