#include "exec/typed_fold.h"

#include <algorithm>
#include <type_traits>

#include "common/int_arith.h"

namespace vertexica {

namespace {

/// The hash map starts here and grows, so few groups stay cache-resident.
constexpr size_t kInitialHashGroups = 1024;

/// SUM, MIN and MAX over INT64 fold into INT64 accumulators; AVG and the
/// DOUBLE aggregates into DOUBLE ones; COUNT and COUNT(*) read the
/// per-group row count only.
bool IntAccumulator(const FoldSpec& spec) {
  return spec.type == DataType::kInt64 &&
         (spec.op == AggOp::kSum || spec.op == AggOp::kMin ||
          spec.op == AggOp::kMax);
}

bool CountOnly(const FoldSpec& spec) {
  return spec.op == AggOp::kCount || spec.op == AggOp::kCountStar;
}

/// acc[gid[i]] = step(acc[gid[i]], v[i]) for i in [0, n).
template <typename A, typename V, typename Step>
void FoldColumn(const int64_t* gid, const V* v, size_t n, A* acc, Step step) {
  for (size_t i = 0; i < n; ++i) {
    A& a = acc[static_cast<size_t>(gid[i])];
    a = step(a, v[i]);
  }
}

/// Folds one aggregate's input column into its accumulator column.
template <typename T>
void FoldAggregate(AggOp op, const int64_t* gid, const T* v, size_t n,
                   T* acc) {
  switch (op) {
    case AggOp::kSum:
      if constexpr (std::is_same_v<T, int64_t>) {
        FoldColumn(gid, v, n, acc, WrappingAdd);
      } else {
        FoldColumn(gid, v, n, acc, [](T a, T x) { return a + x; });
      }
      break;
    case AggOp::kMin:
      FoldColumn(gid, v, n, acc, [](T a, T x) { return x < a ? x : a; });
      break;
    case AggOp::kMax:
      FoldColumn(gid, v, n, acc, [](T a, T x) { return x > a ? x : a; });
      break;
    default:
      break;
  }
}

}  // namespace

GroupIndex::GroupIndex(int64_t lo, int64_t hi, size_t rows) {
  const auto span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  if (lo <= hi && span < 2 * static_cast<uint64_t>(rows)) {
    lo_ = lo;
    direct_.assign(static_cast<size_t>(span) + 1, -1);
  } else {
    hash_.emplace(std::min<size_t>(rows, kInitialHashGroups));
  }
}

TypedFold::TypedFold(std::vector<FoldSpec> specs, int64_t lo, int64_t hi,
                     size_t rows)
    : specs_(std::move(specs)),
      lo_(lo),
      hi_(hi),
      index_(lo, hi, rows),
      count_rows_(std::any_of(specs_.begin(), specs_.end(),
                              [](const FoldSpec& spec) {
                                return CountOnly(spec) ||
                                       spec.op == AggOp::kAvg;
                              })),
      iacc_(specs_.size()),
      dacc_(specs_.size()) {}

void TypedFold::AddRows(const int64_t* keys, const FoldInput* inputs,
                        size_t n) {
  Fold(keys, inputs, nullptr, n);
}

void TypedFold::Merge(const TypedFold& later) {
  std::vector<FoldInput> inputs(specs_.size());
  for (size_t a = 0; a < specs_.size(); ++a) {
    if (IntAccumulator(specs_[a])) {
      inputs[a].ints = later.iacc_[a].data();
    } else if (!CountOnly(specs_[a])) {
      inputs[a].doubles = later.dacc_[a].data();
    }
  }
  Fold(later.keys_.data(), inputs.data(), later.rows_.data(),
       later.keys_.size());
}

void TypedFold::Fold(const int64_t* keys, const FoldInput* inputs,
                     const int64_t* weights, size_t n) {
  // Pass 1: each row's group; a new group starts its accumulators at the
  // SUM/AVG identity or, for MIN/MAX, at the group's first value.
  gid_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    int64_t& g = index_[keys[i]];
    if (g < 0) {
      g = static_cast<int64_t>(keys_.size());
      keys_.push_back(keys[i]);
      if (count_rows_) rows_.push_back(0);
      for (size_t a = 0; a < specs_.size(); ++a) {
        const FoldSpec& spec = specs_[a];
        if (CountOnly(spec)) continue;
        const bool extreme = spec.op == AggOp::kMin || spec.op == AggOp::kMax;
        if (IntAccumulator(spec)) {
          iacc_[a].push_back(extreme ? inputs[a].ints[i] : 0);
        } else {
          dacc_[a].push_back(extreme ? inputs[a].doubles[i] : 0.0);
        }
      }
    }
    gid_[i] = g;
  }
  // Pass 2: one tight loop per accumulator column.
  const int64_t* gid = gid_.data();
  if (!count_rows_) {
    // No COUNT or AVG: the row counts are never read.
  } else if (weights == nullptr) {
    for (size_t i = 0; i < n; ++i) ++rows_[static_cast<size_t>(gid[i])];
  } else {
    for (size_t i = 0; i < n; ++i) {
      rows_[static_cast<size_t>(gid[i])] += weights[i];
    }
  }
  for (size_t a = 0; a < specs_.size(); ++a) {
    const FoldSpec& spec = specs_[a];
    if (CountOnly(spec)) continue;
    if (spec.op == AggOp::kAvg) {
      double* acc = dacc_[a].data();
      if (inputs[a].ints != nullptr) {  // rows of an INT64 input
        FoldColumn(gid, inputs[a].ints, n, acc, [](double s, int64_t x) {
          return s + static_cast<double>(x);
        });
      } else {
        FoldColumn(gid, inputs[a].doubles, n, acc,
                   [](double s, double x) { return s + x; });
      }
    } else if (IntAccumulator(spec)) {
      FoldAggregate(spec.op, gid, inputs[a].ints, n, iacc_[a].data());
    } else {
      FoldAggregate(spec.op, gid, inputs[a].doubles, n, dacc_[a].data());
    }
  }
}

std::vector<Column> TypedFold::TakeColumns() && {
  const size_t n = keys_.size();
  std::vector<Column> cols;
  cols.push_back(Column::FromInts(std::move(keys_)));
  for (size_t a = 0; a < specs_.size(); ++a) {
    const FoldSpec& spec = specs_[a];
    if (CountOnly(spec)) {
      cols.push_back(Column::FromInts(rows_));
    } else if (spec.op == AggOp::kAvg) {
      std::vector<double> avg(n);
      for (size_t g = 0; g < n; ++g) {
        avg[g] = dacc_[a][g] / static_cast<double>(rows_[g]);
      }
      cols.push_back(Column::FromDoubles(std::move(avg)));
    } else if (IntAccumulator(spec)) {
      cols.push_back(Column::FromInts(std::move(iacc_[a])));
    } else {
      cols.push_back(Column::FromDoubles(std::move(dacc_[a])));
    }
  }
  return cols;
}

}  // namespace vertexica
