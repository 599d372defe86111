#include "storage/partition.h"

#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "storage/encoding.h"

namespace vertexica {

namespace {

// ------------------------------------------------------------ the scatter

/// Row-index buckets of one scatter, plus — on the RLE fast path — the
/// per-bucket key columns as runs, so the gather can rebuild them without
/// the source key column ever being decoded.
struct ScatterPlan {
  std::vector<std::vector<int64_t>> indices;  // per bucket, ascending
  std::vector<std::vector<RleRun>> key_runs;  // filled iff have_key_runs
  bool have_key_runs = false;
};

/// Computes the bucket of every row of `keys` under `bucket_of` (a non-NULL
/// int64 -> bucket id map). This is the single implementation of the
/// scatter contract in partition.h: NULL keys to bucket 0 via the validity
/// bitmap, RLE keys decided run-at-a-time, input order preserved.
template <typename BucketOf>
ScatterPlan ScatterByKey(const Column& keys, int num_buckets,
                         const BucketOf& bucket_of) {
  ScatterPlan plan;
  plan.indices.resize(static_cast<size_t>(num_buckets));
  if (const auto* runs = keys.rle_runs()) {
    if (keys.null_count() == 0) {
      // Fully-valid RLE key: one bucket decision per run, and whole runs
      // append to the bucket's rebuilt key column.
      plan.key_runs.resize(static_cast<size_t>(num_buckets));
      plan.have_key_runs = true;
      int64_t row = 0;
      for (const RleRun& run : *runs) {
        const auto b = static_cast<size_t>(bucket_of(run.value));
        auto& idx = plan.indices[b];
        for (int64_t i = 0; i < run.length; ++i) idx.push_back(row + i);
        auto& out_runs = plan.key_runs[b];
        if (!out_runs.empty() && out_runs.back().value == run.value) {
          out_runs.back().length += run.length;
        } else {
          out_runs.push_back({run.value, run.length});
        }
        row += run.length;
      }
      return plan;
    }
    // Null-bearing RLE key: values still come from the runs (no decode);
    // validity is consulted per row.
    int64_t row = 0;
    for (const RleRun& run : *runs) {
      const auto vb = static_cast<size_t>(bucket_of(run.value));
      for (int64_t i = 0; i < run.length; ++i) {
        plan.indices[keys.IsNull(row + i) ? 0 : vb].push_back(row + i);
      }
      row += run.length;
    }
    return plan;
  }
  const auto& values = keys.ints();
  for (int64_t i = 0; i < keys.length(); ++i) {
    const auto b = keys.IsNull(i)
                       ? size_t{0}
                       : static_cast<size_t>(
                             bucket_of(values[static_cast<size_t>(i)]));
    plan.indices[b].push_back(i);
  }
  return plan;
}

/// Materializes bucket `b` of the plan. With rebuilt key runs available the
/// key column is constructed straight from them (already RLE-encoded, never
/// decoded); every other column gathers normally. Consumes the bucket's
/// run vector — each bucket is gathered exactly once.
Table GatherBucket(const Table& table, int key_column, ScatterPlan& plan,
                   size_t b) {
  const auto& idx = plan.indices[b];
  if (!plan.have_key_runs) return table.Take(idx);
  std::vector<Column> columns;
  columns.reserve(static_cast<size_t>(table.num_columns()));
  for (int c = 0; c < table.num_columns(); ++c) {
    if (c == key_column) {
      columns.push_back(Column::FromRleRuns(std::move(plan.key_runs[b])));
    } else {
      columns.push_back(table.column(c).Take(idx));
    }
  }
  auto made = Table::Make(table.schema(), std::move(columns));
  VX_CHECK(made.ok()) << made.status().ToString();
  return std::move(made).MoveValueUnsafe();
}

Status ValidateKeyColumn(const Table& table, int key_column) {
  if (key_column < 0 || key_column >= table.num_columns()) {
    return Status::InvalidArgument("partition key column out of range");
  }
  if (table.column(key_column).type() != DataType::kInt64) {
    return Status::InvalidArgument("partition key must be INT64");
  }
  return Status::OK();
}

}  // namespace

std::vector<Table> HashPartition(const Table& table, int key_column,
                                 int num_partitions) {
  VX_CHECK(num_partitions > 0);
  VX_CHECK_OK(ValidateKeyColumn(table, key_column));
  const Column& keys = table.column(key_column);
  ScatterPlan plan =
      ScatterByKey(keys, num_partitions, [num_partitions](int64_t key) {
        return PartitionOf(key, num_partitions);
      });
  std::vector<Table> out;
  out.reserve(static_cast<size_t>(num_partitions));
  for (size_t b = 0; b < plan.indices.size(); ++b) {
    out.push_back(GatherBucket(table, key_column, plan, b));
  }
  return out;
}

Result<std::vector<Table>> ShardScatter(const Table& table, int key_column,
                                        const ShardingSpec& spec) {
  if (spec.num_shards < 1 || spec.base_partitions < 1 ||
      spec.num_shards > spec.base_partitions) {
    return Status::InvalidArgument("malformed ShardingSpec");
  }
  VX_RETURN_NOT_OK(ValidateKeyColumn(table, key_column));
  const Column& keys = table.column(key_column);
  ScatterPlan plan = ScatterByKey(
      keys, spec.num_shards,
      [&spec](int64_t key) { return spec.ShardOfKey(key); });
  std::vector<Table> out;
  out.reserve(static_cast<size_t>(spec.num_shards));
  for (size_t b = 0; b < plan.indices.size(); ++b) {
    Table shard = GatherBucket(table, key_column, plan, b);
    // A stable scatter keeps every shard a subsequence of the input, so
    // the input's declared order holds shard-locally — re-declare it
    // (Take/Make conservatively dropped it).
    if (!table.sort_order().empty()) {
      shard.SetSortOrder(table.sort_order());
    }
    out.push_back(std::move(shard));
  }
  return out;
}

Result<PartitionSet> PartitionSet::Build(TablePtr table, int key_column,
                                         const ShardingSpec& spec) {
  PartitionSet set;
  set.spec_ = spec;
  set.key_column_ = key_column;
  if (spec.num_shards == 1 && spec.base_partitions >= 1) {
    // One shard owns every key: the snapshot is the shard, as stored.
    VX_RETURN_NOT_OK(ValidateKeyColumn(*table, key_column));
    set.shards_.push_back(std::move(table));
  } else {
    VX_ASSIGN_OR_RETURN(std::vector<Table> shards,
                        ShardScatter(*table, key_column, spec));
    set.shards_.reserve(shards.size());
    const EncodingMode mode = ExecKnobs::Current().encoding;
    for (Table& shard : shards) {
      // Retain the physical design per shard: the scatter already carried
      // the sort-order declaration over; encoding adds segments + zone maps
      // for the columns it encodes (a key column rebuilt from runs is
      // already RLE and keeps its segment).
      if (mode != EncodingMode::kOff) shard.EncodeColumns(mode);
      set.shards_.push_back(std::make_shared<const Table>(std::move(shard)));
    }
  }
  // Self-audit the freshly built set (placement, per-shard structure): a
  // scatter bug caught here aborts at the source instead of surfacing as a
  // wrong answer supersteps later.
  VX_DCHECK_OK(set.CheckInvariants());
  return set;
}

int64_t PartitionSet::total_rows() const {
  int64_t total = 0;
  for (const auto& shard : shards_) total += shard->num_rows();
  return total;
}

void PartitionSet::ReplaceShard(int s, Table t) {
  shards_[static_cast<size_t>(s)] =
      std::make_shared<const Table>(std::move(t));
}

Status ShardingSpec::Validate() const {
  if (num_shards < 1 || base_partitions < 1 ||
      num_shards > base_partitions) {
    return Status::Internal(StringFormat(
        "ShardingSpec invariant violated: %d shards over %d base partitions",
        num_shards, base_partitions));
  }
  // ShardOfPartition must walk 0..num_shards-1 without skipping or going
  // backwards — contiguous monotone blocks, every shard non-empty.
  int prev = -1;
  for (int p = 0; p < base_partitions; ++p) {
    const int s = ShardOfPartition(p);
    if (s < prev || s > prev + 1 || s < 0 || s >= num_shards) {
      return Status::Internal(StringFormat(
          "ShardingSpec invariant violated: partition %d maps to shard %d "
          "after partition %d mapped to shard %d (not contiguous monotone "
          "blocks)",
          p, s, p - 1, prev));
    }
    prev = s;
  }
  if (prev != num_shards - 1) {
    return Status::Internal(StringFormat(
        "ShardingSpec invariant violated: last base partition maps to shard "
        "%d, leaving shards up to %d empty",
        prev, num_shards - 1));
  }
  return Status::OK();
}

Status PartitionSet::CheckInvariants() const {
  VX_RETURN_NOT_OK(spec_.Validate());
  if (static_cast<int>(shards_.size()) != spec_.num_shards) {
    return Status::Internal(StringFormat(
        "PartitionSet invariant violated: %zu resident shards for a %d-shard "
        "spec",
        shards_.size(), spec_.num_shards));
  }
  for (int s = 0; s < num_shards(); ++s) {
    const TablePtr& shard = shards_[static_cast<size_t>(s)];
    if (shard == nullptr) {
      return Status::Internal(StringFormat(
          "PartitionSet invariant violated: shard %d is null", s));
    }
    if (key_column_ < 0 || key_column_ >= shard->num_columns() ||
        shard->column(key_column_).type() != DataType::kInt64) {
      return Status::Internal(StringFormat(
          "PartitionSet invariant violated: key column %d invalid for shard "
          "%d",
          key_column_, s));
    }
    VX_RETURN_NOT_OK(shard->CheckInvariants());
    // Placement: every row must hash to the shard holding it (NULL keys to
    // shard 0) — the obligation ReplaceShard callers take on.
    const Column& keys = shard->column(key_column_);
    for (int64_t r = 0; r < keys.length(); ++r) {
      const int want =
          keys.IsNull(r) ? spec_.ShardOfNull() : spec_.ShardOfKey(keys.GetInt64(r));
      if (want != s) {
        return Status::Internal(StringFormat(
            "PartitionSet invariant violated: row %lld of shard %d carries a "
            "key owned by shard %d",
            static_cast<long long>(r), s, want));
      }
    }
  }
  return Status::OK();
}

}  // namespace vertexica
