// Unit tests for the transform-UDF framework and stored procedures.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "common/exec_knobs.h"
#include "exec/kernel_stats.h"
#include "udf/transform.h"

namespace vertexica {
namespace {

/// Sums the "v" column per distinct key within its partition, emitting
/// (key, sum) rows — a miniature of what the Vertexica worker does.
class PerKeySumUdf : public TransformUdf {
 public:
  const Schema& output_schema() const override {
    static const Schema kSchema({{"key", DataType::kInt64},
                                 {"sum", DataType::kInt64}});
    return kSchema;
  }

  Status ProcessPartition(
      const Table& partition,
      const std::function<Status(Table)>& emit) override {
    VX_ASSIGN_OR_RETURN(int key_col, partition.ColumnIndex("key"));
    VX_ASSIGN_OR_RETURN(int val_col, partition.ColumnIndex("v"));
    const auto& keys = partition.column(key_col).ints();
    const auto& vals = partition.column(val_col).ints();
    Table out(output_schema());
    int64_t i = 0;
    const int64_t n = partition.num_rows();
    while (i < n) {
      // Partition is sorted by key: consume one group.
      const int64_t key = keys[static_cast<size_t>(i)];
      int64_t sum = 0;
      while (i < n && keys[static_cast<size_t>(i)] == key) {
        sum += vals[static_cast<size_t>(i)];
        ++i;
      }
      VX_RETURN_NOT_OK(out.AppendRow({Value(key), Value(sum)}));
    }
    return emit(std::move(out));
  }
};

Table KeyValueTable(int64_t num_keys, int64_t rows_per_key) {
  Table t(Schema({{"key", DataType::kInt64}, {"v", DataType::kInt64}}));
  for (int64_t r = 0; r < rows_per_key; ++r) {
    for (int64_t k = 0; k < num_keys; ++k) {
      VX_CHECK_OK(t.AppendRow({Value(k), Value(k + r)}));
    }
  }
  return t;
}

TEST(TransformTest, PartitionedSumMatchesExpected) {
  Table in = KeyValueTable(20, 5);
  TransformOptions opts;
  opts.num_partitions = 4;
  opts.num_workers = 4;
  opts.sort_columns = {0};
  auto result =
      ApplyTransform(in, 0, [] { return std::make_unique<PerKeySumUdf>(); },
                     opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 20);
  // key k appears 5 times with values k, k+1, ..., k+4 => 5k + 10.
  for (int64_t i = 0; i < result->num_rows(); ++i) {
    const int64_t k = result->column(0).GetInt64(i);
    EXPECT_EQ(result->column(1).GetInt64(i), 5 * k + 10);
  }
}

TEST(TransformTest, EachKeyProcessedExactlyOnce) {
  Table in = KeyValueTable(100, 1);
  TransformOptions opts;
  opts.num_partitions = 7;
  opts.sort_columns = {0};
  auto result =
      ApplyTransform(in, 0, [] { return std::make_unique<PerKeySumUdf>(); },
                     opts);
  ASSERT_TRUE(result.ok());
  std::set<int64_t> keys;
  for (int64_t i = 0; i < result->num_rows(); ++i) {
    keys.insert(result->column(0).GetInt64(i));
  }
  EXPECT_EQ(keys.size(), 100u);
}

TEST(TransformTest, EmptyInputProducesEmptyOutput) {
  Table in(Schema({{"key", DataType::kInt64}, {"v", DataType::kInt64}}));
  auto result = ApplyTransform(
      in, 0, [] { return std::make_unique<PerKeySumUdf>(); }, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 0);
  EXPECT_TRUE(result->schema().HasField("sum"));
}

TEST(TransformTest, BadPartitionColumnFails) {
  Table in = KeyValueTable(2, 1);
  auto result = ApplyTransform(
      in, 9, [] { return std::make_unique<PerKeySumUdf>(); }, {});
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

/// UDF that records how many instances were created (lifecycle check).
class CountingUdf : public TransformUdf {
 public:
  static std::atomic<int> instances;
  CountingUdf() { instances++; }
  const Schema& output_schema() const override {
    static const Schema kSchema({{"n", DataType::kInt64}});
    return kSchema;
  }
  Status ProcessPartition(
      const Table& partition,
      const std::function<Status(Table)>& emit) override {
    Table out(output_schema());
    VX_RETURN_NOT_OK(out.AppendRow({Value(partition.num_rows())}));
    return emit(std::move(out));
  }
};
std::atomic<int> CountingUdf::instances{0};

TEST(TransformTest, OneInstancePerNonEmptyPartition) {
  Table in = KeyValueTable(64, 1);
  CountingUdf::instances = 0;
  TransformOptions opts;
  opts.num_partitions = 8;
  auto result = ApplyTransform(
      in, 0, [] { return std::make_unique<CountingUdf>(); }, opts);
  ASSERT_TRUE(result.ok());
  // One throwaway instance for schema discovery + one per non-empty
  // partition (with 64 spread keys, all 8 partitions are non-empty whp).
  EXPECT_GE(CountingUdf::instances.load(), 2);
  int64_t total = 0;
  for (int64_t i = 0; i < result->num_rows(); ++i) {
    total += result->column(0).GetInt64(i);
  }
  EXPECT_EQ(total, 64);
}

/// UDF that records the knobs its partition body sees. Each body waits (up
/// to two seconds) until a second one has started, so partitions run at
/// once and some run on pool workers.
class KnobProbeUdf : public TransformUdf {
 public:
  KnobProbeUdf(std::atomic<int>* started, std::mutex* mu,
               std::vector<ExecKnobs>* seen)
      : started_(started), mu_(mu), seen_(seen) {}
  const Schema& output_schema() const override {
    static const Schema kSchema({{"n", DataType::kInt64}});
    return kSchema;
  }
  Status ProcessPartition(const Table&,
                          const std::function<Status(Table)>&) override {
    started_->fetch_add(1);
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (started_->load() < 2 && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    const ExecKnobs knobs = ExecKnobs::Current();
    std::lock_guard<std::mutex> lock(*mu_);
    seen_->push_back(knobs);
    return Status::OK();
  }

 private:
  std::atomic<int>* started_;
  std::mutex* mu_;
  std::vector<ExecKnobs>* seen_;
};

TEST(TransformTest, PoolTasksSeeTheCallersKnobs) {
  // Every knob away from its default, plus a live cancel token and a
  // kernel-counter block.
  KernelStats stats;
  ExecKnobs caller;
  caller.threads = 4;
  caller.shards = 3;
  caller.encoding = EncodingMode::kOff;
  caller.frontier = FrontierMode::kOff;
  caller.vectorized = false;
  caller.cancel = CancelToken::Make();
  caller.kernel_stats = &stats;
  ScopedExecKnobs scoped(caller);
  ASSERT_TRUE(ExecKnobs::Current() == caller);

  std::atomic<int> started{0};
  std::mutex mu;
  std::vector<ExecKnobs> seen;
  TransformOptions opts;
  opts.num_partitions = 8;
  opts.num_workers = 4;
  auto result = ApplyTransform(
      KeyValueTable(64, 1), 0,
      [&] { return std::make_unique<KnobProbeUdf>(&started, &mu, &seen); },
      opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GE(seen.size(), 2u);
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_TRUE(seen[i] == caller) << "partition body " << i;
  }
}

/// UDF returning an error: must propagate.
class FailingUdf : public TransformUdf {
 public:
  const Schema& output_schema() const override {
    static const Schema kSchema({{"n", DataType::kInt64}});
    return kSchema;
  }
  Status ProcessPartition(const Table&,
                          const std::function<Status(Table)>&) override {
    return Status::Internal("boom");
  }
};

TEST(TransformTest, UdfErrorPropagates) {
  Table in = KeyValueTable(10, 1);
  auto result = ApplyTransform(
      in, 0, [] { return std::make_unique<FailingUdf>(); }, {});
  EXPECT_TRUE(result.status().IsInternal());
}

}  // namespace
}  // namespace vertexica
