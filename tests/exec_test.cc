// Unit tests for the relational operators and the plan builder.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "common/cancel.h"
#include "common/exec_knobs.h"
#include "common/random.h"
#include "common/threadpool.h"
#include "exec/kernel_stats.h"
#include "exec/parallel.h"
#include "exec/plan_builder.h"
#include "exec/vectorized.h"
#include "storage/sort.h"

namespace vertexica {
namespace {

Table People() {
  Table t(Schema({{"id", DataType::kInt64},
                  {"age", DataType::kInt64},
                  {"city", DataType::kString}}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{1}), Value(int64_t{30}), Value("bos")}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{2}), Value(int64_t{25}), Value("nyc")}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{3}), Value(int64_t{35}), Value("bos")}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{4}), Value(int64_t{40}), Value("sfo")}));
  return t;
}

Table Orders() {
  Table t(Schema({{"person", DataType::kInt64}, {"amount", DataType::kDouble}}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{1}), Value(10.0)}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{1}), Value(20.0)}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{2}), Value(5.0)}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{9}), Value(99.0)}));
  return t;
}

TEST(ScanTest, EmitsAllRowsInBatches) {
  Table t = People();
  TableScan scan(t, /*batch_size=*/3);
  auto b1 = scan.Next();
  ASSERT_TRUE(b1.ok());
  ASSERT_TRUE(b1->has_value());
  EXPECT_EQ((*b1)->num_rows(), 3);
  auto b2 = scan.Next();
  ASSERT_TRUE(b2->has_value());
  EXPECT_EQ((*b2)->num_rows(), 1);
  auto b3 = scan.Next();
  EXPECT_FALSE(b3->has_value());
}

TEST(ScanTest, EmptyTable) {
  TableScan scan(Table(Schema({{"x", DataType::kInt64}})));
  auto b = scan.Next();
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(b->has_value());
}

TEST(FilterTest, KeepsMatchingRows) {
  auto result = PlanBuilder::Scan(People())
                    .Filter(Ge(Col("age"), Lit(int64_t{30})))
                    .Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 3);
}

TEST(FilterTest, DropsNullPredicateRows) {
  Table t(Schema({{"v", DataType::kInt64}}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{1})}));
  VX_CHECK_OK(t.AppendRow({Value::Null()}));
  auto result = PlanBuilder::Scan(t).Filter(Gt(Col("v"), Lit(int64_t{0}))).Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 1);
}

TEST(FilterTest, NonBoolPredicateFails) {
  auto result = PlanBuilder::Scan(People()).Filter(Col("age")).Execute();
  EXPECT_TRUE(result.status().IsTypeError());
}

TEST(ProjectTest, ComputesExpressions) {
  auto result = PlanBuilder::Scan(People())
                    .Project({{"id", Col("id")},
                              {"age2", Mul(Col("age"), Lit(int64_t{2}))}})
                    .Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->schema().field(1).name, "age2");
  EXPECT_EQ(result->column(1).GetInt64(3), 80);
}

TEST(ProjectTest, TypeErrorSurfacesAtExecution) {
  auto result = PlanBuilder::Scan(People())
                    .Project({{"bad", Add(Col("city"), Lit(int64_t{1}))}})
                    .Execute();
  EXPECT_TRUE(result.status().IsTypeError());
}

TEST(HashJoinTest, InnerJoinMatches) {
  auto result = PlanBuilder::Scan(Orders())
                    .Join(PlanBuilder::Scan(People()), {"person"}, {"id"})
                    .Execute();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Orders for persons 1 (x2) and 2; person 9 has no match.
  EXPECT_EQ(result->num_rows(), 3);
  EXPECT_EQ(result->schema().num_fields(), 5);
}

TEST(HashJoinTest, LeftJoinPadsWithNulls) {
  auto result = PlanBuilder::Scan(Orders())
                    .Join(PlanBuilder::Scan(People()), {"person"}, {"id"},
                          JoinType::kLeft)
                    .Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 4);
  // Find the person=9 row: its joined id must be NULL.
  const auto& person = result->ColumnByName("person")->ints();
  int64_t row9 = -1;
  for (size_t i = 0; i < person.size(); ++i) {
    if (person[i] == 9) row9 = static_cast<int64_t>(i);
  }
  ASSERT_GE(row9, 0);
  EXPECT_TRUE(result->ColumnByName("id")->IsNull(row9));
}

TEST(HashJoinTest, SemiJoinKeepsLeftColumnsOnly) {
  auto result = PlanBuilder::Scan(Orders())
                    .Join(PlanBuilder::Scan(People()), {"person"}, {"id"},
                          JoinType::kSemi)
                    .Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 3);
  EXPECT_EQ(result->schema().num_fields(), 2);
}

TEST(HashJoinTest, AntiJoinKeepsNonMatching) {
  auto result = PlanBuilder::Scan(Orders())
                    .Join(PlanBuilder::Scan(People()), {"person"}, {"id"},
                          JoinType::kAnti)
                    .Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 1);
  EXPECT_EQ(result->column(0).GetInt64(0), 9);
}

TEST(HashJoinTest, DuplicateBuildKeysFanOut) {
  // Join people against orders (build side has dup keys for person 1).
  auto result = PlanBuilder::Scan(People())
                    .Join(PlanBuilder::Scan(Orders()), {"id"}, {"person"})
                    .Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 3);  // person1 x2 + person2 x1
}

TEST(HashJoinTest, NullKeysNeverMatch) {
  Table l(Schema({{"k", DataType::kInt64}}));
  VX_CHECK_OK(l.AppendRow({Value::Null()}));
  VX_CHECK_OK(l.AppendRow({Value(int64_t{1})}));
  Table r(Schema({{"k", DataType::kInt64}}));
  VX_CHECK_OK(r.AppendRow({Value::Null()}));
  VX_CHECK_OK(r.AppendRow({Value(int64_t{1})}));
  auto inner = PlanBuilder::Scan(l)
                   .Join(PlanBuilder::Scan(r), {"k"}, {"k"})
                   .Execute();
  ASSERT_TRUE(inner.ok());
  EXPECT_EQ(inner->num_rows(), 1);
  auto left = PlanBuilder::Scan(l)
                  .Join(PlanBuilder::Scan(r), {"k"}, {"k"}, JoinType::kLeft)
                  .Execute();
  EXPECT_EQ(left->num_rows(), 2);  // null row padded
}

TEST(HashJoinTest, CollidingNamesGetSuffix) {
  auto result = PlanBuilder::Scan(People())
                    .Join(PlanBuilder::Scan(People()), {"id"}, {"id"})
                    .Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->schema().HasField("id_r"));
  EXPECT_TRUE(result->schema().HasField("age_r"));
}

TEST(HashJoinTest, MultiColumnKeys) {
  Table l(Schema({{"a", DataType::kInt64}, {"b", DataType::kString}}));
  VX_CHECK_OK(l.AppendRow({Value(int64_t{1}), Value("x")}));
  VX_CHECK_OK(l.AppendRow({Value(int64_t{1}), Value("y")}));
  Table r(Schema({{"a", DataType::kInt64}, {"b", DataType::kString},
                  {"v", DataType::kInt64}}));
  VX_CHECK_OK(r.AppendRow({Value(int64_t{1}), Value("y"), Value(int64_t{7})}));
  auto result = PlanBuilder::Scan(l)
                    .Join(PlanBuilder::Scan(r), {"a", "b"}, {"a", "b"})
                    .Execute();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 1);
  EXPECT_EQ(result->ColumnByName("v")->GetInt64(0), 7);
}

TEST(AggregateTest, GroupBySumCount) {
  auto result =
      PlanBuilder::Scan(Orders())
          .Aggregate({"person"}, {{AggOp::kSum, "amount", "total"},
                                  {AggOp::kCountStar, "", "n"}})
          .Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 3);
  // Find person 1.
  for (int64_t i = 0; i < result->num_rows(); ++i) {
    if (result->column(0).GetInt64(i) == 1) {
      EXPECT_DOUBLE_EQ(result->column(1).GetDouble(i), 30.0);
      EXPECT_EQ(result->column(2).GetInt64(i), 2);
    }
  }
}

TEST(AggregateTest, GlobalAggregateOnEmptyInput) {
  Table empty(Schema({{"v", DataType::kInt64}}));
  auto result = PlanBuilder::Scan(empty)
                    .Aggregate({}, {{AggOp::kCountStar, "", "n"},
                                    {AggOp::kSum, "v", "s"},
                                    {AggOp::kMin, "v", "mn"}})
                    .Execute();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 1);
  EXPECT_EQ(result->column(0).GetInt64(0), 0);
  EXPECT_TRUE(result->column(1).IsNull(0));
  EXPECT_TRUE(result->column(2).IsNull(0));
}

TEST(AggregateTest, MinMaxAvg) {
  auto result = PlanBuilder::Scan(People())
                    .Aggregate({}, {{AggOp::kMin, "age", "mn"},
                                    {AggOp::kMax, "age", "mx"},
                                    {AggOp::kAvg, "age", "avg"}})
                    .Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->column(0).GetInt64(0), 25);
  EXPECT_EQ(result->column(1).GetInt64(0), 40);
  EXPECT_DOUBLE_EQ(result->column(2).GetDouble(0), 32.5);
}

TEST(AggregateTest, IntSumStaysInt) {
  auto result = PlanBuilder::Scan(People())
                    .Aggregate({}, {{AggOp::kSum, "age", "s"}})
                    .Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->schema().field(0).type, DataType::kInt64);
  EXPECT_EQ(result->column(0).GetInt64(0), 130);
}

TEST(AggregateTest, CountIgnoresNulls) {
  Table t(Schema({{"v", DataType::kInt64}}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{1})}));
  VX_CHECK_OK(t.AppendRow({Value::Null()}));
  auto result = PlanBuilder::Scan(t)
                    .Aggregate({}, {{AggOp::kCount, "v", "c"},
                                    {AggOp::kCountStar, "", "n"}})
                    .Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->column(0).GetInt64(0), 1);
  EXPECT_EQ(result->column(1).GetInt64(0), 2);
}

TEST(AggregateTest, StringGroupKeys) {
  auto result = PlanBuilder::Scan(People())
                    .Aggregate({"city"}, {{AggOp::kCountStar, "", "n"}})
                    .Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 3);
  for (int64_t i = 0; i < result->num_rows(); ++i) {
    if (result->column(0).GetString(i) == "bos") {
      EXPECT_EQ(result->column(1).GetInt64(i), 2);
    }
  }
}

TEST(AggregateTest, MinMaxOnStrings) {
  auto result = PlanBuilder::Scan(People())
                    .Aggregate({}, {{AggOp::kMin, "city", "mn"},
                                    {AggOp::kMax, "city", "mx"}})
                    .Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->column(0).GetString(0), "bos");
  EXPECT_EQ(result->column(1).GetString(0), "sfo");
}

TEST(AggregateTest, Int64MinMaxAreExactBeyondDoublePrecision) {
  // 2^53 and 2^53 + 1 widen to the same double; MIN/MAX must still tell
  // them apart, in either row order, in the serial operator's per-row fold
  // and in the parallel kernel's per-row fold (one chunk) and chunk merge
  // (one row per chunk).
  const int64_t lo = int64_t{1} << 53;
  const int64_t hi = lo + 1;
  const std::vector<AggSpec> aggs = {{AggOp::kMin, "v", "mn"},
                                     {AggOp::kMax, "v", "mx"}};
  for (const auto& rows : {std::vector<int64_t>{hi, lo},
                           std::vector<int64_t>{lo, hi}}) {
    const Table t = Table::Make(Schema({{"v", DataType::kInt64}}),
                                {Column::FromInts(rows)})
                        .ValueOrDie();
    const auto expect_exact = [&](const Table& out, const std::string& how) {
      ASSERT_EQ(out.num_rows(), 1) << how;
      EXPECT_EQ(out.column(0).GetInt64(0), lo) << how << " first=" << rows[0];
      EXPECT_EQ(out.column(1).GetInt64(0), hi) << how << " first=" << rows[0];
    };
    HashAggregateOp serial_op(std::make_unique<TableScan>(t), {}, aggs);
    auto serial = Collect(&serial_op);
    ASSERT_TRUE(serial.ok());
    expect_exact(*serial, "serial");
    for (int64_t morsel : {int64_t{1}, int64_t{1024}}) {
      ParallelOptions opts;
      opts.num_threads = 2;
      opts.morsel_rows = morsel;
      auto parallel = ParallelHashAggregate(t, {}, aggs, opts);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      expect_exact(*parallel, "parallel morsel=" + std::to_string(morsel));
    }
  }
}

TEST(AggregateTest, IntSumWrapsOnOverflow) {
  // INT64 SUM wraps in two's complement (it used to overflow a signed
  // accumulator, which is undefined) — in the serial fold, the typed fold
  // (NULL-free input) and the AccState fold (a NULL in the input), within
  // a chunk and across the chunk merge.
  const int64_t max = std::numeric_limits<int64_t>::max();
  const int64_t min = std::numeric_limits<int64_t>::min();
  for (const bool with_null : {false, true}) {
    Table t(Schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}}));
    VX_CHECK_OK(t.AppendRow({Value(int64_t{1}), Value(max)}));
    VX_CHECK_OK(t.AppendRow({Value(int64_t{2}), Value(min)}));
    VX_CHECK_OK(t.AppendRow({Value(int64_t{1}), Value(int64_t{2})}));
    VX_CHECK_OK(t.AppendRow({Value(int64_t{2}), Value(int64_t{-1})}));
    if (with_null) VX_CHECK_OK(t.AppendRow({Value(int64_t{1}), Value::Null()}));
    const std::vector<AggSpec> aggs = {{AggOp::kSum, "v", "s"}};
    const auto expect_wrapped = [&](const Table& out, const std::string& how) {
      ASSERT_EQ(out.num_rows(), 2) << how;
      EXPECT_EQ(out.column(1).GetInt64(0), min + 1) << how;  // max + 2
      EXPECT_EQ(out.column(1).GetInt64(1), max) << how;      // min - 1
    };
    HashAggregateOp serial_op(std::make_unique<TableScan>(t), {"k"}, aggs);
    auto serial = Collect(&serial_op);
    ASSERT_TRUE(serial.ok());
    expect_wrapped(*serial, "serial");
    for (int64_t morsel : {int64_t{1}, int64_t{1024}}) {
      ParallelOptions opts;
      opts.morsel_rows = morsel;
      auto parallel = ParallelHashAggregate(t, {"k"}, aggs, opts);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      expect_wrapped(*parallel, "parallel morsel=" + std::to_string(morsel) +
                                    " null=" + std::to_string(with_null));
    }
  }
}

TEST(UnionAllTest, ConcatenatesAndRenames) {
  Table a(Schema({{"x", DataType::kInt64}}));
  VX_CHECK_OK(a.AppendRow({Value(int64_t{1})}));
  Table b(Schema({{"y", DataType::kInt64}}));
  VX_CHECK_OK(b.AppendRow({Value(int64_t{2})}));
  auto result =
      PlanBuilder::Scan(a).Union(PlanBuilder::Scan(b)).Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 2);
  EXPECT_EQ(result->schema().field(0).name, "x");
}

TEST(UnionAllTest, TypeMismatchFails) {
  Table a(Schema({{"x", DataType::kInt64}}));
  Table b(Schema({{"x", DataType::kString}}));
  auto result = PlanBuilder::Scan(a).Union(PlanBuilder::Scan(b)).Execute();
  EXPECT_TRUE(result.status().IsTypeError());
}

TEST(SortOpTest, OrderByDescending) {
  auto result = PlanBuilder::Scan(People())
                    .OrderBy({{"age", false}})
                    .Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ColumnByName("age")->GetInt64(0), 40);
  EXPECT_EQ(result->ColumnByName("age")->GetInt64(3), 25);
}

TEST(LimitTest, TruncatesAcrossBatches) {
  Table t(Schema({{"v", DataType::kInt64}}));
  for (int64_t i = 0; i < 100; ++i) VX_CHECK_OK(t.AppendRow({Value(i)}));
  auto op = PlanBuilder::Scan(t, /*batch_size=*/7).Limit(20).Build();
  auto result = Collect(op.get());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 20);
}

TEST(DistinctTest, RemovesDuplicateRows) {
  Table t(Schema({{"a", DataType::kInt64}, {"b", DataType::kString}}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{1}), Value("x")}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{1}), Value("x")}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{1}), Value("y")}));
  auto result = PlanBuilder::Scan(t).Distinct().Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 2);
}

TEST(DistinctTest, TreatsNullsAsEqual) {
  Table t(Schema({{"a", DataType::kInt64}}));
  VX_CHECK_OK(t.AppendRow({Value::Null()}));
  VX_CHECK_OK(t.AppendRow({Value::Null()}));
  auto result = PlanBuilder::Scan(t).Distinct().Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 1);
}

TEST(PlanBuilderTest, SelectReordersColumns) {
  auto result =
      PlanBuilder::Scan(People()).Select({"city", "id"}).Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->schema().field(0).name, "city");
  EXPECT_EQ(result->schema().field(1).name, "id");
}

TEST(PlanBuilderTest, RenamePositional) {
  auto result = PlanBuilder::Scan(Orders()).Rename({"p", "amt"}).Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->schema().HasField("p"));
  EXPECT_TRUE(result->schema().HasField("amt"));
}

TEST(PlanBuilderTest, EndToEndPipeline) {
  // Average order amount per city of people over 24, sorted by city.
  auto result =
      PlanBuilder::Scan(Orders())
          .Join(PlanBuilder::Scan(People()).Filter(
                    Gt(Col("age"), Lit(int64_t{24}))),
                {"person"}, {"id"})
          .Aggregate({"city"}, {{AggOp::kAvg, "amount", "avg_amt"}})
          .OrderBy({{"city", true}})
          .Execute();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 2);
  EXPECT_EQ(result->column(0).GetString(0), "bos");
  EXPECT_DOUBLE_EQ(result->column(1).GetDouble(0), 15.0);
  EXPECT_EQ(result->column(0).GetString(1), "nyc");
  EXPECT_DOUBLE_EQ(result->column(1).GetDouble(1), 5.0);
}

TEST(ExplainTest, RendersPlanTree) {
  auto plan = PlanBuilder::Scan(Orders())
                  .Join(PlanBuilder::Scan(People()).Filter(
                            Gt(Col("age"), Lit(int64_t{24}))),
                        {"person"}, {"id"})
                  .Aggregate({"city"}, {{AggOp::kAvg, "amount", "avg_amt"}})
                  .OrderBy({{"city", true}})
                  .Limit(3);
  const std::string explain = plan.Explain();
  EXPECT_NE(explain.find("Limit(3)"), std::string::npos);
  EXPECT_NE(explain.find("Sort(city asc)"), std::string::npos);
  EXPECT_NE(explain.find("HashAggregate(by: city; AVG(amount))"),
            std::string::npos);
  EXPECT_NE(explain.find("HashJoin[INNER](person = id)"), std::string::npos);
  EXPECT_NE(explain.find("Filter((age > 24))"), std::string::npos);
  EXPECT_NE(explain.find("TableScan(4 rows)"), std::string::npos);
  // Tree shape: Limit at depth 0, scans further indented.
  EXPECT_EQ(explain.rfind("Limit(3)\n", 0), 0u);
}

TEST(ExplainTest, UnionAndTopN) {
  Table a(Schema({{"x", DataType::kInt64}}));
  Table b(Schema({{"x", DataType::kInt64}}));
  auto plan = PlanBuilder::Scan(a)
                  .Union(PlanBuilder::Scan(b))
                  .Distinct()
                  .TopN({{"x", false}}, 7);
  const std::string explain = plan.Explain();
  EXPECT_NE(explain.find("TopN(7)"), std::string::npos);
  EXPECT_NE(explain.find("Distinct"), std::string::npos);
  EXPECT_NE(explain.find("UnionAll"), std::string::npos);
}

TEST(CatalogTest, CreateGetReplaceDrop) {
  Catalog cat;
  EXPECT_TRUE(cat.CreateTable("t", People()).ok());
  EXPECT_TRUE(cat.CreateTable("t", People()).IsAlreadyExists());
  EXPECT_TRUE(cat.HasTable("t"));
  auto t = cat.GetTable("t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->num_rows(), 4);
  EXPECT_EQ(*cat.RowCount("t"), 4);

  Table smaller = People().Slice(0, 1);
  EXPECT_TRUE(cat.ReplaceTable("t", smaller).ok());
  EXPECT_EQ(*cat.RowCount("t"), 1);

  EXPECT_TRUE(cat.DropTable("t").ok());
  EXPECT_FALSE(cat.HasTable("t"));
  EXPECT_TRUE(cat.DropTable("t").IsNotFound());
  EXPECT_TRUE(cat.GetTable("t").status().IsNotFound());
}

TEST(CatalogTest, SnapshotsAreImmutable) {
  Catalog cat;
  VX_CHECK_OK(cat.CreateTable("t", People()));
  auto snap = *cat.GetTable("t");
  VX_CHECK_OK(cat.ReplaceTable("t", Table(Schema({{"x", DataType::kInt64}}))));
  // The old snapshot still sees 4 rows.
  EXPECT_EQ(snap->num_rows(), 4);
  EXPECT_EQ(*cat.RowCount("t"), 0);
}

// ---------------------------------------------------------------------------
// Morsel-parallel executor determinism (exec/parallel.h): the parallel
// kernels must produce row-set-identical results to the serial reference
// operators at 1/2/8 threads and adversarial morsel sizes, and bit-identical
// results across thread counts.
// ---------------------------------------------------------------------------

/// Random keyed table: k INT64 (low cardinality), v INT64, x DOUBLE, with
/// ~10% NULLs in v/x.
Table KeyedTable(uint64_t seed, int64_t rows, int64_t key_range) {
  Rng rng(seed);
  Table t(Schema({{"k", DataType::kInt64},
                  {"v", DataType::kInt64},
                  {"x", DataType::kDouble}}));
  for (int64_t r = 0; r < rows; ++r) {
    auto maybe_null = [&](Value v) {
      return rng.Bernoulli(0.1) ? Value::Null() : v;
    };
    VX_CHECK_OK(t.AppendRow(
        {Value(static_cast<int64_t>(rng.Uniform(
             static_cast<uint64_t>(key_range)))),
         maybe_null(Value(rng.UniformRange(-100, 100))),
         maybe_null(Value(rng.NextDouble()))}));
  }
  return t;
}

/// Canonical row order (sort by every column) for row-set comparison.
Table Sorted(const Table& t) {
  std::vector<SortKey> keys;
  for (int c = 0; c < t.num_columns(); ++c) keys.push_back(SortKey{c, true});
  return SortTable(t, keys);
}

const int kThreadSweep[] = {1, 2, 8};
const int64_t kMorselSweep[] = {1, 7, kDefaultMorselRows};

TEST(ParallelExecTest, FilterProjectMatchesSerialExactly) {
  const Table t = KeyedTable(11, 1000, 50);
  const ExprPtr pred = Gt(Col("v"), Lit(int64_t{0}));
  const std::vector<ProjectionSpec> proj = {
      {"k", Col("k")}, {"v2", Mul(Col("v"), Lit(int64_t{2}))}};
  auto serial = PlanBuilder::Scan(t).Filter(pred).Project(proj).Execute();
  ASSERT_TRUE(serial.ok());
  const auto shared = std::make_shared<const Table>(t);
  for (int threads : kThreadSweep) {
    for (int64_t morsel : kMorselSweep) {
      ParallelOptions opts;
      opts.num_threads = threads;
      opts.morsel_rows = morsel;
      auto parallel = ParallelFilterProject(shared, pred, proj, opts);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      // The morsel driver preserves row order, so equality is exact.
      EXPECT_TRUE(parallel->Equals(*serial))
          << "threads=" << threads << " morsel=" << morsel;
    }
  }
}

TEST(ParallelExecTest, JoinMatchesSerialAllTypesExactly) {
  const Table probe = KeyedTable(21, 700, 40);
  const Table build = KeyedTable(22, 300, 40);
  for (JoinType type : {JoinType::kInner, JoinType::kLeft, JoinType::kSemi,
                        JoinType::kAnti}) {
    HashJoinOp serial_op(std::make_unique<TableScan>(probe),
                         std::make_unique<TableScan>(build), {"k"}, {"k"},
                         type);
    auto serial = Collect(&serial_op);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    for (int threads : kThreadSweep) {
      for (int64_t morsel : kMorselSweep) {
        ParallelOptions opts;
        opts.num_threads = threads;
        opts.morsel_rows = morsel;
        auto parallel =
            ParallelHashJoin(probe, build, {"k"}, {"k"}, type, opts);
        ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
        // The parallel join reproduces the serial probe-row-major match
        // order exactly, at any thread count and morsel size.
        EXPECT_TRUE(parallel->Equals(*serial))
            << JoinTypeName(type) << " threads=" << threads
            << " morsel=" << morsel;
      }
    }
  }
}

TEST(ParallelExecTest, CollisionHeavyJoinKeys) {
  // Every row hashes to one of two keys: chains are long and fan-out is
  // quadratic per key — a worst case for partitioned builds.
  const Table probe = KeyedTable(31, 400, 2);
  const Table build = KeyedTable(32, 200, 2);
  HashJoinOp serial_op(std::make_unique<TableScan>(probe),
                       std::make_unique<TableScan>(build), {"k"}, {"k"},
                       JoinType::kInner);
  auto serial = Collect(&serial_op);
  ASSERT_TRUE(serial.ok());
  ParallelOptions opts;
  opts.num_threads = 8;
  opts.morsel_rows = 13;
  auto parallel =
      ParallelHashJoin(probe, build, {"k"}, {"k"}, JoinType::kInner, opts);
  ASSERT_TRUE(parallel.ok());
  EXPECT_GT(parallel->num_rows(), 10000);
  EXPECT_TRUE(parallel->Equals(*serial));
}

TEST(ParallelExecTest, MultiKeyNullKeyJoin) {
  // NULL keys never match, including in parallel probes.
  Table l(Schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}}));
  Table r(Schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}}));
  for (int64_t i = 0; i < 50; ++i) {
    VX_CHECK_OK(l.AppendRow({i % 2 == 0 ? Value::Null() : Value(i % 5),
                             Value(i % 3)}));
    VX_CHECK_OK(r.AppendRow({Value(i % 5),
                             i % 7 == 0 ? Value::Null() : Value(i % 3)}));
  }
  HashJoinOp serial_op(std::make_unique<TableScan>(l),
                       std::make_unique<TableScan>(r), {"a", "b"}, {"a", "b"},
                       JoinType::kLeft);
  auto serial = Collect(&serial_op);
  ASSERT_TRUE(serial.ok());
  ParallelOptions opts;
  opts.num_threads = 4;
  opts.morsel_rows = 3;
  auto parallel =
      ParallelHashJoin(l, r, {"a", "b"}, {"a", "b"}, JoinType::kLeft, opts);
  ASSERT_TRUE(parallel.ok());
  EXPECT_TRUE(parallel->Equals(*serial));
}

TEST(ParallelExecTest, AggregateRowSetMatchesSerial) {
  const Table t = KeyedTable(41, 2000, 30);
  const std::vector<AggSpec> aggs = {{AggOp::kCountStar, "", "n"},
                                     {AggOp::kCount, "v", "cv"},
                                     {AggOp::kSum, "v", "sv"},
                                     {AggOp::kMin, "v", "mn"},
                                     {AggOp::kMax, "v", "mx"}};
  // Integer aggregates merge exactly, so parallel == serial bit-for-bit.
  HashAggregateOp serial_op(std::make_unique<TableScan>(t), {"k"}, aggs);
  auto serial = Collect(&serial_op);
  ASSERT_TRUE(serial.ok());
  for (int threads : kThreadSweep) {
    for (int64_t morsel : kMorselSweep) {
      ParallelOptions opts;
      opts.num_threads = threads;
      opts.morsel_rows = morsel;
      auto parallel = ParallelHashAggregate(t, {"k"}, aggs, opts);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      EXPECT_TRUE(Sorted(*parallel).Equals(Sorted(*serial)))
          << "threads=" << threads << " morsel=" << morsel;
      // Group order is global first-appearance order, like the serial op.
      EXPECT_TRUE(parallel->Equals(*serial))
          << "threads=" << threads << " morsel=" << morsel;
    }
  }
}

TEST(ParallelExecTest, DoubleAggregatesBitIdenticalAcrossThreads) {
  const Table t = KeyedTable(51, 3000, 10);
  const std::vector<AggSpec> aggs = {{AggOp::kSum, "x", "sx"},
                                     {AggOp::kAvg, "x", "ax"}};
  // Chunk boundaries depend only on morsel_rows, so any thread count gives
  // the same FP merge order: results must be bit-identical.
  ParallelOptions base;
  base.morsel_rows = 64;
  base.num_threads = 1;
  auto reference = ParallelHashAggregate(t, {"k"}, aggs, base);
  ASSERT_TRUE(reference.ok());
  for (int threads : {2, 4, 8}) {
    ParallelOptions opts = base;
    opts.num_threads = threads;
    auto out = ParallelHashAggregate(t, {"k"}, aggs, opts);
    ASSERT_TRUE(out.ok());
    EXPECT_TRUE(out->Equals(*reference)) << "threads=" << threads;
  }
  // And row-set equal (within FP rounding) to the serial fold.
  HashAggregateOp serial_op(std::make_unique<TableScan>(t), {"k"}, aggs);
  auto serial = Collect(&serial_op);
  ASSERT_TRUE(serial.ok());
  ASSERT_EQ(reference->num_rows(), serial->num_rows());
  const Table sp = Sorted(*reference);
  const Table ss = Sorted(*serial);
  for (int64_t r = 0; r < sp.num_rows(); ++r) {
    EXPECT_EQ(sp.column(0).GetInt64(r), ss.column(0).GetInt64(r));
    EXPECT_NEAR(sp.column(1).GetDouble(r), ss.column(1).GetDouble(r), 1e-9);
    EXPECT_NEAR(sp.column(2).GetDouble(r), ss.column(2).GetDouble(r), 1e-9);
  }
}

TEST(ParallelExecTest, EmptyAndTinyInputs) {
  const Table empty(Schema({{"k", DataType::kInt64},
                            {"v", DataType::kInt64},
                            {"x", DataType::kDouble}}));
  ParallelOptions opts;
  opts.num_threads = 8;
  opts.morsel_rows = 1;

  // Empty probe, empty build, and both.
  const Table one = KeyedTable(61, 1, 3);
  for (const auto& [probe, build] :
       {std::pair<const Table&, const Table&>{empty, one},
        {one, empty},
        {empty, empty}}) {
    auto out = ParallelHashJoin(probe, build, {"k"}, {"k"}, JoinType::kInner,
                                opts);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->num_rows(), 0);
    EXPECT_EQ(out->num_columns(), 6);
  }

  // Global aggregate over an empty table still yields its single row.
  auto agg = ParallelHashAggregate(
      empty, {}, {{AggOp::kCountStar, "", "n"}, {AggOp::kSum, "v", "s"}},
      opts);
  ASSERT_TRUE(agg.ok());
  ASSERT_EQ(agg->num_rows(), 1);
  EXPECT_EQ(agg->column(0).GetInt64(0), 0);
  EXPECT_TRUE(agg->column(1).IsNull(0));

  // One-morsel input through the driver.
  auto filtered = ParallelFilter(std::make_shared<const Table>(one),
                                 Ge(Col("k"), Lit(int64_t{0})), opts);
  ASSERT_TRUE(filtered.ok());
  EXPECT_EQ(filtered->num_rows(), 1);
}

TEST(ParallelExecTest, PlanBuilderUsesParallelOperators) {
  // The builder's join/aggregate are the morsel-parallel operators; EXPLAIN
  // makes that visible while keeping the serial label as a prefix.
  Table t = KeyedTable(71, 10, 3);
  auto plan = PlanBuilder::Scan(t)
                  .Join(PlanBuilder::Scan(t), {"k"}, {"k"})
                  .Aggregate({"k"}, {{AggOp::kCountStar, "", "n"}});
  const std::string explain = plan.Explain();
  EXPECT_NE(explain.find("[morsel]"), std::string::npos);
}

TEST(ParallelExecTest, ThreadBudgetResolutionOrder) {
  // ExecThreads(): installed context > process default > env/hardware.
  const int ambient = ExecThreads();
  SetDefaultExecThreads(3);
  EXPECT_EQ(ExecThreads(), 3);
  {
    ExecKnobs knobs = ExecKnobs::Current();
    knobs.threads = 5;
    ScopedExecKnobs scoped(knobs);
    EXPECT_EQ(ExecThreads(), 5);
  }
  EXPECT_EQ(ExecThreads(), 3);
  SetDefaultExecThreads(0);  // restore automatic resolution
  EXPECT_EQ(ExecThreads(), ambient);
}

TEST(ParallelForTest, FirstErrorWinsAndSkipsRemaining) {
  Status st = ThreadPool::Default()->ParallelFor(
      0, 1000, /*grain=*/1,
      [&](std::size_t begin, std::size_t) -> Status {
        if (begin == 3) return Status::Internal("boom");
        if (begin == 7) return Status::InvalidArgument("later");
        return Status::OK();
      },
      /*max_threads=*/2);
  // A failing chunk's error surfaces; once the failure flag is up the
  // remaining chunks are skipped, never overwriting the first error.
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find(st.IsInternal() ? "boom" : "later"),
            std::string::npos);
}

TEST(ParallelForTest, PreCancelledTokenRunsNothing) {
  CancelToken token = CancelToken::Make();
  token.Cancel();
  ExecKnobs knobs = ExecKnobs::Current();
  knobs.cancel = token;
  ScopedExecKnobs scope(knobs);
  std::atomic<int> executed{0};
  const Status st = ThreadPool::Default()->ParallelFor(
      0, 1000, /*grain=*/1,
      [&](std::size_t, std::size_t) -> Status {
        ++executed;
        return Status::OK();
      },
      4);
  EXPECT_TRUE(st.IsCancelled()) << st.ToString();
  EXPECT_EQ(executed.load(), 0);  // checked before the first grain
}

TEST(ParallelForTest, CancelMidRunStopsAtGrainBoundary) {
  CancelToken token = CancelToken::Make();
  ExecKnobs knobs = ExecKnobs::Current();
  knobs.cancel = token;
  ScopedExecKnobs scope(knobs);
  std::atomic<int> executed{0};
  const Status st = ThreadPool::Default()->ParallelFor(
      0, 10000, /*grain=*/1,
      [&](std::size_t begin, std::size_t) -> Status {
        if (begin == 0) token.Cancel();
        ++executed;
        return Status::OK();
      },
      2);
  EXPECT_TRUE(st.IsCancelled()) << st.ToString();
  // Grains already in flight may finish; the bulk is skipped.
  EXPECT_LT(executed.load(), 10000);
}

TEST(ParallelForTest, ExpiredDeadlineSurfacesAsDeadlineExceeded) {
  ExecKnobs knobs = ExecKnobs::Current();
  knobs.cancel = CancelToken().WithDeadlineAfter(0.0);
  ScopedExecKnobs scope(knobs);
  const Status st = ThreadPool::Default()->ParallelFor(
      0, 100, /*grain=*/10,
      [](std::size_t, std::size_t) -> Status { return Status::OK(); }, 2);
  EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
}

TEST(ParallelForTest, VoidOverloadIgnoresAmbientCancellation) {
  // The exception-contract overload has no error channel, so it is not
  // cancellable: an ambient cancelled token must neither abort nor skip.
  CancelToken token = CancelToken::Make();
  token.Cancel();
  ExecKnobs knobs = ExecKnobs::Current();
  knobs.cancel = token;
  ScopedExecKnobs scope(knobs);
  std::atomic<int> executed{0};
  ThreadPool::Default()->ParallelFor(100, [&](std::size_t) { ++executed; });
  EXPECT_EQ(executed.load(), 100);
}

/// Blocks until `count` callers have arrived, or two seconds have passed:
/// chunks that meet here run at once, so on distinct threads.
void Rendezvous(std::atomic<int>* arrived, int count) {
  arrived->fetch_add(1);
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (arrived->load() < count &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
}

TEST(ParallelForTest, PoolTasksRunUnderTheSubmittersContext) {
  // Every field away from its default; no chunk installs anything.
  KernelStats stats;
  ExecKnobs submitter = ExecKnobs::Current();
  submitter.threads = 3;
  submitter.encoding = EncodingMode::kForce;
  submitter.frontier = FrontierMode::kOn;
  submitter.vectorized = false;
  submitter.cancel = CancelToken::Make();
  submitter.kernel_stats = &stats;
  ScopedExecKnobs scope(submitter);
  const std::thread::id submitting_thread = std::this_thread::get_id();

  constexpr int kChunks = 3;
  std::atomic<int> arrived{0};
  std::atomic<int> on_helpers{0};
  std::atomic<int> mismatches{0};
  Status st = ThreadPool::Default()->ParallelFor(
      0, kChunks, /*grain=*/1,
      [&](std::size_t, std::size_t) -> Status {
        Rendezvous(&arrived, kChunks);
        if (std::this_thread::get_id() != submitting_thread) ++on_helpers;
        if (ExecKnobs::Current() != submitter) ++mismatches;
        // A loop nested in a pool task runs under the same context.
        return ThreadPool::Default()->ParallelFor(
            0, 8, /*grain=*/1,
            [&](std::size_t, std::size_t) -> Status {
              if (ExecKnobs::Current() != submitter) ++mismatches;
              return Status::OK();
            },
            2);
      },
      kChunks);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_GE(on_helpers.load(), 1);  // helpers really ran chunks
  EXPECT_EQ(mismatches.load(), 0);

  // Cancelling the token from a chunk stops a loop nested on a helper.
  arrived = 0;
  Status nested = Status::Internal("no chunk ran on a helper");
  st = ThreadPool::Default()->ParallelFor(
      0, 2, /*grain=*/1,
      [&](std::size_t, std::size_t) -> Status {
        Rendezvous(&arrived, 2);
        if (std::this_thread::get_id() == submitting_thread) {
          return Status::OK();
        }
        submitter.cancel.Cancel();
        nested = ThreadPool::Default()->ParallelFor(
            0, 64, /*grain=*/1,
            [](std::size_t, std::size_t) -> Status { return Status::OK(); },
            2);
        return nested;
      },
      2);
  EXPECT_TRUE(nested.IsCancelled()) << nested.ToString();
  EXPECT_TRUE(st.IsCancelled()) << st.ToString();
}

TEST(ParallelForTest, ExceptionsBecomeStatus) {
  Status st = ThreadPool::Default()->ParallelFor(
      0, 8, /*grain=*/1,
      [](std::size_t begin, std::size_t) -> Status {
        if (begin == 5) throw std::runtime_error("kaput");
        return Status::OK();
      },
      4);
  EXPECT_TRUE(st.IsInternal());
  EXPECT_NE(st.ToString().find("kaput"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Fused selection-vector path (exec/vectorized.h): the `vectorized` knob is
// a pure physical-plan swap, so every random σ/π/join/agg plan — NULLs,
// NaN, strings, encoded columns — must produce *byte-identical* tables with
// the knob on and off, at 1 and 8 threads.
// ---------------------------------------------------------------------------

/// Random wide table: k INT64 (runs, RLE-friendly), v INT64 (~10% NULL),
/// x DOUBLE (~10% NULL, ~5% NaN), s STRING (low cardinality,
/// dict-friendly), b BOOL (~10% NULL).
Table FuzzTable(uint64_t seed, int64_t rows) {
  Rng rng(seed);
  const char* cities[] = {"bos", "nyc", "sfo", "chi"};
  Table t(Schema({{"k", DataType::kInt64},
                  {"v", DataType::kInt64},
                  {"x", DataType::kDouble},
                  {"s", DataType::kString},
                  {"b", DataType::kBool}}));
  int64_t run_key = 0;
  for (int64_t r = 0; r < rows; ++r) {
    if (rng.Bernoulli(0.02)) run_key = rng.UniformRange(0, 20);
    const double x = rng.Bernoulli(0.05)
                         ? std::numeric_limits<double>::quiet_NaN()
                         : rng.NextDouble() * 200 - 100;
    VX_CHECK_OK(t.AppendRow(
        {Value(run_key),
         rng.Bernoulli(0.1) ? Value::Null()
                            : Value(rng.UniformRange(-100, 100)),
         rng.Bernoulli(0.1) ? Value::Null() : Value(x),
         Value(std::string(cities[rng.Uniform(4)])),
         rng.Bernoulli(0.1) ? Value::Null() : Value(rng.Bernoulli(0.5))}));
  }
  return t;
}

/// A random predicate: 1-3 pushable conjuncts over the FuzzTable columns,
/// plus (with probability ~1/4) a computed conjunct that forces the
/// interpreter fallback — the fallback must agree with itself too.
ExprPtr FuzzPredicate(Rng* rng) {
  auto conjunct = [&]() -> ExprPtr {
    switch (rng->Uniform(5)) {
      case 0:
        return Ge(Col("k"), Lit(rng->UniformRange(0, 20)));
      case 1:
        return Lt(Col("v"), Lit(rng->UniformRange(-50, 50)));
      case 2:
        return Gt(Col("x"), Lit(rng->NextDouble() * 100 - 50));
      case 3:
        return Eq(Col("s"), Lit(std::string(rng->Bernoulli(0.5) ? "bos"
                                                                : "nyc")));
      default:
        return Eq(Col("b"), Lit(rng->Bernoulli(0.5)));
    }
  };
  ExprPtr pred = conjunct();
  const uint64_t extra = rng->Uniform(3);
  for (uint64_t i = 0; i < extra; ++i) pred = And(std::move(pred), conjunct());
  if (rng->Bernoulli(0.25)) {
    // Not pushable: exercises the residual/interpreter path under both
    // knob settings.
    pred = And(std::move(pred),
               Ge(Mul(Col("v"), Lit(int64_t{1})), Lit(int64_t{-200})));
  }
  return pred;
}

/// Random projection: column refs in random order, a literal output, and
/// (with probability ~1/4) a computed column that forces the fallback.
std::vector<ProjectionSpec> FuzzProjection(Rng* rng) {
  std::vector<ProjectionSpec> proj;
  const char* cols[] = {"k", "v", "x", "s", "b"};
  for (const char* c : cols) {
    if (rng->Bernoulli(0.7)) proj.push_back({c, Col(c)});
  }
  if (proj.empty()) proj.push_back({"k", Col("k")});
  if (rng->Bernoulli(0.5)) proj.push_back({"tag", Lit(int64_t{7})});
  if (rng->Bernoulli(0.25)) {
    proj.push_back({"v2", Mul(Col("v"), Lit(int64_t{2}))});
  }
  return proj;
}

/// Runs `fn` under the given knob settings and returns its table.
template <typename Fn>
Table RunWithKnobs(bool vectorized, int threads, const Fn& fn) {
  ExecKnobs knobs = ExecKnobs::Current();
  knobs.vectorized = vectorized;
  knobs.threads = threads;
  ScopedExecKnobs scope(knobs);
  auto result = fn();
  VX_CHECK_OK(result.status());
  return std::move(result).ValueOrDie();
}

TEST(VectorizedTest, RandomSigmaPiPlansBitIdenticalOnVsOff) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed * 977);
    Table plain = FuzzTable(seed, 700);
    Table encoded = plain;
    encoded.EncodeColumns(EncodingMode::kForce);
    const ExprPtr pred = FuzzPredicate(&rng);
    const auto proj = FuzzProjection(&rng);
    for (const Table& t : {plain, encoded}) {
      const auto shared = std::make_shared<const Table>(t);
      ParallelOptions opts;
      opts.morsel_rows = 97;  // force many morsels
      auto run = [&] {
        return ParallelFilterProject(shared, pred, proj, opts);
      };
      const Table reference = RunWithKnobs(false, 1, run);
      for (int threads : {1, 8}) {
        for (bool vectorized : {false, true}) {
          const Table out = RunWithKnobs(vectorized, threads, run);
          EXPECT_TRUE(out.Equals(reference))
              << "seed=" << seed << " vectorized=" << vectorized
              << " threads=" << threads;
        }
      }
    }
  }
}

TEST(VectorizedTest, FilterAndProjectKernelsMatchAcrossKnob) {
  for (uint64_t seed = 100; seed < 106; ++seed) {
    Rng rng(seed);
    Table t = FuzzTable(seed, 500);
    if (seed % 2 == 0) t.EncodeColumns(EncodingMode::kForce);
    const auto shared = std::make_shared<const Table>(t);
    const ExprPtr pred = FuzzPredicate(&rng);
    const auto proj = FuzzProjection(&rng);
    ParallelOptions opts;
    opts.morsel_rows = 61;
    const Table filter_ref =
        RunWithKnobs(false, 1, [&] { return ParallelFilter(shared, pred, opts); });
    const Table project_ref =
        RunWithKnobs(false, 1, [&] { return ParallelProject(shared, proj, opts); });
    for (int threads : {1, 8}) {
      EXPECT_TRUE(RunWithKnobs(true, threads, [&] {
                    return ParallelFilter(shared, pred, opts);
                  }).Equals(filter_ref))
          << "seed=" << seed << " threads=" << threads;
      EXPECT_TRUE(RunWithKnobs(true, threads, [&] {
                    return ParallelProject(shared, proj, opts);
                  }).Equals(project_ref))
          << "seed=" << seed << " threads=" << threads;
    }
  }
}

TEST(VectorizedTest, JoinAndAggregatePlansBitIdenticalOnVsOff) {
  // The batched hash kernel must hash byte-identically to JoinKeyHash, and
  // aggregation downstream of fused pipelines must see identical input.
  const Table probe = FuzzTable(201, 600);
  Table build = FuzzTable(202, 250);
  build.EncodeColumns(EncodingMode::kForce);
  const std::vector<AggSpec> aggs = {{AggOp::kCountStar, "", "n"},
                                     {AggOp::kSum, "v", "sv"}};
  ParallelOptions opts;
  opts.morsel_rows = 83;
  for (JoinType type :
       {JoinType::kInner, JoinType::kLeft, JoinType::kSemi, JoinType::kAnti}) {
    const Table join_ref = RunWithKnobs(false, 1, [&] {
      return ParallelHashJoin(probe, build, {"k", "s"}, {"k", "s"}, type,
                              opts);
    });
    for (int threads : {1, 8}) {
      for (bool vectorized : {false, true}) {
        EXPECT_TRUE(RunWithKnobs(vectorized, threads, [&] {
                      return ParallelHashJoin(probe, build, {"k", "s"},
                                              {"k", "s"}, type, opts);
                    }).Equals(join_ref))
            << JoinTypeName(type) << " vectorized=" << vectorized
            << " threads=" << threads;
      }
    }
  }
  const Table agg_ref = RunWithKnobs(false, 1, [&] {
    return ParallelHashAggregate(probe, {"k"}, aggs, opts);
  });
  for (bool vectorized : {false, true}) {
    EXPECT_TRUE(RunWithKnobs(vectorized, 8, [&] {
                  return ParallelHashAggregate(probe, {"k"}, aggs, opts);
                }).Equals(agg_ref))
        << "vectorized=" << vectorized;
  }
}

TEST(VectorizedTest, KnobResolutionOrder) {
  // The innermost installed context wins; ending it restores the outer
  // one, and ending that the process default.
  const bool ambient = ExecKnobs::Current().vectorized;
  ExecKnobs on = ExecKnobs::Current();
  on.vectorized = true;
  ExecKnobs off = on;
  off.vectorized = false;
  {
    ScopedExecKnobs on_scope(on);
    EXPECT_TRUE(ExecKnobs::Current().vectorized);
    {
      ScopedExecKnobs off_scope(off);
      EXPECT_FALSE(ExecKnobs::Current().vectorized);
    }
    EXPECT_TRUE(ExecKnobs::Current().vectorized);
  }
  EXPECT_EQ(ExecKnobs::Current().vectorized, ambient);
}

TEST(VectorizedTest, ExecKnobsRideIntoPoolTasks) {
  // No install in the body: the pool runs each chunk under the
  // submitter's context.
  KernelStats block;
  ExecKnobs knobs = ExecKnobs::Current();
  knobs.vectorized = false;
  knobs.kernel_stats = &block;
  ScopedExecKnobs scope(knobs);
  Status st = ThreadPool::Default()->ParallelFor(
      0, 4, 1,
      [&](std::size_t, std::size_t) -> Status {
        if (ExecKnobs::Current().vectorized) {
          return Status::Internal("knob not installed");
        }
        if (ExecKnobs::Current().kernel_stats != &block) {
          return Status::Internal("collector not installed");
        }
        return Status::OK();
      },
      2);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(KernelStatsTest, CountersAreDeterministicAcrossThreadsAndPerScope) {
  const Table t = FuzzTable(301, 2000);
  const auto shared = std::make_shared<const Table>(t);
  const ExprPtr pred = And(Ge(Col("k"), Lit(int64_t{3})),
                           Lt(Col("v"), Lit(int64_t{40})));
  const std::vector<ProjectionSpec> proj = {{"k", Col("k")}, {"v", Col("v")}};
  ParallelOptions opts;
  opts.morsel_rows = 128;
  auto measure = [&](bool vectorized, int threads) {
    KernelStats block;
    ExecKnobs knobs = ExecKnobs::Current();
    knobs.kernel_stats = &block;
    knobs.vectorized = vectorized;
    knobs.threads = threads;
    ScopedExecKnobs scope(knobs);
    VX_CHECK_OK(ParallelFilterProject(shared, pred, proj, opts).status());
    return Snapshot(block);
  };
  const KernelStatsSnapshot fused1 = measure(true, 1);
  const KernelStatsSnapshot fused8 = measure(true, 8);
  const KernelStatsSnapshot legacy1 = measure(false, 1);
  const KernelStatsSnapshot legacy8 = measure(false, 8);
  // Morsel boundaries don't depend on threads, so neither do the counters.
  EXPECT_EQ(fused1.bytes_materialized, fused8.bytes_materialized);
  EXPECT_EQ(fused1.fused_batches, fused8.fused_batches);
  EXPECT_EQ(legacy1.bytes_materialized, legacy8.bytes_materialized);
  EXPECT_EQ(legacy1.legacy_batches, legacy8.legacy_batches);
  // The fused path exists to materialize less.
  EXPECT_GT(fused1.fused_batches, 0);
  EXPECT_EQ(fused1.legacy_batches, 0);
  EXPECT_GT(legacy1.legacy_batches, 0);
  EXPECT_LT(fused1.bytes_materialized, legacy1.bytes_materialized);
  // Per-scope isolation: a fresh block starts at zero even though another
  // run just counted (nothing is process-wide).
  KernelStats fresh;
  EXPECT_EQ(Snapshot(fresh).bytes_materialized, 0);
  // And with no collector installed, counting is off entirely.
  EXPECT_EQ(ExecKnobs::Current().kernel_stats, nullptr);
}

TEST(KernelStatsTest, ConcurrentFiltersCountPruningInTheirOwnBlocks) {
  // Two zone-pruned filters of different selectivity run solo, then at
  // once from two threads that meet at a rendezvous first. The prune
  // counters live in the run's block, not in the process, so each
  // concurrent block equals its filter's solo run.
  Table t(Schema({{"k", DataType::kInt64}}));
  for (int64_t i = 0; i < 40000; ++i) {
    VX_CHECK_OK(t.AppendRow({Value(i / 1000)}));
  }
  t.BuildZoneMaps();
  const auto table = std::make_shared<const Table>(std::move(t));
  const ExprPtr preds[2] = {Eq(Col("k"), Lit(int64_t{7})),
                            Lt(Col("k"), Lit(int64_t{30}))};
  ParallelOptions opts;
  opts.morsel_rows = 1000;
  const auto run = [&](int which, KernelStats* block) {
    ExecKnobs knobs = ExecKnobs::Current();
    knobs.threads = 4;
    knobs.kernel_stats = block;
    ScopedExecKnobs scope(knobs);
    VX_CHECK_OK(ParallelFilter(table, preds[which], opts).status());
  };
  const auto prune_counts = [](const KernelStats& block) {
    const KernelStatsSnapshot s = Snapshot(block);
    return std::vector<int64_t>{s.ranges_checked, s.ranges_pruned,
                                s.rows_pruned};
  };

  KernelStats solo[2];
  run(0, &solo[0]);
  run(1, &solo[1]);
  EXPECT_GT(Snapshot(solo[0]).ranges_pruned, 0);
  EXPECT_GT(Snapshot(solo[1]).ranges_pruned, 0);
  EXPECT_NE(prune_counts(solo[0]), prune_counts(solo[1]));

  KernelStats concurrent[2];
  std::atomic<int> arrived{0};
  std::vector<std::thread> threads;
  for (int which = 0; which < 2; ++which) {
    threads.emplace_back([&, which] {
      arrived.fetch_add(1);
      while (arrived.load() < 2) std::this_thread::yield();
      run(which, &concurrent[which]);
    });
  }
  for (std::thread& th : threads) th.join();
  for (int which = 0; which < 2; ++which) {
    EXPECT_EQ(prune_counts(concurrent[which]), prune_counts(solo[which]))
        << "filter " << which;
  }
}

// ---------------------------------------------------------------------------
// Typed kernels (docs/EXECUTOR.md, "Typed kernels"): the single-INT64-key
// join, the typed grouped fold and the typed expression loops must give
// exactly the rows, order and bits of the generic operators. Seeded
// property sweeps; a failure prints the seed that replays it.
// ---------------------------------------------------------------------------

/// The hardware's NaN (the one inf - inf yields), so NaN sums never depend
/// on which of two different NaNs an addition returns.
double HardwareNaN() {
  volatile double inf = std::numeric_limits<double>::infinity();
  return inf - inf;
}

/// Same types, same NULLs and the same raw bits in every slot (so -0.0 and
/// 0.0 differ, and NaN payloads count) — stricter than Table::Equals.
::testing::AssertionResult BitIdentical(const Table& a, const Table& b) {
  if (!a.schema().EqualTypes(b.schema()) || a.num_rows() != b.num_rows()) {
    return ::testing::AssertionFailure()
           << "shape " << a.schema().ToString() << " x " << a.num_rows()
           << " vs " << b.schema().ToString() << " x " << b.num_rows();
  }
  for (int c = 0; c < a.num_columns(); ++c) {
    const Column& x = a.column(c);
    const Column& y = b.column(c);
    for (int64_t r = 0; r < a.num_rows(); ++r) {
      bool same = x.IsNull(r) == y.IsNull(r);
      if (same && !x.IsNull(r)) {
        if (x.type() == DataType::kDouble) {
          const double dx = x.GetDouble(r);
          const double dy = y.GetDouble(r);
          same = std::memcmp(&dx, &dy, sizeof(double)) == 0;
        } else {
          same = x.CompareRows(r, y, r) == 0;
        }
      }
      if (!same) {
        return ::testing::AssertionFailure()
               << "column " << a.schema().field(c).name << " row " << r
               << ": " << x.GetValue(r).ToString() << " vs "
               << y.GetValue(r).ToString();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Key shapes: dense small ids (direct-address paths), sparse ids near
/// ±2^50 (hash/CSR paths), dense ids with NULLs (the generic fallback).
enum class KeyShape { kDense, kSparse, kNullable };

int64_t TypedKey(Rng* rng, KeyShape shape) {
  const int64_t small = rng->UniformRange(-3, 12);
  if (shape != KeyShape::kSparse) return small;
  const int64_t far = int64_t{1} << 50;
  return (rng->Bernoulli(0.5) ? far : -far) + small * 977;
}

/// (k INT64 key, v INT64, x DOUBLE): v spans values beyond 2^53 and the
/// INT64 extremes, x holds -0.0, 0.0, NaN, ±inf and wide magnitudes;
/// `nullable_values` adds NULLs to v and x.
Table TypedTable(Rng* rng, int64_t rows, KeyShape shape,
                 bool nullable_values) {
  const double kInf = std::numeric_limits<double>::infinity();
  const double doubles[] = {-0.0, 0.0,     HardwareNaN(), kInf, -kInf,
                            1e300, -1e300, 1e-300,        0.1,  -2.5};
  const int64_t big = (int64_t{1} << 53) + 1;
  const int64_t ints[] = {big,
                          -big,
                          std::numeric_limits<int64_t>::max(),
                          std::numeric_limits<int64_t>::min(),
                          0,
                          -1};
  Table t(Schema({{"k", DataType::kInt64},
                  {"v", DataType::kInt64},
                  {"x", DataType::kDouble}}));
  for (int64_t r = 0; r < rows; ++r) {
    const Value k = shape == KeyShape::kNullable && rng->Bernoulli(0.15)
                        ? Value::Null()
                        : Value(TypedKey(rng, shape));
    Value v = rng->Bernoulli(0.5) ? Value(ints[rng->Uniform(6)])
                                  : Value(rng->UniformRange(-1000, 1000));
    Value x = rng->Bernoulli(0.6) ? Value(doubles[rng->Uniform(10)])
                                  : Value(rng->NextGaussian() * 1e6);
    if (nullable_values && rng->Bernoulli(0.1)) v = Value::Null();
    if (nullable_values && rng->Bernoulli(0.1)) x = Value::Null();
    VX_CHECK_OK(t.AppendRow({k, std::move(v), std::move(x)}));
  }
  return t;
}

TEST(TypedKernelTest, JoinsMatchSerialHashJoin) {
  for (uint64_t seed = 1; seed <= 36; ++seed) {
    Rng rng(seed * 7919);
    const auto shape = static_cast<KeyShape>(seed % 3);
    // Empty sides now and then; otherwise enough rows for duplicate keys.
    const int64_t probe_rows = seed % 11 == 0 ? 0 : rng.UniformRange(1, 300);
    const int64_t build_rows = seed % 7 == 0 ? 0 : rng.UniformRange(1, 120);
    const Table probe = TypedTable(&rng, probe_rows, shape, true);
    Table build = TypedTable(&rng, build_rows, shape, true);
    // A key-sorted build side gives CsrIndex its no-permutation layout.
    if (seed % 2 == 0) build = SortTable(build, {SortKey{0, true}});
    for (JoinType type : {JoinType::kInner, JoinType::kLeft, JoinType::kSemi,
                          JoinType::kAnti}) {
      HashJoinOp serial_op(std::make_unique<TableScan>(probe),
                           std::make_unique<TableScan>(build), {"k"}, {"k"},
                           type);
      auto serial = Collect(&serial_op);
      ASSERT_TRUE(serial.ok()) << serial.status().ToString();
      for (int threads : {1, 8}) {
        for (int64_t morsel : {int64_t{7}, int64_t{1024}}) {
          ParallelOptions opts;
          opts.num_threads = threads;
          opts.morsel_rows = morsel;
          auto out = ParallelHashJoin(probe, build, {"k"}, {"k"}, type, opts);
          ASSERT_TRUE(out.ok()) << out.status().ToString();
          EXPECT_TRUE(BitIdentical(*out, *serial))
              << "replay: TypedKernelTest.Joins seed=" << seed << " "
              << JoinTypeName(type) << " threads=" << threads
              << " morsel=" << morsel;
        }
      }
    }
  }
}

/// The aggregates of the fold sweep: every op over INT64 and DOUBLE.
const std::vector<AggSpec>& TypedAggs() {
  static const std::vector<AggSpec> aggs = {
      {AggOp::kSum, "v", "sv"},   {AggOp::kSum, "x", "sx"},
      {AggOp::kMin, "v", "nv"},   {AggOp::kMin, "x", "nx"},
      {AggOp::kMax, "v", "xv"},   {AggOp::kMax, "x", "xx"},
      {AggOp::kCount, "v", "cv"}, {AggOp::kCountStar, "", "n"},
      {AggOp::kAvg, "v", "av"},   {AggOp::kAvg, "x", "ax"}};
  return aggs;
}

/// The documented fold order, built from the serial operator: each chunk
/// of `morsel` rows aggregated by HashAggregateOp, the chunk results then
/// merged in chunk order into groups in first-appearance order (SUM from
/// 0 with +=, INT64 wrapping; MIN/MAX first value then strict < / >;
/// counts added; AVG = merged DOUBLE sum / merged count).
Table ChunkedFoldReference(const Table& t, int64_t morsel) {
  struct Group {
    std::optional<int64_t> key;
    int64_t sv = 0, cv = 0, n = 0, cx = 0;
    double sx = 0.0, dv = 0.0;
    std::optional<int64_t> nv, xv;
    std::optional<double> nx, xx;
  };
  std::vector<Group> groups;
  std::map<std::optional<int64_t>, size_t> index;
  for (int64_t begin = 0; begin < t.num_rows(); begin += morsel) {
    const int64_t len = std::min(morsel, t.num_rows() - begin);
    // v widened to DOUBLE feeds AVG(v)'s DOUBLE sum, as AccState keeps it.
    auto widened = PlanBuilder::Scan(t.Slice(begin, len))
                       .Project({{"k", Col("k")},
                                 {"v", Col("v")},
                                 {"x", Col("x")},
                                 {"dv", Cast(Col("v"), DataType::kDouble)}})
                       .Execute();
    VX_CHECK_OK(widened.status());
    HashAggregateOp op(std::make_unique<TableScan>(*widened), {"k"},
                       {{AggOp::kSum, "v", "sv"},
                        {AggOp::kSum, "x", "sx"},
                        {AggOp::kSum, "dv", "dv"},
                        {AggOp::kMin, "v", "nv"},
                        {AggOp::kMin, "x", "nx"},
                        {AggOp::kMax, "v", "xv"},
                        {AggOp::kMax, "x", "xx"},
                        {AggOp::kCount, "v", "cv"},
                        {AggOp::kCount, "x", "cx"},
                        {AggOp::kCountStar, "", "n"}});
    auto chunk = Collect(&op);
    VX_CHECK_OK(chunk.status());
    for (int64_t r = 0; r < chunk->num_rows(); ++r) {
      const auto col = [&](int c) -> const Column& { return chunk->column(c); };
      std::optional<int64_t> key;
      if (!col(0).IsNull(r)) key = col(0).GetInt64(r);
      auto [it, fresh] = index.emplace(key, groups.size());
      if (fresh) {
        groups.emplace_back();
        groups.back().key = key;
      }
      Group& g = groups[it->second];
      if (!col(1).IsNull(r)) {
        g.sv = static_cast<int64_t>(static_cast<uint64_t>(g.sv) +
                                    static_cast<uint64_t>(col(1).GetInt64(r)));
      }
      if (!col(2).IsNull(r)) g.sx += col(2).GetDouble(r);
      if (!col(3).IsNull(r)) g.dv += col(3).GetDouble(r);
      const auto keep = [&](auto& acc, auto v, bool less) {
        if (!acc.has_value() || (less ? v < *acc : v > *acc)) acc = v;
      };
      if (!col(4).IsNull(r)) keep(g.nv, col(4).GetInt64(r), true);
      if (!col(5).IsNull(r)) keep(g.nx, col(5).GetDouble(r), true);
      if (!col(6).IsNull(r)) keep(g.xv, col(6).GetInt64(r), false);
      if (!col(7).IsNull(r)) keep(g.xx, col(7).GetDouble(r), false);
      g.cv += col(8).GetInt64(r);
      g.cx += col(9).GetInt64(r);
      g.n += col(10).GetInt64(r);
    }
  }
  Table out(Schema({{"k", DataType::kInt64},  {"sv", DataType::kInt64},
                    {"sx", DataType::kDouble}, {"nv", DataType::kInt64},
                    {"nx", DataType::kDouble}, {"xv", DataType::kInt64},
                    {"xx", DataType::kDouble}, {"cv", DataType::kInt64},
                    {"n", DataType::kInt64},   {"av", DataType::kDouble},
                    {"ax", DataType::kDouble}}));
  const auto opt = [](const auto& o) { return o ? Value(*o) : Value::Null(); };
  for (const Group& g : groups) {
    VX_CHECK_OK(out.AppendRow(
        {opt(g.key), g.cv > 0 ? Value(g.sv) : Value::Null(),
         g.cx > 0 ? Value(g.sx) : Value::Null(), opt(g.nv), opt(g.nx),
         opt(g.xv), opt(g.xx), Value(g.cv), Value(g.n),
         g.cv > 0 ? Value(g.dv / static_cast<double>(g.cv)) : Value::Null(),
         g.cx > 0 ? Value(g.sx / static_cast<double>(g.cx)) : Value::Null()}));
  }
  return out;
}

TEST(TypedKernelTest, AggregatesMatchChunkedSerialFold) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed * 104729);
    const auto shape = static_cast<KeyShape>(seed % 3);
    const bool nullable_values = seed % 4 == 3;  // AccState path
    const int64_t rows = seed % 10 == 0 ? 0 : rng.UniformRange(1, 700);
    const Table t = TypedTable(&rng, rows, shape, nullable_values);
    for (int64_t morsel : {int64_t{7}, int64_t{1024}}) {
      const Table expect = ChunkedFoldReference(t, morsel);
      for (int threads : {1, 8}) {
        ParallelOptions opts;
        opts.num_threads = threads;
        opts.morsel_rows = morsel;
        auto out = ParallelHashAggregate(t, {"k"}, TypedAggs(), opts);
        ASSERT_TRUE(out.ok()) << out.status().ToString();
        EXPECT_TRUE(BitIdentical(*out, expect))
            << "replay: TypedKernelTest.Aggregates seed=" << seed
            << " threads=" << threads << " morsel=" << morsel;
      }
    }
    // One chunk is the serial operator's own row fold.
    if (rows <= 1024) {
      HashAggregateOp serial_op(std::make_unique<TableScan>(t), {"k"},
                                TypedAggs());
      auto serial = Collect(&serial_op);
      ASSERT_TRUE(serial.ok());
      ParallelOptions opts;
      opts.morsel_rows = 1024;
      auto out = ParallelHashAggregate(t, {"k"}, TypedAggs(), opts);
      ASSERT_TRUE(out.ok());
      EXPECT_TRUE(BitIdentical(*out, *serial))
          << "replay: TypedKernelTest.Aggregates seed=" << seed;
    }
  }
}

/// Row-at-a-time reference of numeric BinaryExpr semantics: NULL in, NULL
/// out; INT64 results wrap (x % 0 and x % -1 are 0); DOUBLE results widen
/// INT64 operands; same-type comparisons use Column::CompareRows, mixed
/// ones the widened values with < / >.
Column RowWiseBinary(BinaryOp op, DataType out_type, const Column& l,
                     const Column& r) {
  Column out(out_type);
  for (int64_t i = 0; i < l.length(); ++i) {
    if (l.IsNull(i) || r.IsNull(i)) {
      out.AppendNull();
      continue;
    }
    if (out_type == DataType::kBool) {
      int cmp;
      if (l.type() == r.type()) {
        cmp = l.CompareRows(i, r, i);
      } else {
        const double a = l.GetNumeric(i);
        const double b = r.GetNumeric(i);
        cmp = a < b ? -1 : (a > b ? 1 : 0);
      }
      const bool v = op == BinaryOp::kEq   ? cmp == 0
                     : op == BinaryOp::kNe ? cmp != 0
                     : op == BinaryOp::kLt ? cmp < 0
                     : op == BinaryOp::kLe ? cmp <= 0
                     : op == BinaryOp::kGt ? cmp > 0
                                           : cmp >= 0;
      out.AppendBool(v);
    } else if (out_type == DataType::kInt64) {
      const auto a = static_cast<uint64_t>(l.GetInt64(i));
      const auto b = static_cast<uint64_t>(r.GetInt64(i));
      const int64_t sb = r.GetInt64(i);
      const int64_t v =
          op == BinaryOp::kAdd   ? static_cast<int64_t>(a + b)
          : op == BinaryOp::kSub ? static_cast<int64_t>(a - b)
          : op == BinaryOp::kMul ? static_cast<int64_t>(a * b)
          : (sb == 0 || sb == -1) ? 0
                                  : l.GetInt64(i) % sb;
      out.AppendInt64(v);
    } else {
      const double a = l.GetNumeric(i);
      const double b = r.GetNumeric(i);
      const double v = op == BinaryOp::kAdd   ? a + b
                       : op == BinaryOp::kSub ? a - b
                       : op == BinaryOp::kMul ? a * b
                       : op == BinaryOp::kDiv ? a / b
                                              : std::fmod(a, b);
      out.AppendDouble(v);
    }
  }
  return out;
}

/// Row-at-a-time COALESCE / CASE reference: row i of `first` when
/// take_first[i], else of `second`, widened to `out_type`.
Column RowWiseSelect(DataType out_type, const Column& first,
                     const Column& second,
                     const std::vector<bool>& take_first) {
  Column out(out_type);
  for (int64_t i = 0; i < first.length(); ++i) {
    const Column& src = take_first[static_cast<size_t>(i)] ? first : second;
    if (src.IsNull(i)) {
      out.AppendNull();
    } else if (out_type == DataType::kDouble) {
      out.AppendDouble(src.GetNumeric(i));
    } else {
      out.AppendInt64(src.GetInt64(i));
    }
  }
  return out;
}

TEST(TypedKernelTest, ExpressionsMatchRowWiseSemantics) {
  const BinaryOp ops[] = {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul,
                          BinaryOp::kDiv, BinaryOp::kMod, BinaryOp::kEq,
                          BinaryOp::kNe,  BinaryOp::kLt,  BinaryOp::kLe,
                          BinaryOp::kGt,  BinaryOp::kGe};
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 31337);
    const int64_t rows = seed == 1 ? 0 : rng.UniformRange(1, 400);
    Table base = TypedTable(&rng, rows, KeyShape::kNullable, seed % 2 == 0);
    // A nullable BOOL condition for CASE.
    Column p(DataType::kBool);
    for (int64_t r = 0; r < rows; ++r) {
      if (rng.Bernoulli(0.2)) {
        p.AppendNull();
      } else {
        p.AppendBool(rng.Bernoulli(0.5));
      }
    }
    std::vector<Column> cols;
    std::vector<Field> fields = base.schema().fields();
    for (int c = 0; c < base.num_columns(); ++c) cols.push_back(base.column(c));
    cols.push_back(std::move(p));
    fields.push_back({"p", DataType::kBool});
    Table t = Table::Make(Schema(fields), std::move(cols)).ValueOrDie();
    if (seed % 3 == 0) t.EncodeColumns(EncodingMode::kForce);
    const std::vector<ExprPtr> operands = {Col("k"), Col("v"), Col("x"),
                                           Lit(int64_t{-1}), Lit(-0.0),
                                           NullLit(DataType::kDouble)};
    std::vector<Column> values;
    for (const ExprPtr& e : operands) {
      values.push_back(e->Evaluate(t).ValueOrDie());
    }
    const auto check = [&](const ExprPtr& e, const Column& expect) {
      auto got = e->Evaluate(t);
      ASSERT_TRUE(got.ok()) << e->ToString() << ": " << got.status().ToString();
      const Schema s({{"c", expect.type()}});
      EXPECT_TRUE(BitIdentical(Table::Make(s, {*got}).ValueOrDie(),
                               Table::Make(s, {expect}).ValueOrDie()))
          << "replay: TypedKernelTest.Expressions seed=" << seed << " "
          << e->ToString();
    };
    for (size_t a = 0; a < operands.size(); ++a) {
      for (size_t b = 0; b < operands.size(); ++b) {
        for (BinaryOp op : ops) {
          const auto e = std::make_shared<BinaryExpr>(op, operands[a],
                                                      operands[b]);
          const DataType out_type = e->OutputType(t.schema()).ValueOrDie();
          check(e, RowWiseBinary(op, out_type, values[a], values[b]));
        }
        const DataType branch =
            values[a].type() == values[b].type() ? values[a].type()
                                                 : DataType::kDouble;
        std::vector<bool> first_valid;
        std::vector<bool> cond;
        const Column& pc = t.column(3);
        for (int64_t i = 0; i < rows; ++i) {
          first_valid.push_back(!values[a].IsNull(i));
          cond.push_back(!pc.IsNull(i) && pc.GetBool(i));
        }
        check(Coalesce(operands[a], operands[b]),
              RowWiseSelect(branch, values[a], values[b], first_valid));
        check(If(Col("p"), operands[a], operands[b]),
              RowWiseSelect(branch, values[a], values[b], cond));
      }
    }
  }
}

TEST(ParallelForTest, NestedCallsDoNotDeadlock) {
  // A pool task fanning out on the same pool must complete (the caller
  // participates in draining chunks).
  std::atomic<int> total{0};
  Status st = ThreadPool::Default()->ParallelFor(
      0, 4, 1,
      [&](std::size_t, std::size_t) {
        return ThreadPool::Default()->ParallelFor(
            0, 4, 1,
            [&](std::size_t, std::size_t) {
              total.fetch_add(1);
              return Status::OK();
            });
      },
      4);
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(total.load(), 16);
}

// ---------------------------------------------------------------------------
// Join → project → aggregate (exec/join_aggregate.h): the fused plan against
// ParallelHashJoin + ProjectOp + ParallelHashAggregate run directly.

/// Edges (src, dst, w, x) whose `src` draws from [0, src_span).
Table JoinAggEdges(uint64_t seed, int64_t rows, int64_t src_span) {
  Rng rng(seed);
  Table t(Schema({{"src", DataType::kInt64},
                  {"dst", DataType::kInt64},
                  {"w", DataType::kInt64},
                  {"x", DataType::kDouble}}));
  for (int64_t r = 0; r < rows; ++r) {
    VX_CHECK_OK(t.AppendRow({Value(rng.UniformRange(0, src_span - 1)),
                             Value(rng.UniformRange(0, 400)),
                             Value(rng.UniformRange(-50, 50)),
                             Value(rng.NextDouble() * 10 - 5)}));
  }
  return t;
}

/// Nodes (id, rank, deg): one row per id in [0, ids).
Table JoinAggNodes(uint64_t seed, int64_t ids) {
  Rng rng(seed);
  Table t(Schema({{"id", DataType::kInt64},
                  {"rank", DataType::kDouble},
                  {"deg", DataType::kInt64}}));
  for (int64_t id = 0; id < ids; ++id) {
    VX_CHECK_OK(t.AppendRow({Value(id), Value(rng.NextDouble()),
                             Value(rng.UniformRange(1, 9))}));
  }
  return t;
}

/// PageRank's per-round projection: the group key and rank / deg.
std::vector<ProjectionSpec> ContributionProjection() {
  return {{"dst", Col("dst")}, {"c", Div(Col("rank"), Col("deg"))}};
}

/// The three operators, run directly over the materialized join.
Table ThreeOperatorReference(const Table& probe, const Table& build,
                             JoinType type,
                             const std::vector<ProjectionSpec>& outputs,
                             const std::string& group,
                             const std::vector<AggSpec>& aggs) {
  Result<Table> joined = ParallelHashJoin(probe, build, {"src"}, {"id"}, type);
  VX_CHECK_OK(joined.status());
  const int64_t rows = std::max<int64_t>(1, joined->num_rows());
  ProjectOp project(std::make_unique<TableScan>(*std::move(joined), rows),
                    outputs);
  Result<Table> projected = Collect(&project);
  VX_CHECK_OK(projected.status());
  Result<Table> out = ParallelHashAggregate(*projected, {group}, aggs);
  VX_CHECK_OK(out.status());
  return *std::move(out);
}

struct JoinAggRun {
  Table out;
  std::string explain;
  KernelStatsSnapshot stats;
};

/// The PlanBuilder plan (fused when its shape allows) under the given
/// knobs, with its own counter block.
JoinAggRun RunJoinAggPlan(const Table& probe, const Table& build,
                          JoinType type,
                          const std::vector<ProjectionSpec>& outputs,
                          const std::string& group,
                          const std::vector<AggSpec>& aggs, int threads = 2,
                          bool vectorized = true) {
  KernelStats block;
  ExecKnobs knobs = ExecKnobs::Current();
  knobs.kernel_stats = &block;
  knobs.threads = threads;
  knobs.vectorized = vectorized;
  ScopedExecKnobs scope(knobs);
  PlanBuilder plan = PlanBuilder::Scan(probe)
                         .Join(PlanBuilder::Scan(build), {"src"}, {"id"}, type)
                         .Project(outputs)
                         .Aggregate({group}, aggs);
  JoinAggRun run;
  run.explain = plan.Explain();
  Result<Table> out = std::move(plan).Execute();
  VX_CHECK_OK(out.status());
  run.out = *std::move(out);
  run.stats = Snapshot(block);
  return run;
}

/// Same schema, rows and row order, with DOUBLEs compared bit for bit.
void ExpectBitIdentical(const Table& got, const Table& want) {
  ASSERT_EQ(got.schema().ToString(), want.schema().ToString());
  ASSERT_EQ(got.num_rows(), want.num_rows());
  for (int c = 0; c < want.num_columns(); ++c) {
    const Column& g = got.column(c);
    const Column& w = want.column(c);
    for (int64_t i = 0; i < want.num_rows(); ++i) {
      ASSERT_EQ(g.IsNull(i), w.IsNull(i)) << "column " << c << " row " << i;
      if (w.IsNull(i)) continue;
      if (w.type() == DataType::kDouble) {
        const double a = g.GetDouble(i);
        const double b = w.GetDouble(i);
        ASSERT_EQ(std::memcmp(&a, &b, sizeof a), 0)
            << "column " << c << " row " << i << ": " << a << " vs " << b;
      } else {
        ASSERT_EQ(g.GetValue(i).ToString(), w.GetValue(i).ToString())
            << "column " << c << " row " << i;
      }
    }
  }
}

/// Runs the plan and checks it fused, counted its join and chunks, and
/// matched the three operators.
void ExpectFusedMatchesReference(const Table& probe, const Table& build,
                                 const std::vector<ProjectionSpec>& outputs,
                                 const std::string& group,
                                 const std::vector<AggSpec>& aggs,
                                 int threads = 2) {
  const Table want = ThreeOperatorReference(probe, build, JoinType::kInner,
                                            outputs, group, aggs);
  const JoinAggRun run =
      RunJoinAggPlan(probe, build, JoinType::kInner, outputs, group, aggs,
                     threads);
  EXPECT_EQ(run.explain.rfind("JoinAggregate(", 0), 0u) << run.explain;
  Result<Table> joined = ParallelHashJoin(probe, build, {"src"}, {"id"});
  VX_CHECK_OK(joined.status());
  const int64_t chunks =
      (joined->num_rows() + kDefaultMorselRows - 1) / kDefaultMorselRows;
  EXPECT_EQ(run.stats.fused_batches, chunks);
  EXPECT_EQ(run.stats.legacy_batches, 0);
  EXPECT_EQ(run.stats.hash_joins, 1);
  EXPECT_EQ(run.stats.hash_rows, joined->num_rows());
  ExpectBitIdentical(run.out, want);
}

/// Runs the plan and checks it took the three operators and matched them.
void ExpectFallbackMatchesReference(const Table& probe, const Table& build,
                                    JoinType type,
                                    const std::vector<ProjectionSpec>& outputs,
                                    const std::string& group,
                                    const std::vector<AggSpec>& aggs,
                                    bool vectorized = true) {
  const Table want =
      ThreeOperatorReference(probe, build, type, outputs, group, aggs);
  const JoinAggRun run = RunJoinAggPlan(probe, build, type, outputs, group,
                                        aggs, /*threads=*/2, vectorized);
  EXPECT_EQ(run.stats.fused_batches, 0);
  EXPECT_EQ(run.stats.legacy_batches, 1);  // the ProjectOp's one batch
  EXPECT_EQ(run.stats.hash_joins, 1);
  ExpectBitIdentical(run.out, want);
}

TEST(JoinAggregateTest, IdentityJoinMatchesThreeOperators) {
  // Every edge finds exactly one node: output row i is probe row i.
  const Table nodes = JoinAggNodes(1, 500);
  const Table edges = JoinAggEdges(2, 40000, 500);
  ExpectFusedMatchesReference(edges, nodes, ContributionProjection(), "dst",
                              {{AggOp::kSum, "c", "s"}});
}

TEST(JoinAggregateTest, MatchesSplitAtTheChunkBoundaryLikeTheJoinOutput) {
  // Node 7 has 100 rows; every other id one. The edge at probe row 16,300
  // is the first with src 7, so its 100 matches are output rows
  // 16,300..16,399 and straddle the chunk boundary at 16,384.
  Table nodes = JoinAggNodes(3, 2000);
  Rng rng(4);
  for (int r = 0; r < 99; ++r) {
    VX_CHECK_OK(nodes.AppendRow({Value(int64_t{7}), Value(rng.NextDouble()),
                                 Value(rng.UniformRange(1, 9))}));
  }
  Table edges(JoinAggEdges(5, 0, 1).schema());
  const Table random = JoinAggEdges(6, 30000, 2000);
  for (int64_t r = 0; r < random.num_rows(); ++r) {
    int64_t src = random.column(0).GetInt64(r);
    if (r < 16300 && src == 7) src = 8;
    if (r == 16300) src = 7;
    VX_CHECK_OK(edges.AppendRow({Value(src), random.column(1).GetValue(r),
                                 random.column(2).GetValue(r),
                                 random.column(3).GetValue(r)}));
  }
  Result<Table> joined = ParallelHashJoin(edges, nodes, {"src"}, {"id"});
  VX_CHECK_OK(joined.status());
  ASSERT_EQ(joined->column(0).GetInt64(16300), 7);
  ASSERT_EQ(joined->column(0).GetInt64(16399), 7);
  ASSERT_GT(joined->num_rows(), kDefaultMorselRows + 100);
  // Grouped by a build column too, so the straddling row's matches land in
  // many groups on both sides of the boundary.
  ExpectFusedMatchesReference(edges, nodes, ContributionProjection(), "dst",
                              {{AggOp::kSum, "c", "s"}});
  ExpectFusedMatchesReference(
      edges, nodes, {{"deg", Col("deg")}, {"x", Add(Col("x"), Col("rank"))}},
      "deg", {{AggOp::kSum, "x", "s"}, {AggOp::kMin, "x", "lo"}});
}

TEST(JoinAggregateTest, ProbeRowsWithoutMatchesAreSkipped) {
  // src draws from [0, 3000) but only ids [0, 1000) exist.
  const Table nodes = JoinAggNodes(7, 1000);
  const Table edges = JoinAggEdges(8, 50000, 3000);
  ExpectFusedMatchesReference(edges, nodes, ContributionProjection(), "dst",
                              {{AggOp::kSum, "c", "s"}});
  // No probe row matches at all: an empty result, still one counted join.
  ExpectFusedMatchesReference(JoinAggEdges(9, 100, 3000),
                              JoinAggNodes(10, 0), ContributionProjection(),
                              "dst", {{AggOp::kSum, "c", "s"}});
}

TEST(JoinAggregateTest, EveryAggregateOverInt64AndDoubleInputs) {
  const Table nodes = JoinAggNodes(11, 700);
  const Table edges = JoinAggEdges(12, 45000, 800);
  const std::vector<ProjectionSpec> outputs = {
      {"dst", Col("dst")},
      {"i", Add(Col("w"), Col("deg"))},
      {"d", Div(Col("rank"), Col("deg"))}};
  std::vector<AggSpec> aggs;
  for (const char* in : {"i", "d"}) {
    for (const AggOp op : {AggOp::kSum, AggOp::kMin, AggOp::kMax,
                           AggOp::kCount, AggOp::kAvg}) {
      aggs.push_back({op, in, std::string(AggOpName(op)) + "_" + in});
    }
  }
  aggs.push_back({AggOp::kCountStar, "", "n"});
  ExpectFusedMatchesReference(edges, nodes, outputs, "dst", aggs);
}

TEST(JoinAggregateTest, BitIdenticalAcrossThreadsAndEncodings) {
  const Table nodes = JoinAggNodes(13, 900);
  const Table edges = JoinAggEdges(14, 60000, 900);
  const std::vector<AggSpec> aggs = {{AggOp::kSum, "c", "s"},
                                     {AggOp::kMax, "c", "hi"}};
  const Table want = ThreeOperatorReference(
      edges, nodes, JoinType::kInner, ContributionProjection(), "dst", aggs);
  for (const EncodingMode mode : {EncodingMode::kOff, EncodingMode::kForce}) {
    Table probe = edges;
    Table build = nodes;
    probe.EncodeColumns(mode);
    build.EncodeColumns(mode);
    for (const int threads : {1, 8}) {
      SCOPED_TRACE(std::string(EncodingModeName(mode)) + " threads " +
                   std::to_string(threads));
      ExpectFusedMatchesReference(probe, build, ContributionProjection(),
                                  "dst", aggs, threads);
      ExpectBitIdentical(RunJoinAggPlan(probe, build, JoinType::kInner,
                                        ContributionProjection(), "dst", aggs,
                                        threads)
                             .out,
                         want);
    }
  }
}

TEST(JoinAggregateTest, NullBuildKeyFallsBack) {
  Table nodes = JoinAggNodes(15, 300);
  VX_CHECK_OK(nodes.AppendRow({Value::Null(), Value(0.5), Value(int64_t{2})}));
  ExpectFallbackMatchesReference(JoinAggEdges(16, 20000, 300), nodes,
                                 JoinType::kInner, ContributionProjection(),
                                 "dst", {{AggOp::kSum, "c", "s"}});
}

TEST(JoinAggregateTest, NullGroupKeyFallsBack) {
  Table edges = JoinAggEdges(17, 20000, 300);
  VX_CHECK_OK(edges.AppendRow({Value(int64_t{3}), Value::Null(),
                               Value(int64_t{1}), Value(1.0)}));
  ExpectFallbackMatchesReference(edges, JoinAggNodes(18, 300),
                                 JoinType::kInner, ContributionProjection(),
                                 "dst", {{AggOp::kSum, "c", "s"}});
}

TEST(JoinAggregateTest, NullYieldingProjectionFallsBack) {
  // NULL-free inputs, but `c` is NULL wherever w > 40: found while the
  // chunks fold, after some may have folded already.
  ExpectFallbackMatchesReference(
      JoinAggEdges(23, 40000, 300), JoinAggNodes(24, 300), JoinType::kInner,
      {{"dst", Col("dst")},
       {"c", If(Gt(Col("w"), Lit(int64_t{40})), NullLit(DataType::kDouble),
                Div(Col("rank"), Col("deg")))}},
      "dst", {{AggOp::kSum, "c", "s"}});
  // Node 5's rank is NULL, so every edge into it projects a NULL `c`.
  Table nodes = JoinAggNodes(19, 4);
  VX_CHECK_OK(nodes.AppendRow({Value(int64_t{4}), Value(0.25),
                               Value(int64_t{3})}));
  VX_CHECK_OK(nodes.AppendRow({Value(int64_t{5}), Value::Null(),
                               Value(int64_t{3})}));
  ExpectFallbackMatchesReference(JoinAggEdges(20, 20000, 6), nodes,
                                 JoinType::kInner, ContributionProjection(),
                                 "dst", {{AggOp::kSum, "c", "s"}});
}

TEST(JoinAggregateTest, LeftJoinAndVectorizedOffKeepThreeOperators) {
  const Table nodes = JoinAggNodes(21, 200);
  const Table edges = JoinAggEdges(22, 20000, 400);
  const std::vector<ProjectionSpec> outputs = {
      {"dst", Col("dst")}, {"c", Coalesce(Col("rank"), Lit(0.0))}};
  ExpectFallbackMatchesReference(edges, nodes, JoinType::kLeft, outputs,
                                 "dst", {{AggOp::kSum, "c", "s"}});
  EXPECT_EQ(RunJoinAggPlan(edges, nodes, JoinType::kLeft, outputs, "dst",
                           {{AggOp::kSum, "c", "s"}})
                .explain.rfind("HashAggregate(", 0),
            0u);
  // The shape fuses, but the `vectorized` knob pins the three operators.
  ExpectFallbackMatchesReference(edges, nodes, JoinType::kInner,
                                 ContributionProjection(), "dst",
                                 {{AggOp::kSum, "c", "s"}},
                                 /*vectorized=*/false);
}

}  // namespace
}  // namespace vertexica
