// Unit tests for the columnar storage layer: Value, Column, Schema, Table,
// sorting — plus the segment-encoding property suites:
// encode→operate→decode is bit-identical to plain execution, and
// zone-map scan pruning never changes filter results at any thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <string>

#include "common/random.h"
#include "common/string_util.h"
#include "exec/filter.h"
#include "exec/kernel_stats.h"
#include "exec/parallel.h"
#include "exec/plan_builder.h"
#include "storage/bitvector.h"
#include "storage/compression.h"
#include "storage/csr_index.h"
#include "storage/encoding.h"
#include "storage/sort.h"
#include "storage/table.h"

namespace vertexica {
namespace {

TEST(ValueTest, NullAndTypes) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_TRUE(Value(int64_t{5}).is_int64());
  EXPECT_TRUE(Value(2.5).is_double());
  EXPECT_TRUE(Value("s").is_string());
  EXPECT_TRUE(Value(true).is_bool());
}

TEST(ValueTest, AsDoubleWidensInt) {
  EXPECT_DOUBLE_EQ(Value(int64_t{3}).AsDouble(), 3.0);
  EXPECT_DOUBLE_EQ(Value(3.5).AsDouble(), 3.5);
}

TEST(ValueTest, EqualityIsTyped) {
  EXPECT_EQ(Value(int64_t{1}), Value(int64_t{1}));
  EXPECT_NE(Value(int64_t{1}), Value(1.0));  // no coercion
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_NE(Value::Null(), Value(int64_t{0}));
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value(int64_t{7}).ToString(), "7");
  EXPECT_EQ(Value(true).ToString(), "true");
  EXPECT_EQ(Value("ab").ToString(), "'ab'");
}

TEST(ColumnTest, AppendAndGet) {
  Column c(DataType::kInt64);
  c.AppendInt64(1);
  c.AppendInt64(2);
  EXPECT_EQ(c.length(), 2);
  EXPECT_EQ(c.GetInt64(0), 1);
  EXPECT_EQ(c.GetInt64(1), 2);
  EXPECT_EQ(c.null_count(), 0);
}

TEST(ColumnTest, LazyValidity) {
  Column c(DataType::kDouble);
  c.AppendDouble(1.0);
  EXPECT_FALSE(c.IsNull(0));
  c.AppendNull();
  EXPECT_FALSE(c.IsNull(0));
  EXPECT_TRUE(c.IsNull(1));
  EXPECT_EQ(c.null_count(), 1);
  c.AppendDouble(3.0);
  EXPECT_FALSE(c.IsNull(2));
}

TEST(ColumnTest, FromVectorsFactories) {
  auto c = Column::FromInts({1, 2, 3});
  EXPECT_EQ(c.length(), 3);
  EXPECT_EQ(c.type(), DataType::kInt64);
  auto d = Column::FromDoubles({1.5});
  EXPECT_EQ(d.GetDouble(0), 1.5);
  auto s = Column::FromStrings({"a", "b"});
  EXPECT_EQ(s.GetString(1), "b");
  auto b = Column::FromBools({1, 0});
  EXPECT_TRUE(b.GetBool(0));
  EXPECT_FALSE(b.GetBool(1));
}

TEST(ColumnTest, AppendValueCoercesIntToDouble) {
  Column c(DataType::kDouble);
  c.AppendValue(Value(int64_t{4}));
  EXPECT_DOUBLE_EQ(c.GetDouble(0), 4.0);
}

TEST(ColumnTest, AppendColumnConcatenatesWithNulls) {
  Column a = Column::FromInts({1, 2});
  Column b(DataType::kInt64);
  b.AppendInt64(3);
  b.AppendNull();
  a.AppendColumn(b);
  EXPECT_EQ(a.length(), 4);
  EXPECT_EQ(a.GetInt64(2), 3);
  EXPECT_TRUE(a.IsNull(3));
  EXPECT_FALSE(a.IsNull(0));
  EXPECT_EQ(a.null_count(), 1);
}

TEST(ColumnTest, TakeGathers) {
  Column c = Column::FromInts({10, 20, 30, 40});
  Column t = c.Take({3, 0, 0});
  ASSERT_EQ(t.length(), 3);
  EXPECT_EQ(t.GetInt64(0), 40);
  EXPECT_EQ(t.GetInt64(1), 10);
  EXPECT_EQ(t.GetInt64(2), 10);
}

TEST(ColumnTest, TakeKeepsNulls) {
  Column c(DataType::kInt64);
  c.AppendInt64(1);
  c.AppendNull();
  Column t = c.Take({1, 0});
  EXPECT_TRUE(t.IsNull(0));
  EXPECT_EQ(t.GetInt64(1), 1);
}

TEST(ColumnTest, SliceRange) {
  Column c = Column::FromInts({0, 1, 2, 3, 4});
  Column s = c.Slice(1, 3);
  ASSERT_EQ(s.length(), 3);
  EXPECT_EQ(s.GetInt64(0), 1);
  EXPECT_EQ(s.GetInt64(2), 3);
}

TEST(ColumnTest, SliceRecomputesNullCount) {
  Column c(DataType::kInt64);
  c.AppendNull();
  c.AppendInt64(1);
  c.AppendInt64(2);
  Column s = c.Slice(1, 2);
  EXPECT_EQ(s.null_count(), 0);
  EXPECT_FALSE(s.IsNull(0));
}

TEST(ColumnTest, EqualsDeep) {
  Column a = Column::FromInts({1, 2});
  Column b = Column::FromInts({1, 2});
  Column c = Column::FromInts({1, 3});
  EXPECT_TRUE(a.Equals(b));
  EXPECT_FALSE(a.Equals(c));
}

TEST(ColumnTest, CompareRowsOrdersNullsFirst) {
  Column c(DataType::kInt64);
  c.AppendNull();
  c.AppendInt64(5);
  EXPECT_LT(c.CompareRows(0, c, 1), 0);
  EXPECT_GT(c.CompareRows(1, c, 0), 0);
  EXPECT_EQ(c.CompareRows(0, c, 0), 0);
}

TEST(SchemaTest, FieldLookup) {
  Schema s({{"id", DataType::kInt64}, {"value", DataType::kDouble}});
  EXPECT_EQ(s.num_fields(), 2);
  EXPECT_EQ(s.FieldIndex("value"), 1);
  EXPECT_EQ(s.FieldIndex("nope"), -1);
  EXPECT_TRUE(s.HasField("id"));
}

TEST(SchemaTest, EqualTypesIgnoresNames) {
  Schema a({{"x", DataType::kInt64}, {"y", DataType::kDouble}});
  Schema b({{"u", DataType::kInt64}, {"v", DataType::kDouble}});
  Schema c({{"u", DataType::kInt64}, {"v", DataType::kString}});
  EXPECT_FALSE(a.Equals(b));
  EXPECT_TRUE(a.EqualTypes(b));
  EXPECT_FALSE(a.EqualTypes(c));
}

TEST(SchemaTest, WithNames) {
  Schema a({{"x", DataType::kInt64}});
  Schema b = a.WithNames({"id"});
  EXPECT_EQ(b.field(0).name, "id");
  EXPECT_EQ(b.field(0).type, DataType::kInt64);
}

Table MakeTestTable() {
  Table t(Schema({{"id", DataType::kInt64},
                  {"score", DataType::kDouble},
                  {"name", DataType::kString}}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{3}), Value(1.5), Value("c")}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{1}), Value(2.5), Value("a")}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{2}), Value(0.5), Value("b")}));
  return t;
}

TEST(TableTest, AppendRowAndAccess) {
  Table t = MakeTestTable();
  EXPECT_EQ(t.num_rows(), 3);
  EXPECT_EQ(t.num_columns(), 3);
  EXPECT_TRUE(t.IsConsistent());
  EXPECT_EQ(t.column(0).GetInt64(1), 1);
  EXPECT_EQ(t.ColumnByName("name")->GetString(2), "b");
}

TEST(TableTest, AppendRowArityMismatchFails) {
  Table t(Schema({{"id", DataType::kInt64}}));
  EXPECT_TRUE(t.AppendRow({Value(int64_t{1}), Value(int64_t{2})})
                  .IsInvalidArgument());
}

TEST(TableTest, MakeValidatesTypes) {
  Schema s({{"id", DataType::kInt64}});
  auto bad = Table::Make(s, {Column::FromDoubles({1.0})});
  EXPECT_TRUE(bad.status().IsTypeError());
  auto good = Table::Make(s, {Column::FromInts({1})});
  EXPECT_TRUE(good.ok());
}

TEST(TableTest, MakeValidatesLengths) {
  Schema s({{"a", DataType::kInt64}, {"b", DataType::kInt64}});
  auto bad = Table::Make(s, {Column::FromInts({1}), Column::FromInts({1, 2})});
  EXPECT_TRUE(bad.status().IsInvalidArgument());
}

TEST(TableTest, AppendChecksTypes) {
  Table a(Schema({{"x", DataType::kInt64}}));
  Table b(Schema({{"x", DataType::kDouble}}));
  EXPECT_TRUE(a.Append(b).IsTypeError());
}

TEST(TableTest, AppendAllowsRenamedColumns) {
  Table a(Schema({{"x", DataType::kInt64}}));
  Table b(Schema({{"y", DataType::kInt64}}));
  VX_CHECK_OK(b.AppendRow({Value(int64_t{9})}));
  EXPECT_TRUE(a.Append(b).ok());
  EXPECT_EQ(a.num_rows(), 1);
}

TEST(TableTest, TakeAndSlice) {
  Table t = MakeTestTable();
  Table taken = t.Take({2, 0});
  EXPECT_EQ(taken.num_rows(), 2);
  EXPECT_EQ(taken.column(0).GetInt64(0), 2);
  Table sliced = t.Slice(1, 2);
  EXPECT_EQ(sliced.num_rows(), 2);
  EXPECT_EQ(sliced.column(0).GetInt64(0), 1);
}

TEST(TableTest, SelectColumnsProjects) {
  Table t = MakeTestTable();
  Table p = t.SelectColumns({2, 0});
  EXPECT_EQ(p.num_columns(), 2);
  EXPECT_EQ(p.schema().field(0).name, "name");
  EXPECT_EQ(p.schema().field(1).name, "id");
  EXPECT_EQ(p.num_rows(), 3);
}

TEST(TableTest, RenameColumns) {
  Table t = MakeTestTable().RenameColumns({"a", "b", "c"});
  EXPECT_EQ(t.schema().field(0).name, "a");
  EXPECT_EQ(t.column(0).GetInt64(0), 3);
}

TEST(TableTest, GetRowRoundTrips) {
  Table t = MakeTestTable();
  auto row = t.GetRow(1);
  EXPECT_EQ(row[0], Value(int64_t{1}));
  EXPECT_EQ(row[1], Value(2.5));
  EXPECT_EQ(row[2], Value("a"));
}

TEST(TableTest, EqualsDeep) {
  EXPECT_TRUE(MakeTestTable().Equals(MakeTestTable()));
  Table t = MakeTestTable();
  VX_CHECK_OK(t.AppendRow({Value(int64_t{9}), Value(9.0), Value("z")}));
  EXPECT_FALSE(t.Equals(MakeTestTable()));
}

TEST(SortTest, SingleKeyAscending) {
  Table t = MakeTestTable();
  Table sorted = SortTable(t, {{0, true}});
  EXPECT_EQ(sorted.column(0).GetInt64(0), 1);
  EXPECT_EQ(sorted.column(0).GetInt64(1), 2);
  EXPECT_EQ(sorted.column(0).GetInt64(2), 3);
  // Row integrity: score follows id.
  EXPECT_DOUBLE_EQ(sorted.column(1).GetDouble(0), 2.5);
}

TEST(SortTest, SingleKeyDescending) {
  Table sorted = SortTable(MakeTestTable(), {{1, false}});
  EXPECT_DOUBLE_EQ(sorted.column(1).GetDouble(0), 2.5);
  EXPECT_DOUBLE_EQ(sorted.column(1).GetDouble(2), 0.5);
}

TEST(SortTest, MultiKeyStable) {
  Table t(Schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{1}), Value(int64_t{10})}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{0}), Value(int64_t{20})}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{1}), Value(int64_t{5})}));
  Table sorted = SortTable(t, {{0, true}, {1, true}});
  EXPECT_EQ(sorted.column(0).GetInt64(0), 0);
  EXPECT_EQ(sorted.column(1).GetInt64(1), 5);
  EXPECT_EQ(sorted.column(1).GetInt64(2), 10);
}

TEST(SortTest, NullsSortFirst) {
  Table t(Schema({{"k", DataType::kInt64}}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{5})}));
  VX_CHECK_OK(t.AppendRow({Value::Null()}));
  Table sorted = SortTable(t, {{0, true}});
  EXPECT_TRUE(sorted.column(0).IsNull(0));
  EXPECT_EQ(sorted.column(0).GetInt64(1), 5);
}

TEST(SortTest, StringKeys) {
  Table t(Schema({{"s", DataType::kString}}));
  VX_CHECK_OK(t.AppendRow({Value("banana")}));
  VX_CHECK_OK(t.AppendRow({Value("apple")}));
  Table sorted = SortTable(t, {{0, true}});
  EXPECT_EQ(sorted.column(0).GetString(0), "apple");
}

// ------------------------------------------------- NaN total order (sort)

TEST(CompareRowsTest, DoubleNaNTotalOrder) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Column c = Column::FromDoubles({nan, 1.0, nan, -1e300});
  // NaN sorts after every number and compares equal to itself.
  EXPECT_GT(c.CompareRows(0, c, 1), 0);
  EXPECT_LT(c.CompareRows(1, c, 0), 0);
  EXPECT_EQ(c.CompareRows(0, c, 2), 0);
  EXPECT_GT(c.CompareRows(0, c, 3), 0);
}

TEST(SortTest, DoublesWithNaNAreDeterministic) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Table t(Schema({{"x", DataType::kDouble}, {"tag", DataType::kInt64}}));
  VX_CHECK_OK(t.AppendRow({Value(nan), Value(int64_t{0})}));
  VX_CHECK_OK(t.AppendRow({Value(5.0), Value(int64_t{1})}));
  VX_CHECK_OK(t.AppendRow({Value(nan), Value(int64_t{2})}));
  VX_CHECK_OK(t.AppendRow({Value(-1.0), Value(int64_t{3})}));
  Table asc = SortTable(t, {{0, true}});
  EXPECT_DOUBLE_EQ(asc.column(0).GetDouble(0), -1.0);
  EXPECT_DOUBLE_EQ(asc.column(0).GetDouble(1), 5.0);
  EXPECT_TRUE(std::isnan(asc.column(0).GetDouble(2)));
  EXPECT_TRUE(std::isnan(asc.column(0).GetDouble(3)));
  // Stable: the two NaN rows keep their input order.
  EXPECT_EQ(asc.column(1).GetInt64(2), 0);
  EXPECT_EQ(asc.column(1).GetInt64(3), 2);
  Table desc = SortTable(t, {{0, false}});
  EXPECT_TRUE(std::isnan(desc.column(0).GetDouble(0)));
  EXPECT_DOUBLE_EQ(desc.column(0).GetDouble(3), -1.0);
}

// --------------------------------------------------- Sort-order property

Table SortOrderFixture() {
  Table t(Schema({{"a", DataType::kInt64},
                  {"b", DataType::kInt64},
                  {"c", DataType::kDouble}}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{3}), Value(int64_t{1}), Value(0.5)}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{1}), Value(int64_t{2}), Value(1.5)}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{2}), Value(int64_t{0}), Value(2.5)}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{1}), Value(int64_t{1}), Value(3.5)}));
  return t;
}

TEST(SortOrderTest, SortTableDeclaresOrder) {
  Table sorted = SortOrderFixture();
  EXPECT_TRUE(sorted.sort_order().empty());  // raw appends declare nothing
  sorted = SortTable(sorted, {{0, true}, {1, true}});
  ASSERT_EQ(sorted.sort_order().size(), 2u);
  EXPECT_EQ(sorted.sort_order()[0].column, 0);
  EXPECT_TRUE(sorted.sort_order()[0].ascending);
  EXPECT_EQ(sorted.sort_order()[1].column, 1);
  EXPECT_TRUE(sorted.sort_order()[1].ascending);
}

TEST(SortOrderTest, DroppedOnMutationLikeZoneMap) {
  Table sorted = SortTable(SortOrderFixture(), {{0, true}});
  sorted.mutable_column(0)->BuildZoneMap();
  ASSERT_NE(sorted.column(0).zone_map(), nullptr);
  // mutable_column already drops the table-level declaration...
  EXPECT_TRUE(sorted.sort_order().empty());
  // ...and so does a row append.
  Table sorted2 = SortTable(SortOrderFixture(), {{0, true}});
  VX_CHECK_OK(sorted2.AppendRow({Value(int64_t{0}), Value(int64_t{0}),
                                 Value(0.0)}));
  EXPECT_TRUE(sorted2.sort_order().empty());
  EXPECT_EQ(sorted2.column(0).zone_map(), nullptr);
}

TEST(SortOrderTest, AppendOfRowsDropsAppendOfNothingKeeps) {
  Table sorted = SortTable(SortOrderFixture(), {{0, true}});
  Table empty(sorted.schema());
  VX_CHECK_OK(sorted.Append(empty));
  EXPECT_FALSE(sorted.sort_order().empty());
  VX_CHECK_OK(sorted.Append(SortOrderFixture()));
  EXPECT_TRUE(sorted.sort_order().empty());
}

TEST(SortOrderTest, SlicePreservesTakeDrops) {
  Table sorted = SortTable(SortOrderFixture(), {{0, true}});
  Table slice = sorted.Slice(1, 2);
  ASSERT_EQ(slice.sort_order().size(), 1u);
  Table taken = sorted.Take({2, 0, 1});
  EXPECT_TRUE(taken.sort_order().empty());
}

TEST(SortOrderTest, SelectColumnsRemapsPrefix) {
  Table sorted = SortTable(SortOrderFixture(), {{0, true}, {1, true}});
  // Reorder columns: the order keys follow their columns' new positions.
  Table swapped = sorted.SelectColumns({1, 0});
  ASSERT_EQ(swapped.sort_order().size(), 2u);
  EXPECT_EQ(swapped.sort_order()[0].column, 1);
  EXPECT_EQ(swapped.sort_order()[1].column, 0);
  // Dropping the leading key column ends the claim entirely.
  Table no_lead = sorted.SelectColumns({1, 2});
  EXPECT_TRUE(no_lead.sort_order().empty());
  // Dropping a later key keeps the surviving prefix.
  Table prefix = sorted.SelectColumns({0, 2});
  ASSERT_EQ(prefix.sort_order().size(), 1u);
  EXPECT_EQ(prefix.sort_order()[0].column, 0);
}

TEST(SortOrderTest, EncodeIsValueNeutralForTheDeclaration) {
  // Encoding is a physical-representation switch; the declaration
  // survives, like the zone map does across Decode.
  Table sorted = SortTable(SortOrderFixture(), {{0, true}});
  sorted.EncodeColumns(EncodingMode::kForce);
  EXPECT_FALSE(sorted.sort_order().empty());
  sorted.DecodeColumns();
  EXPECT_FALSE(sorted.sort_order().empty());
}

// --------------------------------------------------- Segment encodings

TEST(EncodingTest, RleRoundTripAndAccessors) {
  Column c = Column::FromInts({7, 7, 7, 7, 1, 1, 2, 2, 2, 2});
  Column plain = c;
  ASSERT_TRUE(c.Encode(EncodingMode::kForce));
  EXPECT_EQ(c.encoding(), ColumnEncoding::kRle);
  ASSERT_NE(c.rle_runs(), nullptr);
  EXPECT_EQ(c.rle_runs()->size(), 3u);
  EXPECT_TRUE(c.Equals(plain));
  EXPECT_EQ(c.GetInt64(4), 1);
  EXPECT_EQ(c.ints(), plain.ints());
  c.Decode();
  EXPECT_EQ(c.encoding(), ColumnEncoding::kPlain);
  EXPECT_TRUE(c.Equals(plain));
}

TEST(EncodingTest, DictStringAccessWithoutDecode) {
  Column c = Column::FromStrings({"family", "friend", "family", "family"});
  Column plain = c;
  ASSERT_TRUE(c.Encode(EncodingMode::kForce));
  EXPECT_EQ(c.encoding(), ColumnEncoding::kDict);
  ASSERT_NE(c.dict(), nullptr);
  EXPECT_EQ(c.dict()->dictionary.size(), 2u);
  EXPECT_EQ(c.GetString(2), "family");  // served from the dictionary
  for (int64_t i = 0; i < c.length(); ++i) {
    EXPECT_EQ(c.HashRow(i), plain.HashRow(i)) << i;
    EXPECT_EQ(c.CompareRows(i, plain, i), 0) << i;
  }
  EXPECT_TRUE(c.Equals(plain));
}

TEST(EncodingTest, AutoDeclinesIncompressible) {
  std::vector<int64_t> distinct(1000);
  for (int64_t i = 0; i < 1000; ++i) distinct[static_cast<size_t>(i)] = i;
  Column c = Column::FromInts(std::move(distinct));
  EXPECT_FALSE(c.Encode(EncodingMode::kAuto));  // all-distinct: RLE loses
  EXPECT_EQ(c.encoding(), ColumnEncoding::kPlain);
  EXPECT_NE(c.zone_map(), nullptr);  // the zone map still gets built
}

TEST(EncodingTest, MutationRevertsToPlainAndDropsZoneMap) {
  Column c = Column::FromInts({1, 1, 1, 1});
  ASSERT_TRUE(c.Encode(EncodingMode::kForce));
  ASSERT_NE(c.zone_map(), nullptr);
  c.AppendInt64(9);
  EXPECT_EQ(c.encoding(), ColumnEncoding::kPlain);
  EXPECT_EQ(c.zone_map(), nullptr);  // stale statistics must not survive
  EXPECT_EQ(c.length(), 5);
  EXPECT_EQ(c.GetInt64(4), 9);
}

TEST(EncodingTest, EncodedWithNullsRoundTrips) {
  Column c(DataType::kInt64);
  for (int i = 0; i < 100; ++i) {
    if (i % 7 == 0) {
      c.AppendNull();
    } else {
      c.AppendInt64(i / 10);
    }
  }
  Column plain = c;
  ASSERT_TRUE(c.Encode(EncodingMode::kForce));
  EXPECT_EQ(c.null_count(), plain.null_count());
  EXPECT_TRUE(c.Equals(plain));
  EXPECT_TRUE(c.Take({0, 7, 14, 3}).Equals(plain.Take({0, 7, 14, 3})));
  EXPECT_TRUE(c.Slice(5, 50).Equals(plain.Slice(5, 50)));
}

namespace property {

Table RandomTable(uint64_t seed, int64_t n, bool with_nulls, bool with_nan) {
  Rng rng(seed);
  Table t(Schema({{"k", DataType::kInt64},
                  {"x", DataType::kDouble},
                  {"s", DataType::kString},
                  {"b", DataType::kBool}}));
  for (int64_t i = 0; i < n; ++i) {
    std::vector<Value> row;
    row.push_back(with_nulls && rng.Bernoulli(0.05)
                      ? Value::Null()
                      : Value(rng.UniformRange(0, 40)));
    double d = rng.NextDouble();
    if (with_nan && rng.Bernoulli(0.03)) {
      d = std::numeric_limits<double>::quiet_NaN();
    }
    row.push_back(with_nulls && rng.Bernoulli(0.05) ? Value::Null()
                                                    : Value(d));
    row.push_back(with_nulls && rng.Bernoulli(0.05)
                      ? Value::Null()
                      : Value("tag" + std::to_string(rng.Uniform(6))));
    row.push_back(with_nulls && rng.Bernoulli(0.05)
                      ? Value::Null()
                      : Value(rng.Bernoulli(0.5)));
    VX_CHECK_OK(t.AppendRow(row));
  }
  return t;
}

}  // namespace property

TEST(EncodingPropertyTest, EncodeOperateDecodeIsBitIdentical) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const Table plain = property::RandomTable(seed, 2000, /*with_nulls=*/true,
                                              /*with_nan=*/true);
    Table encoded = plain;
    encoded.EncodeColumns(EncodingMode::kForce);
    ASSERT_TRUE(encoded.Equals(plain)) << "seed " << seed;

    // Row access, hashing and comparison agree per element.
    for (int c = 0; c < plain.num_columns(); ++c) {
      for (int64_t i = 0; i < plain.num_rows(); i += 97) {
        ASSERT_EQ(encoded.column(c).HashRow(i), plain.column(c).HashRow(i))
            << "seed " << seed << " col " << c << " row " << i;
        ASSERT_EQ(encoded.column(c).CompareRows(i, plain.column(c), i), 0)
            << "seed " << seed << " col " << c << " row " << i;
      }
    }

    // Relational kernels over the encoded table equal the plain ones.
    std::vector<int64_t> gather;
    Rng rng(seed + 100);
    for (int i = 0; i < 500; ++i) {
      gather.push_back(
          static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(
              plain.num_rows()))));
    }
    EXPECT_TRUE(encoded.Take(gather).Equals(plain.Take(gather)));
    EXPECT_TRUE(encoded.Slice(123, 777).Equals(plain.Slice(123, 777)));
    for (int key = 0; key < plain.num_columns(); ++key) {
      EXPECT_TRUE(SortTable(encoded, {{key, true}})
                      .Equals(SortTable(plain, {{key, true}})))
          << "seed " << seed << " sort key " << key;
    }

    Table decoded = encoded;
    decoded.DecodeColumns();
    EXPECT_TRUE(decoded.Equals(plain)) << "seed " << seed;
  }
}

TEST(EncodingPropertyTest, ZoneMapPruningNeverChangesResults) {
  // Large enough to span many zones (4096 rows) and morsels (16384 rows);
  // `k` is block-sorted so zone maps actually prune.
  constexpr int64_t kRows = 100000;
  Rng rng(11);
  Table plain(Schema({{"k", DataType::kInt64},
                      {"x", DataType::kDouble},
                      {"s", DataType::kString}}));
  for (int64_t i = 0; i < kRows; ++i) {
    std::vector<Value> row;
    row.push_back(rng.Bernoulli(0.02) ? Value::Null() : Value(i / 500));
    row.push_back(rng.Bernoulli(0.01)
                      ? Value(std::numeric_limits<double>::quiet_NaN())
                      : Value(rng.NextDouble() * 100.0));
    row.push_back(Value("t" + std::to_string(i / 25000)));
    VX_CHECK_OK(plain.AppendRow(row));
  }
  auto encoded = std::make_shared<Table>(plain);
  encoded->EncodeColumns(EncodingMode::kForce);
  auto encoded_view = std::static_pointer_cast<const Table>(encoded);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<ExprPtr> predicates = {
      Eq(Col("k"), Lit(int64_t{37})),
      Ge(Col("k"), Lit(int64_t{190})),
      Lt(Col("k"), Lit(int64_t{3})),
      Ne(Col("k"), Lit(int64_t{0})),
      And(Ge(Col("k"), Lit(int64_t{50})), Lt(Col("k"), Lit(int64_t{52}))),
      Eq(Col("s"), Lit(std::string("t3"))),
      Ge(Col("x"), Lit(99.5)),
      Eq(Col("x"), Lit(nan)),  // NaN literal under the total order
      And(Eq(Col("k"), Lit(int64_t{100})), Ge(Col("x"), Lit(50.0))),
  };
  for (size_t p = 0; p < predicates.size(); ++p) {
    // Baseline: serial FilterOp over the plain table (no zone maps built).
    auto expect = PlanBuilder::Scan(plain).Filter(predicates[p]).Execute();
    ASSERT_TRUE(expect.ok()) << expect.status().ToString();
    for (int threads : {1, 8}) {
      ExecKnobs knobs = ExecKnobs::Current();
      knobs.threads = threads;
      ScopedExecKnobs scoped(knobs);
      auto actual = ParallelFilter(encoded_view, predicates[p]);
      ASSERT_TRUE(actual.ok())
          << "pred " << p << ": " << actual.status().ToString();
      EXPECT_TRUE(actual->Equals(*expect))
          << "predicate " << p << " diverges at threads=" << threads
          << " (expected " << expect->num_rows() << " rows, got "
          << actual->num_rows() << ")";
    }
  }

  // The selective predicates really do skip ranges.
  KernelStats counters;
  {
    ExecKnobs knobs = ExecKnobs::Current();
    knobs.threads = 8;
    knobs.kernel_stats = &counters;
    ScopedExecKnobs scoped(knobs);
    auto out = ParallelFilter(encoded_view, Eq(Col("k"), Lit(int64_t{37})));
    ASSERT_TRUE(out.ok());
    EXPECT_GT(out->num_rows(), 0);
  }
  const KernelStatsSnapshot stats = Snapshot(counters);
  EXPECT_GT(stats.ranges_pruned, 0);
  EXPECT_GT(stats.rows_pruned, 0);
}

TEST(EncodingTest, PushedDownScanSkipsBatchesWithoutChangingResults) {
  Table t(Schema({{"k", DataType::kInt64}}));
  for (int64_t i = 0; i < 40000; ++i) {
    VX_CHECK_OK(t.AppendRow({Value(i / 1000)}));
  }
  Table plain = t;
  t.BuildZoneMaps();  // pruning without any encoding
  const ExprPtr pred = Eq(Col("k"), Lit(int64_t{39}));
  auto expect = PlanBuilder::Scan(plain).Filter(pred).Execute();
  ASSERT_TRUE(expect.ok());
  KernelStats counters;
  ExecKnobs knobs = ExecKnobs::Current();
  knobs.kernel_stats = &counters;
  ScopedExecKnobs scoped(knobs);
  auto actual = PlanBuilder::Scan(t).Filter(pred).Execute();
  ASSERT_TRUE(actual.ok());
  EXPECT_TRUE(actual->Equals(*expect));
  EXPECT_EQ(actual->num_rows(), 1000);
  EXPECT_GT(Snapshot(counters).ranges_pruned, 0);
}

// --------------------------------------------------- Footprint accounting

TEST(AccountingTest, ValidityBitmapIsCounted) {
  Column no_nulls = Column::FromInts({1, 2, 3, 4});
  Column with_null(DataType::kInt64);
  with_null.AppendInt64(1);
  with_null.AppendInt64(2);
  with_null.AppendInt64(3);
  with_null.AppendNull();
  EXPECT_EQ(UncompressedByteSize(no_nulls), 4 * 8);
  // Same value payload + a materialized 4-byte validity bitmap.
  EXPECT_EQ(UncompressedByteSize(with_null), 4 * 8 + 4);
  // Both encode to 4 runs ({1,2,3,4} vs {1,2,3,0-placeholder}); the null
  // column additionally carries its 4-byte validity bitmap.
  EXPECT_EQ(CompressedByteSize(with_null), CompressedByteSize(no_nulls) + 4);
}

TEST(AccountingTest, DictByteSizeIncludesEntryHeaders) {
  DictEncoded enc;
  enc.dictionary = {"ab", "c"};
  enc.codes = {0, 1, 0};
  EXPECT_EQ(enc.ByteSize(),
            static_cast<int64_t>(3 * sizeof(int32_t) +
                                 2 * sizeof(std::string) + 3));
}

TEST(AccountingTest, EncodedByteSizeTracksRepresentation) {
  Column c = Column::FromInts(std::vector<int64_t>(10000, 7));
  const int64_t plain_bytes = EncodedByteSize(c);
  EXPECT_EQ(plain_bytes, UncompressedByteSize(c));
  ASSERT_TRUE(c.Encode(EncodingMode::kAuto));
  EXPECT_EQ(EncodedByteSize(c), static_cast<int64_t>(sizeof(RleRun)));
  EXPECT_LT(EncodedByteSize(c), plain_bytes / 100);
  c.Decode();
  EXPECT_EQ(EncodedByteSize(c), plain_bytes);
}

TEST(ColumnTest, FromRleRunsBuildsEncodedColumn) {
  Column c = Column::FromRleRuns({{7, 3}, {7, 2}, {-1, 1}});
  EXPECT_EQ(c.length(), 6);
  EXPECT_EQ(c.encoding(), ColumnEncoding::kRle);
  EXPECT_EQ(c.GetInt64(0), 7);
  EXPECT_EQ(c.GetInt64(4), 7);
  EXPECT_EQ(c.GetInt64(5), -1);
  EXPECT_EQ(c.null_count(), 0);
  // The zone map rides along, built from the runs without a decode.
  ASSERT_NE(c.zone_map(), nullptr);
  ASSERT_EQ(c.zone_map()->zones().size(), 1u);
  EXPECT_EQ(c.zone_map()->zones()[0].min_i, -1);
  EXPECT_EQ(c.zone_map()->zones()[0].max_i, 7);
}

// ---- Bitvector (the frontier representation). ----------------------------

TEST(BitvectorTest, SetTestClearRoundTrip) {
  Bitvector bits(200);
  EXPECT_EQ(bits.size(), 200);
  EXPECT_EQ(bits.CountOnes(), 0);
  for (int64_t i = 0; i < 200; i += 7) bits.Set(i);
  for (int64_t i = 0; i < 200; ++i) {
    EXPECT_EQ(bits.Test(i), i % 7 == 0) << i;
  }
  EXPECT_EQ(bits.CountOnes(), (200 + 6) / 7);
  bits.Clear(0);
  bits.Clear(7);
  EXPECT_FALSE(bits.Test(0));
  EXPECT_FALSE(bits.Test(7));
  EXPECT_TRUE(bits.Test(14));
  EXPECT_EQ(bits.CountOnes(), (200 + 6) / 7 - 2);
}

TEST(BitvectorTest, WordBoundarySizes) {
  // 63/64/65: last-word tails of every flavor. The final bit must be
  // settable and CountOnes must not read past size().
  for (int64_t size : {63, 64, 65}) {
    Bitvector bits(size);
    bits.Set(size - 1);
    EXPECT_TRUE(bits.Test(size - 1)) << size;
    EXPECT_EQ(bits.CountOnes(), 1) << size;
    bits.Set(0);
    EXPECT_EQ(bits.CountOnes(), 2) << size;
    EXPECT_EQ(bits.SetIndices(), (std::vector<int64_t>{0, size - 1}))
        << size;
  }
}

TEST(BitvectorTest, ForEachSetBitAscending) {
  Bitvector bits(130);
  const std::vector<int64_t> expected = {1, 63, 64, 65, 128, 129};
  for (int64_t i : expected) bits.Set(i);
  std::vector<int64_t> seen;
  bits.ForEachSetBit([&seen](int64_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(bits.SetIndices(), expected);
}

TEST(BitvectorTest, AndOrCombine) {
  Bitvector a(100);
  Bitvector b(100);
  for (int64_t i = 0; i < 100; i += 2) a.Set(i);   // evens
  for (int64_t i = 0; i < 100; i += 3) b.Set(i);   // multiples of 3
  Bitvector u = a;
  u.Or(b);
  Bitvector x = a;
  x.And(b);
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(u.Test(i), i % 2 == 0 || i % 3 == 0) << i;
    EXPECT_EQ(x.Test(i), i % 6 == 0) << i;
  }
}

// ---- CsrIndex (frontier edge slices). ------------------------------------

Column GroupedKeys(const std::vector<int64_t>& values) {
  Column c(DataType::kInt64);
  for (int64_t v : values) c.AppendInt64(v);
  return c;
}

TEST(CsrIndexTest, SlicesMatchGroupedRuns) {
  // src column of a (src, dst)-sorted edge table: 0,0,0,2,2,5.
  const Column keys = GroupedKeys({0, 0, 0, 2, 2, 5});
  const auto csr = CsrIndex::Build(keys);
  ASSERT_NE(csr, nullptr);
  EXPECT_EQ(csr->num_keys(), 3);
  EXPECT_EQ(csr->num_rows(), 6);
  EXPECT_EQ(csr->NeighborSlice(0).begin, 0);
  EXPECT_EQ(csr->NeighborSlice(0).end, 3);
  EXPECT_EQ(csr->NeighborSlice(2).begin, 3);
  EXPECT_EQ(csr->NeighborSlice(2).end, 5);
  EXPECT_EQ(csr->NeighborSlice(5).begin, 5);
  EXPECT_EQ(csr->NeighborSlice(5).end, 6);
  EXPECT_EQ(csr->NeighborSlice(1).length(), 0);   // absent key: empty slice
  EXPECT_EQ(csr->NeighborSlice(99).length(), 0);
}

TEST(CsrIndexTest, EncodedKeysBuildFromRuns) {
  Column keys = GroupedKeys({0, 0, 0, 2, 2, 5});
  ASSERT_TRUE(keys.Encode(EncodingMode::kForce));
  ASSERT_EQ(keys.encoding(), ColumnEncoding::kRle);
  const auto csr = CsrIndex::Build(keys);
  ASSERT_NE(csr, nullptr);
  EXPECT_EQ(csr->num_keys(), 3);
  EXPECT_EQ(csr->NeighborSlice(2).begin, 3);
  EXPECT_EQ(csr->NeighborSlice(2).end, 5);
}

TEST(CsrIndexTest, AdjacentRunsSharingAValueMerge) {
  // Column::FromRleRuns permits adjacent runs with the same value; the
  // index must see them as one slice.
  Column keys = Column::FromRleRuns({{7, 2}, {7, 3}, {9, 1}});
  const auto csr = CsrIndex::Build(keys);
  ASSERT_NE(csr, nullptr);
  EXPECT_EQ(csr->num_keys(), 2);
  EXPECT_EQ(csr->NeighborSlice(7).begin, 0);
  EXPECT_EQ(csr->NeighborSlice(7).end, 5);
  EXPECT_EQ(csr->NeighborSlice(9).begin, 5);
  EXPECT_EQ(csr->NeighborSlice(9).end, 6);
}

TEST(CsrIndexTest, UngroupedKeysGroupStably) {
  // Not nondecreasing: the index carries the stable grouping permutation,
  // so each key's slice lists its rows in row order.
  const Column keys = GroupedKeys({5, 2, 5, 0, 2, 5});
  const auto csr = CsrIndex::Build(keys);
  ASSERT_NE(csr, nullptr);
  EXPECT_EQ(csr->num_keys(), 3);
  const auto rows_of = [&csr](int64_t key) {
    std::vector<int64_t> rows;
    const CsrIndex::Slice s = csr->NeighborSlice(key);
    for (int64_t p = s.begin; p < s.end; ++p) rows.push_back(csr->Row(p));
    return rows;
  };
  EXPECT_EQ(rows_of(0), (std::vector<int64_t>{3}));
  EXPECT_EQ(rows_of(2), (std::vector<int64_t>{1, 4}));
  EXPECT_EQ(rows_of(5), (std::vector<int64_t>{0, 2, 5}));
  EXPECT_TRUE(rows_of(7).empty());
  EXPECT_TRUE(csr->CheckInvariants(keys).ok());

  // Unsorted RLE runs group the same way (decoded once).
  const Column runs = Column::FromRleRuns({{3, 2}, {1, 2}, {3, 1}});
  const auto rle = CsrIndex::Build(runs);
  ASSERT_NE(rle, nullptr);
  EXPECT_EQ(rle->NeighborSlice(1).length(), 2);
  EXPECT_EQ(rle->Row(rle->NeighborSlice(1).begin), 2);
  EXPECT_EQ(rle->NeighborSlice(3).length(), 3);
  EXPECT_EQ(rle->Row(rle->NeighborSlice(3).end - 1), 4);
  EXPECT_TRUE(rle->CheckInvariants(runs).ok());
}

// ---- CsrIndex layouts: direct address and hash give the same slices. ---

/// The row order a key column arrives in: sorted or not, plain or RLE.
enum class KeyOrder { kSorted, kUnsorted, kSortedRle, kUnsortedRle };

const char* KeyOrderName(KeyOrder order) {
  switch (order) {
    case KeyOrder::kSorted:
      return "sorted";
    case KeyOrder::kUnsorted:
      return "unsorted";
    case KeyOrder::kSortedRle:
      return "sorted-rle";
    case KeyOrder::kUnsortedRle:
      return "unsorted-rle";
  }
  return "?";
}

/// `values` as a key column in `order` (RLE columns come from their runs).
Column KeysInOrder(std::vector<int64_t> values, KeyOrder order) {
  if (order == KeyOrder::kSorted || order == KeyOrder::kSortedRle) {
    std::sort(values.begin(), values.end());
  }
  if (order == KeyOrder::kSorted || order == KeyOrder::kUnsorted) {
    return Column::FromInts(values);
  }
  return Column::FromRleRuns(RleEncode(values));
}

/// Every index position's row, in position order.
std::vector<int64_t> IndexRows(const CsrIndex& csr) {
  std::vector<int64_t> rows(static_cast<size_t>(csr.num_rows()));
  for (int64_t p = 0; p < csr.num_rows(); ++p) {
    rows[static_cast<size_t>(p)] = csr.Row(p);
  }
  return rows;
}

TEST(CsrIndexLayoutTest, DenseAndSparsePlacementsGiveTheSameSlices) {
  // One key multiset placed densely (span under 2 x rows: the
  // direct-address layout) and at a stride of 2^40 (the hash layout). The
  // stride keeps the key order, so both must list the same rows per key.
  for (uint64_t seed = 0; seed < 96; ++seed) {
    Rng rng(seed + 7000);
    const auto order = static_cast<KeyOrder>(seed % 4);
    const int64_t n = seed % 17 == 0 ? 0 : rng.UniformRange(1, 300);
    const int64_t width = rng.UniformRange(1, std::max<int64_t>(1, 2 * n));
    const int64_t lo = rng.UniformRange(-1000, 1000);  // negatives too
    const int64_t c = rng.UniformRange(-(int64_t{1} << 50), int64_t{1} << 50);
    const auto sparse_key = [lo, c](int64_t key) {
      return (key - lo) * (int64_t{1} << 40) + c;
    };
    std::vector<int64_t> dense_values;
    for (int64_t i = 0; i < n; ++i) {
      // Repeat the previous key now and then, so RLE columns get runs.
      dense_values.push_back(i > 0 && rng.Bernoulli(0.3)
                                 ? dense_values.back()
                                 : lo + rng.UniformRange(0, width - 1));
    }
    std::vector<int64_t> sparse_values;
    for (const int64_t v : dense_values) sparse_values.push_back(sparse_key(v));
    const Column dense_keys = KeysInOrder(dense_values, order);
    const Column sparse_keys = KeysInOrder(sparse_values, order);
    SCOPED_TRACE(StringFormat(
        "replay: CsrIndexLayoutTest.DenseAndSparsePlacementsGiveTheSameSlices "
        "seed=%llu order=%s rows=%lld",
        static_cast<unsigned long long>(seed), KeyOrderName(order),
        static_cast<long long>(n)));
    const auto dense = CsrIndex::Build(dense_keys);
    const auto sparse = CsrIndex::Build(sparse_keys);
    ASSERT_NE(dense, nullptr);
    ASSERT_NE(sparse, nullptr);
    EXPECT_TRUE(dense->CheckInvariants(dense_keys).ok());
    EXPECT_TRUE(sparse->CheckInvariants(sparse_keys).ok());
    const auto [min, max] =
        std::minmax_element(dense_values.begin(), dense_values.end());
    EXPECT_EQ(dense->direct_address(), n > 0);
    if (n > 0 && *min != *max) {
      EXPECT_FALSE(sparse->direct_address());
    }

    EXPECT_EQ(IndexRows(*dense), IndexRows(*sparse));
    EXPECT_EQ(dense->identity_order(), sparse->identity_order());
    EXPECT_EQ(dense->num_rows(), n);
    EXPECT_EQ(sparse->num_rows(), n);
    EXPECT_EQ(dense->num_keys(), sparse->num_keys());
    int64_t covered = 0;
    for (int64_t key = lo - 2; key <= lo + width + 1; ++key) {
      const CsrIndex::Slice d = dense->NeighborSlice(key);
      const CsrIndex::Slice h = sparse->NeighborSlice(sparse_key(key));
      const auto rows = std::count(dense_values.begin(), dense_values.end(),
                                   key);
      EXPECT_EQ(d.length(), rows) << "key " << key;
      EXPECT_EQ(h.length(), rows) << "key " << key;
      if (rows > 0) {  // an absent key's empty slice may sit anywhere
        EXPECT_EQ(d.begin, h.begin) << "key " << key;
      }
      covered += d.length();
      // Between two stride points no key lives.
      EXPECT_EQ(sparse->NeighborSlice(sparse_key(key) + 1).length(), 0);
    }
    EXPECT_EQ(covered, n);
    // Absent keys below lo, above hi and at the far ends of the int64 range
    // give zero-length slices in either layout.
    for (const int64_t key :
         {std::numeric_limits<int64_t>::min(), lo - 1, lo + width,
          std::numeric_limits<int64_t>::max()}) {
      EXPECT_EQ(dense->NeighborSlice(key).length(), 0) << "key " << key;
      EXPECT_EQ(sparse->NeighborSlice(key).length(), 0) << "key " << key;
    }
  }
}

TEST(CsrIndexLayoutTest, ExtremeKeysGroupWithoutOverflow) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  struct Case {
    std::vector<int64_t> keys;
    bool direct_address;
  };
  // The full int64 span overflows a signed subtraction: hash layout. Two
  // adjacent keys at either end are dense: direct address, probed from the
  // other end of the range.
  const std::vector<Case> cases = {
      {{kMin, kMax}, false},
      {{kMax, 0, kMin, 0, kMax}, false},
      {{kMax, kMax - 1, kMax}, true},
      {{kMin + 1, kMin, kMin}, true},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    for (const KeyOrder order :
         {KeyOrder::kUnsorted, KeyOrder::kSorted, KeyOrder::kUnsortedRle,
          KeyOrder::kSortedRle}) {
      const Case& c = cases[i];
      SCOPED_TRACE(StringFormat(
          "replay: CsrIndexLayoutTest.ExtremeKeysGroupWithoutOverflow "
          "case=%zu order=%s",
          i, KeyOrderName(order)));
      const Column keys = KeysInOrder(c.keys, order);
      const auto csr = CsrIndex::Build(keys);
      ASSERT_NE(csr, nullptr);
      EXPECT_EQ(csr->direct_address(), c.direct_address);
      EXPECT_TRUE(csr->CheckInvariants(keys).ok());
      // Positions list the rows by key, ties in row order.
      const std::vector<int64_t>& values = keys.ints();
      std::vector<int64_t> want(values.size());
      std::iota(want.begin(), want.end(), int64_t{0});
      std::stable_sort(want.begin(), want.end(), [&](int64_t a, int64_t b) {
        return values[static_cast<size_t>(a)] < values[static_cast<size_t>(b)];
      });
      EXPECT_EQ(IndexRows(*csr), want);
      for (const int64_t key : {kMin, kMin + 1, int64_t{0}, kMax - 1, kMax}) {
        const auto rows = std::count(c.keys.begin(), c.keys.end(), key);
        EXPECT_EQ(csr->NeighborSlice(key).length(), rows) << "key " << key;
      }
    }
  }
}

TEST(CsrIndexTest, NullOrNonIntegerKeysFailTheBuild) {
  Column with_null(DataType::kInt64);
  with_null.AppendInt64(1);
  with_null.AppendNull();
  EXPECT_EQ(CsrIndex::Build(with_null), nullptr);
  Column doubles(DataType::kDouble);
  doubles.AppendDouble(1.0);
  EXPECT_EQ(CsrIndex::Build(doubles), nullptr);
}

}  // namespace

// ------------------------------------------------------ invariant audits
//
// The test-only corruption backdoors (friended by the storage classes):
// every mutation hook heals derived state before touching data, so lying
// about structure — the exact thing CheckInvariants exists to catch —
// requires reaching around the public API.

struct ColumnTestAccess {
  static std::shared_ptr<const EncodedSegment>& segment(Column* c) {
    return c->segment_;
  }
  static std::vector<int64_t>& ints(Column* c) { return c->ints_; }
  static std::vector<uint8_t>& validity(Column* c) { return c->validity_; }
  static int64_t& null_count(Column* c) { return c->null_count_; }
};

struct BitvectorTestAccess {
  static std::vector<uint64_t>& words(Bitvector* b) { return b->words_; }
};

namespace {

bool Mentions(const Status& st, const char* needle) {
  return st.ToString().find(needle) != std::string::npos;
}

TEST(InvariantAuditTest, HealthyStructuresPass) {
  Column ints = Column::FromInts({1, 1, 2, 2, 3});
  ASSERT_TRUE(ints.Encode(EncodingMode::kForce));
  EXPECT_TRUE(ints.CheckInvariants().ok());

  Column strs = Column::FromStrings({"a", "b", "a", "b", "a"});
  ASSERT_TRUE(strs.Encode(EncodingMode::kForce));
  EXPECT_TRUE(strs.CheckInvariants().ok());

  Column with_zones = Column::FromDoubles({1.0, 2.0, 3.0});
  with_zones.BuildZoneMap();
  EXPECT_TRUE(with_zones.CheckInvariants().ok());

  auto made = Table::Make(Schema({{"k", DataType::kInt64}}),
                          {Column::FromInts({1, 2, 3})});
  ASSERT_TRUE(made.ok());
  Table t = *made;
  t.SetSortOrder({{0, true}});
  EXPECT_TRUE(t.CheckInvariants().ok());
}

TEST(InvariantAuditTest, LyingTableSortOrderIsReported) {
  // The leading key really is nondecreasing; the declared tiebreaker is
  // the lie.
  auto made = Table::Make(
      Schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}}),
      {Column::FromInts({1, 1, 2}), Column::FromInts({5, 3, 9})});
  ASSERT_TRUE(made.ok());
  Table t = *made;
  t.SetSortOrder({{0, true}, {1, true}});
  const Status st = t.CheckInvariants();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(Mentions(
      st, "sort order broken between rows 0 and 1 on key column 1 (b)"))
      << st.ToString();
}

TEST(InvariantAuditTest, TruncatedRleRunsAreReported) {
  Column c = Column::FromInts({1, 1, 2, 2, 3});
  ASSERT_TRUE(c.Encode(EncodingMode::kForce));
  ASSERT_EQ(c.encoding(), ColumnEncoding::kRle);
  const auto& good = *ColumnTestAccess::segment(&c);
  auto bad = std::make_shared<EncodedSegment>();
  bad->encoding = ColumnEncoding::kRle;
  bad->length = good.length;
  bad->runs.assign(good.runs.begin(), good.runs.end() - 1);  // drop a run
  bad->run_starts.assign(good.run_starts.begin(), good.run_starts.end() - 1);
  ColumnTestAccess::segment(&c) = bad;
  const Status st = c.CheckInvariants();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(Mentions(st, "RLE runs sum to 4 rows but the column has 5"))
      << st.ToString();
}

TEST(InvariantAuditTest, BrokenRunStartsAreReported) {
  Column c = Column::FromInts({7, 7, 8});
  ASSERT_TRUE(c.Encode(EncodingMode::kForce));
  const auto& good = *ColumnTestAccess::segment(&c);
  auto bad = std::make_shared<EncodedSegment>();
  bad->encoding = ColumnEncoding::kRle;
  bad->length = good.length;
  bad->runs = good.runs;
  bad->run_starts = good.run_starts;
  bad->run_starts[1] = 1;  // true prefix sum is 2
  ColumnTestAccess::segment(&c) = bad;
  const Status st = c.CheckInvariants();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(
      Mentions(st, "run_starts[1] is 1 but runs before it sum to 2"))
      << st.ToString();
}

TEST(InvariantAuditTest, OutOfRangeDictCodeIsReported) {
  Column c = Column::FromStrings({"x", "y", "x", "y"});
  ASSERT_TRUE(c.Encode(EncodingMode::kForce));
  ASSERT_EQ(c.encoding(), ColumnEncoding::kDict);
  const auto& good = *ColumnTestAccess::segment(&c);
  auto bad = std::make_shared<EncodedSegment>();
  bad->encoding = ColumnEncoding::kDict;
  bad->length = good.length;
  bad->dict = good.dict;
  bad->dict.codes[2] = 99;
  ColumnTestAccess::segment(&c) = bad;
  const Status st = c.CheckInvariants();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(
      Mentions(st, "dict code 99 at row 2 outside dictionary of 2 entries"))
      << st.ToString();
}

TEST(InvariantAuditTest, StaleZoneMapIsReported) {
  Column c = Column::FromInts({1, 2, 3, 4});
  c.BuildZoneMap();
  ASSERT_NE(c.zone_map(), nullptr);
  // Reach past PrepareMutation (which would have dropped the zone map) and
  // move a value outside the recorded bounds.
  ColumnTestAccess::ints(&c)[0] = 1000000;
  const Status st = c.CheckInvariants();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(Mentions(
      st, "zone 0 bounds do not cover the value at row 0 (stale zone map?)"))
      << st.ToString();
}

TEST(InvariantAuditTest, NullCountMismatchIsReported) {
  Column c = Column::FromInts({1, 2});
  ColumnTestAccess::null_count(&c) = 1;  // bitmap is empty == all valid
  const Status st = c.CheckInvariants();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(Mentions(
      st, "null_count is 1 but the validity bitmap is empty"))
      << st.ToString();

  Column d(DataType::kInt64);
  d.AppendInt64(5);
  d.AppendNull();
  ColumnTestAccess::validity(&d)[1] = 1;  // claims the NULL row is valid
  const Status st2 = d.CheckInvariants();
  ASSERT_FALSE(st2.ok());
  EXPECT_TRUE(Mentions(
      st2, "validity bitmap holds 0 NULLs but null_count says 1"))
      << st2.ToString();
}

TEST(InvariantAuditTest, BitvectorTailBitIsReported) {
  Bitvector bits(10);
  bits.Set(3);
  EXPECT_TRUE(bits.CheckInvariants().ok());
  BitvectorTestAccess::words(&bits).back() |= uint64_t{1} << 12;  // > size
  const Status st = bits.CheckInvariants();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(Mentions(st, "bits set past size 10")) << st.ToString();
}

TEST(InvariantAuditTest, StaleCsrIndexIsReported) {
  const Column keys = Column::FromInts({0, 0, 1});
  auto csr = CsrIndex::Build(keys);
  ASSERT_NE(csr, nullptr);
  EXPECT_TRUE(csr->CheckInvariants(keys).ok());

  // Audited against a longer snapshot: stale by row count.
  const Column longer = Column::FromInts({0, 0, 1, 2});
  const Status st = csr->CheckInvariants(longer);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(Mentions(
      st, "index covers 3 rows but the key column has 4 (stale index?)"))
      << st.ToString();

  // Same length, different grouping: stale by slice shape.
  const Column regrouped = Column::FromInts({0, 1, 1});
  const Status st2 = csr->CheckInvariants(regrouped);
  ASSERT_FALSE(st2.ok());
  EXPECT_TRUE(Mentions(
      st2, "key 0 maps to slice [0, 2) but its rows span [0, 1)"))
      << st2.ToString();

  // A permuted index audited against a reordered snapshot: stale by order.
  const Column unsorted = Column::FromInts({1, 0, 1});
  auto permuted = CsrIndex::Build(unsorted);
  ASSERT_NE(permuted, nullptr);
  EXPECT_TRUE(permuted->CheckInvariants(unsorted).ok());
  const Column swapped = Column::FromInts({0, 1, 1});
  const Status st3 = permuted->CheckInvariants(swapped);
  ASSERT_FALSE(st3.ok());
  EXPECT_TRUE(Mentions(
      st3, "index stores a permutation over a nondecreasing key column"))
      << st3.ToString();
  const Column reordered = Column::FromInts({1, 1, 0});
  const Status st4 = permuted->CheckInvariants(reordered);
  ASSERT_FALSE(st4.ok());
  EXPECT_TRUE(Mentions(
      st4, "position 0 holds row 1 but the stable grouping puts row 2 there"))
      << st4.ToString();
}

TEST(InvariantAuditTest, StaleDirectAddressCsrIndexIsReported) {
  const Column keys = Column::FromInts({3, 4, 4, 6});  // span 3 < 2 x 4
  auto csr = CsrIndex::Build(keys);
  ASSERT_NE(csr, nullptr);
  ASSERT_TRUE(csr->direct_address());
  EXPECT_TRUE(csr->CheckInvariants(keys).ok());

  // Same length and span, different grouping: stale by slice shape.
  const Status st = csr->CheckInvariants(Column::FromInts({3, 4, 6, 6}));
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(Mentions(
      st, "key 4 maps to slice [1, 3) but its rows span [1, 2)"))
      << st.ToString();

  // Same length, shifted keys: stale by the offsets' base.
  const Status st2 = csr->CheckInvariants(Column::FromInts({13, 14, 14, 16}));
  ASSERT_FALSE(st2.ok());
  EXPECT_TRUE(Mentions(st2,
                       "direct-address layout starts at 3 with 5 offsets but "
                       "the keys span [13, 16] (stale index?)"))
      << st2.ToString();

  // Same length, a span wide enough for the hash layout: stale by layout.
  const Status st3 = csr->CheckInvariants(Column::FromInts({3, 4, 4, 600}));
  ASSERT_FALSE(st3.ok());
  EXPECT_TRUE(Mentions(st3,
                       "keys span [3, 600] over 4 rows, which selects the "
                       "hash layout, but the index uses the other one"))
      << st3.ToString();
}


// ---- Sort property: SortIndices and CsrIndex vs a reference stable sort.

namespace sort_property {

/// The definition every sort path must reproduce exactly: std::stable_sort
/// over CompareRows, key by key.
std::vector<int64_t> ReferenceSort(const Table& t,
                                   const std::vector<SortKey>& keys) {
  std::vector<int64_t> rows(static_cast<size_t>(t.num_rows()));
  std::iota(rows.begin(), rows.end(), int64_t{0});
  std::stable_sort(rows.begin(), rows.end(), [&](int64_t a, int64_t b) {
    for (const SortKey& k : keys) {
      const Column& col = t.column(k.column);
      const int cmp = col.CompareRows(a, col, b);
      if (cmp != 0) return k.ascending ? cmp < 0 : cmp > 0;
    }
    return false;
  });
  return rows;
}

/// Value shapes of a NULL-free INT64 key column, from {0,1} to the full
/// int64 span.
enum class Shape {
  kBinary,    // {0, 1}
  kFewDups,   // [0, 5]: heavy duplicates
  kSigned,    // [-1000, 1000]
  kWide,      // [-2^40, 2^40]: several 16-bit digits
  kHighBits,  // multiples of 2^48: low digits constant
  kFullSpan,  // any int64, INT64_MIN and INT64_MAX frequent
  kRuns,      // runs of repeated values (RLE-friendly)
};
constexpr int kNumShapes = 7;

std::vector<int64_t> RandomInts(Rng* rng, int64_t n, Shape shape) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  std::vector<int64_t> v;
  v.reserve(static_cast<size_t>(n));
  while (static_cast<int64_t>(v.size()) < n) {
    switch (shape) {
      case Shape::kBinary:
        v.push_back(rng->UniformRange(0, 1));
        break;
      case Shape::kFewDups:
        v.push_back(rng->UniformRange(0, 5));
        break;
      case Shape::kSigned:
        v.push_back(rng->UniformRange(-1000, 1000));
        break;
      case Shape::kWide:
        v.push_back(rng->UniformRange(-(int64_t{1} << 40), int64_t{1} << 40));
        break;
      case Shape::kHighBits:
        v.push_back(rng->UniformRange(-3, 3) * (int64_t{1} << 48));
        break;
      case Shape::kFullSpan: {
        const uint64_t pick = rng->Uniform(8);
        v.push_back(pick == 0   ? kMin
                    : pick == 1 ? kMax
                                : static_cast<int64_t>(rng->Next()));
        break;
      }
      case Shape::kRuns: {
        const int64_t value = rng->UniformRange(-50, 50);
        const int64_t len = rng->UniformRange(1, 40);
        for (int64_t i = 0; i < len && static_cast<int64_t>(v.size()) < n;
             ++i) {
          v.push_back(value);
        }
        break;
      }
    }
  }
  return v;
}

int64_t RandomRowCount(Rng* rng, uint64_t seed) {
  // Every shape meets the 0-, 1- and 2-row tables.
  return seed % 10 < 3 ? static_cast<int64_t>(seed % 10)
                       : rng->UniformRange(3, 3000);
}

}  // namespace sort_property

TEST(SortPropertyTest, Int64KeyListsMatchReference) {
  using sort_property::Shape;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed + 1000);
    const int64_t n = sort_property::RandomRowCount(&rng, seed);
    const int num_cols = static_cast<int>(rng.UniformRange(1, 3));
    Schema schema;
    std::vector<Column> cols;
    std::string shapes;
    for (int c = 0; c < num_cols; ++c) {
      const auto shape = static_cast<Shape>(
          (seed + static_cast<uint64_t>(c) * 3) % sort_property::kNumShapes);
      shapes += std::to_string(static_cast<int>(shape)) + " ";
      schema.AddField({"k" + std::to_string(c), DataType::kInt64});
      cols.push_back(
          Column::FromInts(sort_property::RandomInts(&rng, n, shape)));
    }
    const Table plain =
        Table::Make(std::move(schema), std::move(cols)).ValueOrDie();
    Table encoded = plain;
    encoded.EncodeColumns(EncodingMode::kForce);  // RLE key columns

    const int num_keys = static_cast<int>(rng.UniformRange(1, 3));
    std::vector<SortKey> keys;
    std::string desc;
    for (int k = 0; k < num_keys; ++k) {
      const int col = static_cast<int>(rng.Uniform(
          static_cast<uint64_t>(num_cols)));
      const bool ascending = rng.Bernoulli(0.5);
      keys.push_back({col, ascending});
      desc += "k" + std::to_string(col) + (ascending ? "+ " : "- ");
    }
    const std::vector<int64_t> want = sort_property::ReferenceSort(plain, keys);
    EXPECT_EQ(SortIndices(plain, keys), want)
        << "seed " << seed << " rows " << n << " shapes " << shapes
        << "keys " << desc;
    EXPECT_EQ(SortIndices(encoded, keys), want)
        << "seed " << seed << " rows " << n << " shapes " << shapes
        << "keys " << desc << "(RLE)";
  }
}

TEST(SortPropertyTest, RangeAboveDigitWidthMatchesReference) {
  // Ranges past one 16-bit digit: below the row count (one counting pass
  // over `rows` buckets) and far above it (digit passes).
  Rng rng(7);
  constexpr int64_t kRows = 70000;
  std::vector<int64_t> dense(kRows);
  std::vector<int64_t> wide(kRows);
  for (int64_t i = 0; i < kRows; ++i) {
    dense[static_cast<size_t>(i)] = rng.UniformRange(-kRows / 2, kRows / 2);
    wide[static_cast<size_t>(i)] =
        rng.UniformRange(-(int64_t{1} << 33), int64_t{1} << 33);
  }
  const Table t =
      Table::Make(Schema({{"dense", DataType::kInt64},
                          {"wide", DataType::kInt64}}),
                  {Column::FromInts(dense), Column::FromInts(wide)})
          .ValueOrDie();
  for (const std::vector<SortKey>& keys :
       {std::vector<SortKey>{{0, true}}, std::vector<SortKey>{{0, false}},
        std::vector<SortKey>{{1, true}}, std::vector<SortKey>{{1, false}},
        std::vector<SortKey>{{0, false}, {1, true}}}) {
    EXPECT_EQ(SortIndices(t, keys), sort_property::ReferenceSort(t, keys))
        << "first key " << keys[0].column << (keys[0].ascending ? "+" : "-")
        << " of " << keys.size();
  }
}

TEST(SortPropertyTest, FallbackKeyListsMatchReference) {
  // NULL INT64 keys, DOUBLE keys (NaN, -0.0 and 0.0 tie-breaking), STRING
  // and BOOL keys, alone and mixed with NULL-free INT64 keys.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (uint64_t seed = 0; seed < 60; ++seed) {
    Rng rng(seed + 2000);
    const int64_t n = sort_property::RandomRowCount(&rng, seed);
    Column nullable(DataType::kInt64);
    Column doubles(DataType::kDouble);
    Column strings(DataType::kString);
    Column bools(DataType::kBool);
    for (int64_t i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.2)) {
        nullable.AppendNull();
      } else {
        nullable.AppendInt64(rng.UniformRange(-3, 3));
      }
      const uint64_t pick = rng.Uniform(5);
      doubles.AppendDouble(pick == 0   ? nan
                           : pick == 1 ? -0.0
                           : pick == 2 ? 0.0
                                       : rng.UniformRange(-2, 2) * 0.5);
      strings.AppendString("s" + std::to_string(rng.Uniform(4)));
      bools.AppendBool(rng.Bernoulli(0.5));
    }
    const std::vector<int64_t> ints =
        sort_property::RandomInts(&rng, n, sort_property::Shape::kFewDups);
    const Table plain =
        Table::Make(Schema({{"n", DataType::kInt64},
                            {"d", DataType::kDouble},
                            {"s", DataType::kString},
                            {"b", DataType::kBool},
                            {"i", DataType::kInt64}}),
                    {nullable, doubles, strings, bools,
                     Column::FromInts(ints)})
            .ValueOrDie();
    Table encoded = plain;
    encoded.EncodeColumns(EncodingMode::kForce);
    for (int fallback = 0; fallback < 4; ++fallback) {
      const bool ascending = rng.Bernoulli(0.5);
      for (const std::vector<SortKey>& keys :
           {std::vector<SortKey>{{fallback, ascending}},
            std::vector<SortKey>{{4, !ascending}, {fallback, ascending}},
            std::vector<SortKey>{{fallback, ascending}, {4, ascending}}}) {
        const std::vector<int64_t> want =
            sort_property::ReferenceSort(plain, keys);
        EXPECT_EQ(SortIndices(plain, keys), want)
            << "seed " << seed << " fallback column " << fallback;
        EXPECT_EQ(SortIndices(encoded, keys), want)
            << "seed " << seed << " fallback column " << fallback << " (RLE)";
      }
    }
  }
}

TEST(SortPropertyTest, CsrIndexMatchesReferenceOnUnsortedKeys) {
  using sort_property::Shape;
  for (uint64_t seed = 0; seed < 70; ++seed) {
    Rng rng(seed + 3000);
    const int64_t n = sort_property::RandomRowCount(&rng, seed);
    const auto shape = static_cast<Shape>(seed % sort_property::kNumShapes);
    Column plain = Column::FromInts(sort_property::RandomInts(&rng, n, shape));
    Column encoded = plain;
    encoded.Encode(EncodingMode::kForce);
    const Table t =
        Table::Make(Schema({{"k", DataType::kInt64}}), {plain}).ValueOrDie();
    const std::vector<int64_t> want =
        sort_property::ReferenceSort(t, {{0, true}});
    for (const Column* keys : {&plain, &encoded}) {
      const auto csr = CsrIndex::Build(*keys);
      ASSERT_NE(csr, nullptr) << "seed " << seed;
      ASSERT_EQ(csr->num_rows(), n) << "seed " << seed;
      std::vector<int64_t> got(static_cast<size_t>(n));
      for (int64_t p = 0; p < n; ++p) got[static_cast<size_t>(p)] = csr->Row(p);
      EXPECT_EQ(got, want) << "seed " << seed << " shape "
                           << static_cast<int>(shape)
                           << (keys == &encoded ? " (RLE)" : "");
      // Each key's slice covers exactly its run in the reference order.
      int64_t num_keys = 0;
      for (int64_t p = 0; p < n;) {
        const int64_t key = plain.GetInt64(want[static_cast<size_t>(p)]);
        int64_t end = p;
        while (end < n &&
               plain.GetInt64(want[static_cast<size_t>(end)]) == key) {
          ++end;
        }
        const CsrIndex::Slice slice = csr->NeighborSlice(key);
        EXPECT_EQ(slice.begin, p) << "seed " << seed << " key " << key;
        EXPECT_EQ(slice.end, end) << "seed " << seed << " key " << key;
        ++num_keys;
        p = end;
      }
      EXPECT_EQ(csr->num_keys(), num_keys) << "seed " << seed;
      EXPECT_TRUE(csr->CheckInvariants(*keys).ok()) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace vertexica
