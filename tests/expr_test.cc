// Unit tests for scalar expression evaluation.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "expr/expression.h"

namespace vertexica {
namespace {

Table NumBatch() {
  Table t(Schema({{"a", DataType::kInt64},
                  {"b", DataType::kInt64},
                  {"x", DataType::kDouble}}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{1}), Value(int64_t{10}), Value(0.5)}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{2}), Value(int64_t{20}), Value(1.5)}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{3}), Value(int64_t{30}), Value(2.5)}));
  return t;
}

TEST(ExprTest, ColumnRef) {
  Table t = NumBatch();
  auto col = Col("b")->Evaluate(t);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(col->GetInt64(2), 30);
}

TEST(ExprTest, UnknownColumnFails) {
  Table t = NumBatch();
  EXPECT_TRUE(Col("nope")->Evaluate(t).status().IsInvalidArgument());
  EXPECT_TRUE(
      Col("nope")->OutputType(t.schema()).status().IsInvalidArgument());
}

TEST(ExprTest, LiteralBroadcasts) {
  Table t = NumBatch();
  auto col = Lit(int64_t{7})->Evaluate(t);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(col->length(), 3);
  EXPECT_EQ(col->GetInt64(0), 7);
  EXPECT_EQ(col->GetInt64(2), 7);
}

TEST(ExprTest, IntArithmeticStaysInt) {
  Table t = NumBatch();
  auto e = Add(Col("a"), Col("b"));
  ASSERT_TRUE(e->OutputType(t.schema()).ok());
  EXPECT_EQ(*e->OutputType(t.schema()), DataType::kInt64);
  auto col = e->Evaluate(t);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(col->GetInt64(1), 22);
}

TEST(ExprTest, MixedArithmeticPromotesToDouble) {
  Table t = NumBatch();
  auto e = Mul(Col("a"), Col("x"));
  EXPECT_EQ(*e->OutputType(t.schema()), DataType::kDouble);
  auto col = e->Evaluate(t);
  ASSERT_TRUE(col.ok());
  EXPECT_DOUBLE_EQ(col->GetDouble(2), 7.5);
}

TEST(ExprTest, DivisionAlwaysDouble) {
  Table t = NumBatch();
  auto e = Div(Col("b"), Col("a"));
  EXPECT_EQ(*e->OutputType(t.schema()), DataType::kDouble);
  auto col = e->Evaluate(t);
  EXPECT_DOUBLE_EQ(col->GetDouble(1), 10.0);
}

TEST(ExprTest, ModuloInt) {
  Table t = NumBatch();
  auto col = Mod(Col("b"), Lit(int64_t{7}))->Evaluate(t);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(col->GetInt64(0), 3);   // 10 % 7
  EXPECT_EQ(col->GetInt64(2), 2);   // 30 % 7
}

TEST(ExprTest, ArithmeticOnStringIsTypeError) {
  Schema s({{"s", DataType::kString}});
  auto e = Add(Col("s"), Lit(int64_t{1}));
  EXPECT_TRUE(e->OutputType(s).status().IsTypeError());
}

TEST(ExprTest, Comparisons) {
  Table t = NumBatch();
  auto col = Gt(Col("b"), Lit(int64_t{15}))->Evaluate(t);
  ASSERT_TRUE(col.ok());
  EXPECT_FALSE(col->GetBool(0));
  EXPECT_TRUE(col->GetBool(1));
  EXPECT_TRUE(col->GetBool(2));
}

TEST(ExprTest, CrossTypeNumericComparison) {
  Table t = NumBatch();
  auto col = Lt(Col("a"), Col("x"))->Evaluate(t);  // int vs double
  ASSERT_TRUE(col.ok());
  EXPECT_FALSE(col->GetBool(0));  // 1 < 0.5 ? no
  EXPECT_FALSE(col->GetBool(1));  // 2 < 1.5 ? no
  EXPECT_FALSE(col->GetBool(2));  // 3 < 2.5 ? no
}

TEST(ExprTest, StringComparison) {
  Table t(Schema({{"s", DataType::kString}}));
  VX_CHECK_OK(t.AppendRow({Value("apple")}));
  VX_CHECK_OK(t.AppendRow({Value("pear")}));
  auto col = Eq(Col("s"), Lit(std::string("pear")))->Evaluate(t);
  ASSERT_TRUE(col.ok());
  EXPECT_FALSE(col->GetBool(0));
  EXPECT_TRUE(col->GetBool(1));
}

TEST(ExprTest, CompareStringWithIntFails) {
  Schema s({{"s", DataType::kString}});
  EXPECT_TRUE(Eq(Col("s"), Lit(int64_t{1}))->OutputType(s).status().IsTypeError());
}

TEST(ExprTest, NullPropagationInArithmetic) {
  Table t(Schema({{"a", DataType::kInt64}}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{1})}));
  VX_CHECK_OK(t.AppendRow({Value::Null()}));
  auto col = Add(Col("a"), Lit(int64_t{1}))->Evaluate(t);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(col->GetInt64(0), 2);
  EXPECT_TRUE(col->IsNull(1));
}

TEST(ExprTest, KleeneAnd) {
  Table t(Schema({{"p", DataType::kBool}, {"q", DataType::kBool}}));
  VX_CHECK_OK(t.AppendRow({Value(false), Value::Null()}));
  VX_CHECK_OK(t.AppendRow({Value(true), Value::Null()}));
  VX_CHECK_OK(t.AppendRow({Value(true), Value(true)}));
  auto col = And(Col("p"), Col("q"))->Evaluate(t);
  ASSERT_TRUE(col.ok());
  EXPECT_FALSE(col->GetBool(0));   // false AND NULL = false
  EXPECT_FALSE(col->IsNull(0));
  EXPECT_TRUE(col->IsNull(1));     // true AND NULL = NULL
  EXPECT_TRUE(col->GetBool(2));
}

TEST(ExprTest, KleeneOr) {
  Table t(Schema({{"p", DataType::kBool}, {"q", DataType::kBool}}));
  VX_CHECK_OK(t.AppendRow({Value(true), Value::Null()}));
  VX_CHECK_OK(t.AppendRow({Value(false), Value::Null()}));
  auto col = Or(Col("p"), Col("q"))->Evaluate(t);
  ASSERT_TRUE(col.ok());
  EXPECT_TRUE(col->GetBool(0));    // true OR NULL = true
  EXPECT_TRUE(col->IsNull(1));     // false OR NULL = NULL
}

TEST(ExprTest, NotAndIsNull) {
  Table t(Schema({{"p", DataType::kBool}}));
  VX_CHECK_OK(t.AppendRow({Value(true)}));
  VX_CHECK_OK(t.AppendRow({Value::Null()}));
  auto ncol = Not(Col("p"))->Evaluate(t);
  ASSERT_TRUE(ncol.ok());
  EXPECT_FALSE(ncol->GetBool(0));
  EXPECT_TRUE(ncol->IsNull(1));
  auto inul = IsNull(Col("p"))->Evaluate(t);
  EXPECT_FALSE(inul->GetBool(0));
  EXPECT_TRUE(inul->GetBool(1));
  auto notnull = IsNotNull(Col("p"))->Evaluate(t);
  EXPECT_TRUE(notnull->GetBool(0));
  EXPECT_FALSE(notnull->GetBool(1));
}

TEST(ExprTest, NegateAndAbs) {
  Table t = NumBatch();
  auto ncol = Negate(Col("a"))->Evaluate(t);
  EXPECT_EQ(ncol->GetInt64(0), -1);
  auto acol = Abs(Negate(Col("x")))->Evaluate(t);
  EXPECT_DOUBLE_EQ(acol->GetDouble(0), 0.5);
}

TEST(ExprTest, CastIntToDoubleAndBack) {
  Table t = NumBatch();
  auto dcol = Cast(Col("a"), DataType::kDouble)->Evaluate(t);
  EXPECT_EQ(dcol->type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(dcol->GetDouble(2), 3.0);
  auto icol = Cast(Col("x"), DataType::kInt64)->Evaluate(t);
  EXPECT_EQ(icol->GetInt64(1), 1);  // trunc(1.5)
}

TEST(ExprTest, CastToString) {
  Table t = NumBatch();
  auto scol = Cast(Col("a"), DataType::kString)->Evaluate(t);
  EXPECT_EQ(scol->GetString(0), "1");
}

TEST(ExprTest, CastBoolToInt) {
  Table t(Schema({{"p", DataType::kBool}}));
  VX_CHECK_OK(t.AppendRow({Value(true)}));
  VX_CHECK_OK(t.AppendRow({Value(false)}));
  auto col = Cast(Col("p"), DataType::kInt64)->Evaluate(t);
  EXPECT_EQ(col->GetInt64(0), 1);
  EXPECT_EQ(col->GetInt64(1), 0);
}

TEST(ExprTest, ToStringRendersSql) {
  auto e = And(Gt(Col("rank"), Lit(0.5)), Eq(Col("type"), Lit(std::string("family"))));
  EXPECT_EQ(e->ToString(), "((rank > 0.5) AND (type = 'family'))");
}

TEST(ExprTest, NestedExpression) {
  Table t = NumBatch();
  // (a + b) * 2 - a
  auto e = Sub(Mul(Add(Col("a"), Col("b")), Lit(int64_t{2})), Col("a"));
  auto col = e->Evaluate(t);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(col->GetInt64(0), 21);
  EXPECT_EQ(col->GetInt64(2), 63);
}

TEST(ExprTest, DivByZeroYieldsInf) {
  Table t(Schema({{"a", DataType::kDouble}}));
  VX_CHECK_OK(t.AppendRow({Value(1.0)}));
  auto col = Div(Col("a"), Lit(0.0))->Evaluate(t);
  ASSERT_TRUE(col.ok());
  EXPECT_TRUE(std::isinf(col->GetDouble(0)));
}


// ---------------------------------------------------------------------------
// INT64 arithmetic is defined for every input: + - * wrap in two's
// complement and a zero or -1 divisor gives 0 (INT64_MIN % -1 used to raise
// SIGFPE). Casting a DOUBLE that has no INT64 value fails instead of
// invoking undefined behaviour.
// ---------------------------------------------------------------------------

constexpr int64_t kMin64 = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax64 = std::numeric_limits<int64_t>::max();

Table ExtremeInts() {
  Table t(Schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}}));
  VX_CHECK_OK(t.AppendRow({Value(kMin64), Value(int64_t{-1})}));
  VX_CHECK_OK(t.AppendRow({Value(kMax64), Value(int64_t{1})}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{7}), Value(int64_t{0})}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{-7}), Value(int64_t{-1})}));
  VX_CHECK_OK(t.AppendRow({Value(int64_t{-7}), Value(int64_t{3})}));
  return t;
}

TEST(ExprTest, ModByMinusOneAndZeroIsZero) {
  const Table t = ExtremeInts();
  auto col = Mod(Col("a"), Col("b"))->Evaluate(t);
  ASSERT_TRUE(col.ok()) << col.status().ToString();
  EXPECT_EQ(col->GetInt64(0), 0);   // INT64_MIN % -1
  EXPECT_EQ(col->GetInt64(1), 0);   // INT64_MAX % 1
  EXPECT_EQ(col->GetInt64(2), 0);   // 7 % 0
  EXPECT_EQ(col->GetInt64(3), 0);   // -7 % -1
  EXPECT_EQ(col->GetInt64(4), -1);  // truncated toward zero
  auto lit = Mod(Lit(kMin64), Lit(int64_t{-1}))->Evaluate(t);
  ASSERT_TRUE(lit.ok());
  EXPECT_EQ(lit->GetInt64(0), 0);
}

TEST(ExprTest, IntArithmeticWrapsOnOverflow) {
  const Table t = ExtremeInts();
  auto sum = Add(Col("a"), Col("b"))->Evaluate(t);
  auto diff = Sub(Col("a"), Col("b"))->Evaluate(t);
  auto prod = Mul(Col("a"), Col("b"))->Evaluate(t);
  ASSERT_TRUE(sum.ok() && diff.ok() && prod.ok());
  EXPECT_EQ(sum->GetInt64(0), kMax64);   // MIN + -1
  EXPECT_EQ(sum->GetInt64(1), kMin64);   // MAX + 1
  EXPECT_EQ(diff->GetInt64(0), kMin64 + 1);
  EXPECT_EQ(diff->GetInt64(1), kMax64 - 1);
  EXPECT_EQ(prod->GetInt64(0), kMin64);  // MIN * -1 wraps to MIN
  EXPECT_EQ(prod->GetInt64(1), kMax64);
  auto square = Mul(Col("a"), Col("a"))->Evaluate(t);
  ASSERT_TRUE(square.ok());
  EXPECT_EQ(square->GetInt64(1), 1);  // (2^63 - 1)^2 mod 2^64
  auto neg = Negate(Col("a"))->Evaluate(t);
  auto abs = Abs(Col("a"))->Evaluate(t);
  ASSERT_TRUE(neg.ok() && abs.ok());
  EXPECT_EQ(neg->GetInt64(0), kMin64);
  EXPECT_EQ(abs->GetInt64(0), kMin64);
  EXPECT_EQ(abs->GetInt64(3), 7);
}

TEST(ExprTest, CastOfUnrepresentableDoubleFails) {
  const double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), kInf,
                           -kInf, 9223372036854775808.0, -1e19}) {
    Table t(Schema({{"x", DataType::kDouble}}));
    VX_CHECK_OK(t.AppendRow({Value(1.5)}));
    VX_CHECK_OK(t.AppendRow({Value(bad)}));
    auto col = Cast(Col("x"), DataType::kInt64)->Evaluate(t);
    ASSERT_FALSE(col.ok()) << bad;
    EXPECT_TRUE(col.status().IsInvalidArgument()) << col.status().ToString();
    EXPECT_NE(col.status().ToString().find("not representable as INT64"),
              std::string::npos)
        << col.status().ToString();
  }
  // The range ends themselves: -2^63 is exact, the largest double below
  // 2^63 truncates; NULLs pass through.
  Table t(Schema({{"x", DataType::kDouble}}));
  VX_CHECK_OK(t.AppendRow({Value(-9223372036854775808.0)}));
  VX_CHECK_OK(t.AppendRow({Value(9223372036854774784.0)}));
  VX_CHECK_OK(t.AppendRow({Value(-2.75)}));
  VX_CHECK_OK(t.AppendRow({Value::Null()}));
  auto col = Cast(Col("x"), DataType::kInt64)->Evaluate(t);
  ASSERT_TRUE(col.ok()) << col.status().ToString();
  EXPECT_EQ(col->GetInt64(0), kMin64);
  EXPECT_EQ(col->GetInt64(1), int64_t{9223372036854774784});
  EXPECT_EQ(col->GetInt64(2), -2);
  EXPECT_TRUE(col->IsNull(3));
}

// ---------------------------------------------------------------------------
// The typed kernels keep the row-wise results: a column reference is read
// in place, literals broadcast (NULL literals too), DOUBLE = DOUBLE uses
// the storage total order while mixed comparisons widen, and
// COALESCE/CASE keep NULLs and widen INT64 branches.
// ---------------------------------------------------------------------------

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(ExprTest, ColumnRefBorrowsAndLiteralsBroadcast) {
  const Table t = NumBatch();
  EXPECT_EQ(Col("b")->Borrow(t), &t.column(1));
  EXPECT_EQ(Col("nope")->Borrow(t), nullptr);
  EXPECT_EQ(Lit(int64_t{1})->Borrow(t), nullptr);
  auto d = Lit(0.25)->Evaluate(t);
  auto s = Lit(std::string("v"))->Evaluate(t);
  auto b = Lit(true)->Evaluate(t);
  auto n = NullLit(DataType::kDouble)->Evaluate(t);
  ASSERT_TRUE(d.ok() && s.ok() && b.ok() && n.ok());
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(d->GetDouble(i), 0.25);
    EXPECT_EQ(s->GetString(i), "v");
    EXPECT_TRUE(b->GetBool(i));
    EXPECT_TRUE(n->IsNull(i));
  }
  EXPECT_EQ(n->null_count(), 3);
  // A DOUBLE literal built from an INT64 value widens like AppendValue.
  auto widened = std::make_shared<LiteralExpr>(Value(int64_t{3}),
                                               DataType::kDouble)
                     ->Evaluate(t);
  ASSERT_TRUE(widened.ok());
  EXPECT_EQ(widened->GetDouble(2), 3.0);
}

TEST(ExprTest, DoubleComparisonsUseTheTotalOrderMixedOnesWiden) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  Table t(Schema({{"x", DataType::kDouble},
                  {"y", DataType::kDouble},
                  {"i", DataType::kInt64}}));
  VX_CHECK_OK(t.AppendRow({Value(kNaN), Value(kNaN), Value(int64_t{1})}));
  VX_CHECK_OK(t.AppendRow({Value(kNaN), Value(1.0), Value(int64_t{1})}));
  VX_CHECK_OK(t.AppendRow({Value(-0.0), Value(0.0), Value(int64_t{0})}));
  VX_CHECK_OK(t.AppendRow({Value::Null(), Value(1.0), Value(int64_t{1})}));
  auto eq = Eq(Col("x"), Col("y"))->Evaluate(t);
  auto gt = Gt(Col("x"), Col("y"))->Evaluate(t);
  auto mixed_eq = Eq(Col("x"), Col("i"))->Evaluate(t);
  auto mixed_gt = Gt(Col("i"), Col("x"))->Evaluate(t);
  ASSERT_TRUE(eq.ok() && gt.ok() && mixed_eq.ok() && mixed_gt.ok());
  EXPECT_TRUE(eq->GetBool(0));   // NaN = NaN in the total order
  EXPECT_TRUE(gt->GetBool(1));   // NaN sorts last
  EXPECT_TRUE(eq->GetBool(2));   // -0.0 = 0.0
  EXPECT_TRUE(eq->IsNull(3));
  EXPECT_TRUE(mixed_eq->GetBool(1));   // widened: NaN compares equal
  EXPECT_FALSE(mixed_gt->GetBool(1));
  EXPECT_TRUE(mixed_eq->GetBool(2));
  EXPECT_TRUE(mixed_eq->IsNull(3));
}

TEST(ExprTest, CoalesceAndIfKeepNullsAndWiden) {
  Table t(Schema({{"x", DataType::kDouble},
                  {"i", DataType::kInt64},
                  {"p", DataType::kBool}}));
  VX_CHECK_OK(t.AppendRow({Value(-0.0), Value(int64_t{5}), Value(true)}));
  VX_CHECK_OK(t.AppendRow({Value::Null(), Value(int64_t{6}), Value(false)}));
  VX_CHECK_OK(t.AppendRow({Value::Null(), Value::Null(), Value::Null()}));
  auto co = Coalesce(Col("x"), Col("i"))->Evaluate(t);
  ASSERT_TRUE(co.ok());
  EXPECT_EQ(co->type(), DataType::kDouble);
  EXPECT_TRUE(SameBits(co->GetDouble(0), -0.0));
  EXPECT_EQ(co->GetDouble(1), 6.0);
  EXPECT_TRUE(co->IsNull(2));
  EXPECT_EQ(co->null_count(), 1);
  auto pick = If(Col("p"), Col("i"), Col("x"))->Evaluate(t);
  ASSERT_TRUE(pick.ok());
  EXPECT_EQ(pick->GetDouble(0), 5.0);
  EXPECT_TRUE(pick->IsNull(1));  // else branch is NULL
  EXPECT_TRUE(pick->IsNull(2));  // NULL condition takes the else branch
  auto ints = If(Col("p"), Col("i"), Lit(int64_t{-1}))->Evaluate(t);
  ASSERT_TRUE(ints.ok());
  EXPECT_EQ(ints->type(), DataType::kInt64);
  EXPECT_EQ(ints->GetInt64(0), 5);
  EXPECT_EQ(ints->GetInt64(1), -1);
  EXPECT_EQ(ints->GetInt64(2), -1);
  EXPECT_EQ(ints->null_count(), 0);
}

}  // namespace
}  // namespace vertexica
