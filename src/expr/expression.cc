#include "expr/expression.h"

#include <cmath>
#include <type_traits>

#include "common/int_arith.h"
#include "common/string_util.h"
#include "storage/encoding.h"

namespace vertexica {

namespace {

bool IsArithmetic(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kMod:
      return true;
    default:
      return false;
  }
}

bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

/// `expr` over `batch`: the batch's own column for a column reference,
/// else the evaluated column, kept in `*storage`.
Result<const Column*> EvaluateBorrowed(const Expr& expr, const Table& batch,
                                       Column* storage) {
  if (const Column* col = expr.Borrow(batch)) return col;
  VX_ASSIGN_OR_RETURN(*storage, expr.Evaluate(batch));
  return storage;
}

/// Calls `f` with the typed values of a numeric column.
template <typename F>
void VisitNumeric(const Column& col, const F& f) {
  if (col.type() == DataType::kInt64) {
    f(col.ints().data());
  } else {
    f(col.doubles().data());
  }
}

/// out[i] = f(a[i], b[i]) for i in [0, n).
template <typename A, typename B, typename R, typename F>
void MapRows(const A* a, const B* b, R* out, int64_t n, F f) {
  for (int64_t i = 0; i < n; ++i) out[i] = f(a[i], b[i]);
}

void IntArithRows(BinaryOp op, const int64_t* a, const int64_t* b,
                  int64_t* out, int64_t n) {
  switch (op) {
    case BinaryOp::kAdd:
      MapRows(a, b, out, n, WrappingAdd);
      break;
    case BinaryOp::kSub:
      MapRows(a, b, out, n, WrappingSub);
      break;
    case BinaryOp::kMul:
      MapRows(a, b, out, n, WrappingMul);
      break;
    case BinaryOp::kMod:
      MapRows(a, b, out, n, SafeMod);
      break;
    default:  // kDiv is DOUBLE-valued; never here
      break;
  }
}

/// DOUBLE arithmetic; INT64 operands are widened with static_cast<double>.
template <typename A, typename B>
void DoubleArithRows(BinaryOp op, const A* a, const B* b, double* out,
                     int64_t n) {
  const auto d = [](auto x) { return static_cast<double>(x); };
  switch (op) {
    case BinaryOp::kAdd:
      MapRows(a, b, out, n, [d](A x, B y) { return d(x) + d(y); });
      break;
    case BinaryOp::kSub:
      MapRows(a, b, out, n, [d](A x, B y) { return d(x) - d(y); });
      break;
    case BinaryOp::kMul:
      MapRows(a, b, out, n, [d](A x, B y) { return d(x) * d(y); });
      break;
    case BinaryOp::kDiv:
      MapRows(a, b, out, n, [d](A x, B y) { return d(x) / d(y); });
      break;
    case BinaryOp::kMod:
      MapRows(a, b, out, n, [d](A x, B y) { return std::fmod(d(x), d(y)); });
      break;
    default:
      break;
  }
}

/// Three-way numeric comparison: INT64 pairs exactly, DOUBLE pairs in the
/// storage total order (Column::CompareRows), mixed pairs on the widened
/// values with `<` / `>` (NaN then compares equal to everything).
template <typename A, typename B>
int CompareNumeric(A a, B b) {
  if constexpr (std::is_same_v<A, int64_t> && std::is_same_v<B, int64_t>) {
    return a < b ? -1 : (a > b ? 1 : 0);
  } else if constexpr (std::is_same_v<A, double> &&
                       std::is_same_v<B, double>) {
    return TotalOrderCompareDoubles(a, b);
  } else {
    const auto x = static_cast<double>(a);
    const auto y = static_cast<double>(b);
    return x < y ? -1 : (x > y ? 1 : 0);
  }
}

/// 1 where both columns are non-NULL; empty when neither has a NULL.
std::vector<uint8_t> BothValid(const Column& a, const Column& b, int64_t n) {
  std::vector<uint8_t> valid;
  if (a.null_count() == 0 && b.null_count() == 0) return valid;
  valid.resize(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    valid[static_cast<size_t>(i)] = !a.IsNull(i) && !b.IsNull(i) ? 1 : 0;
  }
  return valid;
}

/// `out` with the NULLs of `valid` (no-op when it is empty).
Column WithValidity(Column out, std::vector<uint8_t> valid) {
  if (!valid.empty()) out.SetValidity(std::move(valid));
  return out;
}

/// Numeric arithmetic, column at a time.
Column ArithColumn(BinaryOp op, DataType out_type, const Column& lhs,
                   const Column& rhs, int64_t n) {
  const auto rows = static_cast<size_t>(n);
  if (out_type == DataType::kInt64) {
    std::vector<int64_t> out(rows);
    IntArithRows(op, lhs.ints().data(), rhs.ints().data(), out.data(), n);
    return WithValidity(Column::FromInts(std::move(out)),
                        BothValid(lhs, rhs, n));
  }
  std::vector<double> out(rows);
  VisitNumeric(lhs, [&](const auto* a) {
    VisitNumeric(rhs, [&](const auto* b) {
      DoubleArithRows(op, a, b, out.data(), n);
    });
  });
  return WithValidity(Column::FromDoubles(std::move(out)),
                      BothValid(lhs, rhs, n));
}

/// Numeric comparison, column at a time.
Column CompareColumn(BinaryOp op, const Column& lhs, const Column& rhs,
                     int64_t n) {
  std::vector<uint8_t> out(static_cast<size_t>(n));
  VisitNumeric(lhs, [&](const auto* a) {
    VisitNumeric(rhs, [&](const auto* b) {
      using A = std::remove_cv_t<std::remove_pointer_t<decltype(a)>>;
      using B = std::remove_cv_t<std::remove_pointer_t<decltype(b)>>;
      const auto rows = [&](auto pred) {
        MapRows(a, b, out.data(), n, [pred](A x, B y) -> uint8_t {
          return pred(CompareNumeric(x, y)) ? 1 : 0;
        });
      };
      switch (op) {
        case BinaryOp::kEq:
          rows([](int c) { return c == 0; });
          break;
        case BinaryOp::kNe:
          rows([](int c) { return c != 0; });
          break;
        case BinaryOp::kLt:
          rows([](int c) { return c < 0; });
          break;
        case BinaryOp::kLe:
          rows([](int c) { return c <= 0; });
          break;
        case BinaryOp::kGt:
          rows([](int c) { return c > 0; });
          break;
        case BinaryOp::kGe:
          rows([](int c) { return c >= 0; });
          break;
        default:
          break;
      }
    });
  });
  return WithValidity(Column::FromBools(std::move(out)),
                      BothValid(lhs, rhs, n));
}

bool ApplyCompare(BinaryOp op, int cmp) {
  switch (op) {
    case BinaryOp::kEq:
      return cmp == 0;
    case BinaryOp::kNe:
      return cmp != 0;
    case BinaryOp::kLt:
      return cmp < 0;
    case BinaryOp::kLe:
      return cmp <= 0;
    case BinaryOp::kGt:
      return cmp > 0;
    case BinaryOp::kGe:
      return cmp >= 0;
    default:
      return false;
  }
}

}  // namespace

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kMod:
      return "%";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
  }
  return "?";
}

// ---------------------------------------------------------------- ColumnRef

Result<Column> ColumnRefExpr::Evaluate(const Table& batch) const {
  const Column* col = batch.ColumnByName(name_);
  if (col == nullptr) {
    return Status::InvalidArgument("Unknown column '" + name_ + "' in " +
                                   batch.schema().ToString());
  }
  return *col;
}

Result<DataType> ColumnRefExpr::OutputType(const Schema& schema) const {
  const int idx = schema.FieldIndex(name_);
  if (idx < 0) {
    return Status::InvalidArgument("Unknown column '" + name_ + "' in " +
                                   schema.ToString());
  }
  return schema.field(idx).type;
}

// ------------------------------------------------------------------ Literal

Result<Column> LiteralExpr::Evaluate(const Table& batch) const {
  const auto n = static_cast<size_t>(batch.num_rows());
  // The constant as the column stores it (AppendValue's conversions),
  // then broadcast.
  Column one(type_);
  one.AppendValue(value_);
  Column out(type_);
  switch (type_) {
    case DataType::kInt64:
      out = Column::FromInts(std::vector<int64_t>(n, one.ints()[0]));
      break;
    case DataType::kDouble:
      out = Column::FromDoubles(std::vector<double>(n, one.doubles()[0]));
      break;
    case DataType::kString:
      out = Column::FromStrings(std::vector<std::string>(n, one.strings()[0]));
      break;
    case DataType::kBool:
      out = Column::FromBools(std::vector<uint8_t>(n, one.bools()[0]));
      break;
  }
  if (value_.is_null()) out.SetValidity(std::vector<uint8_t>(n, 0));
  return out;
}

Result<DataType> LiteralExpr::OutputType(const Schema&) const { return type_; }

// ------------------------------------------------------------------- Binary

Result<DataType> BinaryExpr::OutputType(const Schema& schema) const {
  VX_ASSIGN_OR_RETURN(DataType lt, left_->OutputType(schema));
  VX_ASSIGN_OR_RETURN(DataType rt, right_->OutputType(schema));
  if (IsArithmetic(op_)) {
    if (!IsNumeric(lt) || !IsNumeric(rt)) {
      return Status::TypeError(StringFormat(
          "Arithmetic '%s' requires numeric operands, got %s and %s",
          BinaryOpName(op_), DataTypeName(lt), DataTypeName(rt)));
    }
    if (op_ == BinaryOp::kDiv) return DataType::kDouble;
    return (lt == DataType::kDouble || rt == DataType::kDouble)
               ? DataType::kDouble
               : DataType::kInt64;
  }
  if (IsComparison(op_)) {
    const bool both_numeric = IsNumeric(lt) && IsNumeric(rt);
    if (lt != rt && !both_numeric) {
      return Status::TypeError(StringFormat(
          "Cannot compare %s with %s", DataTypeName(lt), DataTypeName(rt)));
    }
    return DataType::kBool;
  }
  // AND / OR
  if (lt != DataType::kBool || rt != DataType::kBool) {
    return Status::TypeError(StringFormat(
        "'%s' requires BOOL operands, got %s and %s", BinaryOpName(op_),
        DataTypeName(lt), DataTypeName(rt)));
  }
  return DataType::kBool;
}

Result<Column> BinaryExpr::Evaluate(const Table& batch) const {
  VX_ASSIGN_OR_RETURN(DataType out_type, OutputType(batch.schema()));
  Column lstore;
  Column rstore;
  VX_ASSIGN_OR_RETURN(const Column* lp,
                      EvaluateBorrowed(*left_, batch, &lstore));
  VX_ASSIGN_OR_RETURN(const Column* rp,
                      EvaluateBorrowed(*right_, batch, &rstore));
  const Column& lhs = *lp;
  const Column& rhs = *rp;
  const int64_t n = batch.num_rows();

  // OutputType admits numeric operands only for arithmetic.
  if (IsArithmetic(op_)) return ArithColumn(op_, out_type, lhs, rhs, n);
  if (IsComparison(op_) && IsNumeric(lhs.type()) && IsNumeric(rhs.type())) {
    return CompareColumn(op_, lhs, rhs, n);
  }

  Column out(out_type);
  out.Reserve(n);
  if (IsComparison(op_)) {  // STRING or BOOL operands of one type
    for (int64_t i = 0; i < n; ++i) {
      if (lhs.IsNull(i) || rhs.IsNull(i)) {
        out.AppendNull();
        continue;
      }
      out.AppendBool(ApplyCompare(op_, lhs.CompareRows(i, rhs, i)));
    }
    return out;
  }

  // AND / OR with Kleene semantics.
  for (int64_t i = 0; i < n; ++i) {
    const bool ln = lhs.IsNull(i);
    const bool rn = rhs.IsNull(i);
    const bool lv = ln ? false : lhs.GetBool(i);
    const bool rv = rn ? false : rhs.GetBool(i);
    if (op_ == BinaryOp::kAnd) {
      if ((!ln && !lv) || (!rn && !rv)) {
        out.AppendBool(false);
      } else if (ln || rn) {
        out.AppendNull();
      } else {
        out.AppendBool(true);
      }
    } else {  // OR
      if ((!ln && lv) || (!rn && rv)) {
        out.AppendBool(true);
      } else if (ln || rn) {
        out.AppendNull();
      } else {
        out.AppendBool(false);
      }
    }
  }
  return out;
}

std::string BinaryExpr::ToString() const {
  return "(" + left_->ToString() + " " + BinaryOpName(op_) + " " +
         right_->ToString() + ")";
}

void BinaryExpr::CollectColumnRefs(std::vector<std::string>* out) const {
  left_->CollectColumnRefs(out);
  right_->CollectColumnRefs(out);
}

// -------------------------------------------------------------------- Unary

Result<DataType> UnaryExpr::OutputType(const Schema& schema) const {
  VX_ASSIGN_OR_RETURN(DataType t, input_->OutputType(schema));
  switch (op_) {
    case UnaryOp::kNot:
      if (t != DataType::kBool) {
        return Status::TypeError("NOT requires BOOL");
      }
      return DataType::kBool;
    case UnaryOp::kNegate:
    case UnaryOp::kAbs:
      if (!IsNumeric(t)) {
        return Status::TypeError("Numeric unary op requires numeric input");
      }
      return t;
    case UnaryOp::kIsNull:
    case UnaryOp::kIsNotNull:
      return DataType::kBool;
  }
  return Status::Internal("bad unary op");
}

Result<Column> UnaryExpr::Evaluate(const Table& batch) const {
  VX_ASSIGN_OR_RETURN(DataType out_type, OutputType(batch.schema()));
  Column store;
  VX_ASSIGN_OR_RETURN(const Column* in_col,
                      EvaluateBorrowed(*input_, batch, &store));
  const Column& in = *in_col;
  const int64_t n = in.length();
  Column out(out_type);
  out.Reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    switch (op_) {
      case UnaryOp::kIsNull:
        out.AppendBool(in.IsNull(i));
        break;
      case UnaryOp::kIsNotNull:
        out.AppendBool(!in.IsNull(i));
        break;
      case UnaryOp::kNot:
        if (in.IsNull(i)) {
          out.AppendNull();
        } else {
          out.AppendBool(!in.GetBool(i));
        }
        break;
      case UnaryOp::kNegate:
        if (in.IsNull(i)) {
          out.AppendNull();
        } else if (in.type() == DataType::kInt64) {
          out.AppendInt64(WrappingSub(0, in.GetInt64(i)));
        } else {
          out.AppendDouble(-in.GetDouble(i));
        }
        break;
      case UnaryOp::kAbs:
        if (in.IsNull(i)) {
          out.AppendNull();
        } else if (in.type() == DataType::kInt64) {
          const int64_t v = in.GetInt64(i);
          out.AppendInt64(v < 0 ? WrappingSub(0, v) : v);
        } else {
          out.AppendDouble(std::fabs(in.GetDouble(i)));
        }
        break;
    }
  }
  return out;
}

std::string UnaryExpr::ToString() const {
  switch (op_) {
    case UnaryOp::kNot:
      return "NOT " + input_->ToString();
    case UnaryOp::kNegate:
      return "-" + input_->ToString();
    case UnaryOp::kIsNull:
      return input_->ToString() + " IS NULL";
    case UnaryOp::kIsNotNull:
      return input_->ToString() + " IS NOT NULL";
    case UnaryOp::kAbs:
      return "ABS(" + input_->ToString() + ")";
  }
  return "?";
}

void UnaryExpr::CollectColumnRefs(std::vector<std::string>* out) const {
  input_->CollectColumnRefs(out);
}

// --------------------------------------------------------------------- Cast

Result<DataType> CastExpr::OutputType(const Schema& schema) const {
  VX_ASSIGN_OR_RETURN(DataType t, input_->OutputType(schema));
  if (t == to_) return to_;
  if (to_ == DataType::kString) return to_;  // anything renders to string
  if (IsNumeric(t) && IsNumeric(to_)) return to_;
  if (t == DataType::kBool && to_ == DataType::kInt64) return to_;
  return Status::TypeError(StringFormat("Cannot cast %s to %s",
                                        DataTypeName(t), DataTypeName(to_)));
}

Result<Column> CastExpr::Evaluate(const Table& batch) const {
  VX_RETURN_NOT_OK(OutputType(batch.schema()).status());
  Column store;
  VX_ASSIGN_OR_RETURN(const Column* in_col,
                      EvaluateBorrowed(*input_, batch, &store));
  const Column& in = *in_col;
  if (in.type() == to_) return in;
  Column out(to_);
  out.Reserve(in.length());
  for (int64_t i = 0; i < in.length(); ++i) {
    if (in.IsNull(i)) {
      out.AppendNull();
      continue;
    }
    switch (to_) {
      case DataType::kInt64:
        if (in.type() == DataType::kBool) {
          out.AppendInt64(in.GetBool(i) ? 1 : 0);
        } else {
          // Truncation is defined only for finite doubles in
          // [-2^63, 2^63); NaN fails both comparisons.
          const double d = in.GetDouble(i);
          if (!(d >= -9223372036854775808.0 && d < 9223372036854775808.0)) {
            return Status::InvalidArgument(StringFormat(
                "%s: %.17g is not representable as INT64",
                ToString().c_str(), d));
          }
          out.AppendInt64(static_cast<int64_t>(d));
        }
        break;
      case DataType::kDouble:
        out.AppendDouble(in.GetNumeric(i));
        break;
      case DataType::kString: {
        Value v = in.GetValue(i);
        out.AppendString(v.is_string() ? v.string_value() : v.ToString());
        break;
      }
      case DataType::kBool:
        return Status::TypeError("Cannot cast to BOOL");
    }
  }
  return out;
}

std::string CastExpr::ToString() const {
  return StringFormat("CAST(%s AS %s)", input_->ToString().c_str(),
                      DataTypeName(to_));
}

void CastExpr::CollectColumnRefs(std::vector<std::string>* out) const {
  input_->CollectColumnRefs(out);
}

// ----------------------------------------------------------------------- If

namespace {
/// Common branch type for If/Coalesce: equal types, or promoted numeric.
Result<DataType> BranchType(DataType a, DataType b, const char* what) {
  if (a == b) return a;
  if (IsNumeric(a) && IsNumeric(b)) return DataType::kDouble;
  return Status::TypeError(StringFormat("%s branches have types %s and %s",
                                        what, DataTypeName(a),
                                        DataTypeName(b)));
}

void AppendCoerced(Column* out, const Column& in, int64_t i) {
  if (in.IsNull(i)) {
    out->AppendNull();
  } else if (out->type() == DataType::kDouble &&
             in.type() == DataType::kInt64) {
    out->AppendDouble(static_cast<double>(in.GetInt64(i)));
  } else {
    out->AppendValue(in.GetValue(i));
  }
}

/// Row i of `a` where take_a(i), else row i of `b`, as T (INT64 widened
/// with static_cast<double> for a DOUBLE result) — AppendCoerced's rows,
/// column at a time.
template <typename T, typename A, typename B, typename TakeA>
Column SelectRows(const Column& a, const A* x, const Column& b, const B* y,
                  int64_t n, const TakeA& take_a) {
  std::vector<T> values(static_cast<size_t>(n));
  std::vector<uint8_t> valid(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const auto r = static_cast<size_t>(i);
    if (take_a(i)) {
      values[r] = static_cast<T>(x[i]);
      valid[r] = a.IsNull(i) ? 0 : 1;
    } else {
      values[r] = static_cast<T>(y[i]);
      valid[r] = b.IsNull(i) ? 0 : 1;
    }
  }
  Column out;
  if constexpr (std::is_same_v<T, int64_t>) {
    out = Column::FromInts(std::move(values));
  } else {
    out = Column::FromDoubles(std::move(values));
  }
  out.SetValidity(std::move(valid));
  return out;
}

/// The typed If/Coalesce kernel for a numeric result; the row path covers
/// STRING and BOOL.
template <typename TakeA>
Column SelectNumeric(DataType out_type, const Column& a, const Column& b,
                     int64_t n, const TakeA& take_a) {
  if (out_type == DataType::kInt64) {  // both branches INT64
    return SelectRows<int64_t>(a, a.ints().data(), b, b.ints().data(), n,
                               take_a);
  }
  Column out;
  VisitNumeric(a, [&](const auto* x) {
    VisitNumeric(b, [&](const auto* y) {
      out = SelectRows<double>(a, x, b, y, n, take_a);
    });
  });
  return out;
}
}  // namespace

Result<DataType> IfExpr::OutputType(const Schema& schema) const {
  VX_ASSIGN_OR_RETURN(DataType ct, cond_->OutputType(schema));
  if (ct != DataType::kBool) {
    return Status::TypeError("CASE condition must be BOOL");
  }
  VX_ASSIGN_OR_RETURN(DataType tt, then_->OutputType(schema));
  VX_ASSIGN_OR_RETURN(DataType et, else_->OutputType(schema));
  return BranchType(tt, et, "CASE");
}

Result<Column> IfExpr::Evaluate(const Table& batch) const {
  VX_ASSIGN_OR_RETURN(DataType out_type, OutputType(batch.schema()));
  Column cstore;
  Column tstore;
  Column estore;
  VX_ASSIGN_OR_RETURN(const Column* cond,
                      EvaluateBorrowed(*cond_, batch, &cstore));
  VX_ASSIGN_OR_RETURN(const Column* thenv,
                      EvaluateBorrowed(*then_, batch, &tstore));
  VX_ASSIGN_OR_RETURN(const Column* elsev,
                      EvaluateBorrowed(*else_, batch, &estore));
  const int64_t n = cond->length();
  const std::vector<uint8_t>& flags = cond->bools();
  const auto take_then = [cond, &flags](int64_t i) {
    return !cond->IsNull(i) && flags[static_cast<size_t>(i)] != 0;
  };
  if (IsNumeric(out_type)) {
    return SelectNumeric(out_type, *thenv, *elsev, n, take_then);
  }
  Column out(out_type);
  out.Reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    AppendCoerced(&out, take_then(i) ? *thenv : *elsev, i);
  }
  return out;
}

std::string IfExpr::ToString() const {
  return "CASE WHEN " + cond_->ToString() + " THEN " + then_->ToString() +
         " ELSE " + else_->ToString() + " END";
}

void IfExpr::CollectColumnRefs(std::vector<std::string>* out) const {
  cond_->CollectColumnRefs(out);
  then_->CollectColumnRefs(out);
  else_->CollectColumnRefs(out);
}

// ------------------------------------------------------------------ Coalesce

Result<DataType> CoalesceExpr::OutputType(const Schema& schema) const {
  VX_ASSIGN_OR_RETURN(DataType a, first_->OutputType(schema));
  VX_ASSIGN_OR_RETURN(DataType b, second_->OutputType(schema));
  return BranchType(a, b, "COALESCE");
}

Result<Column> CoalesceExpr::Evaluate(const Table& batch) const {
  VX_ASSIGN_OR_RETURN(DataType out_type, OutputType(batch.schema()));
  Column astore;
  Column bstore;
  VX_ASSIGN_OR_RETURN(const Column* a,
                      EvaluateBorrowed(*first_, batch, &astore));
  VX_ASSIGN_OR_RETURN(const Column* b,
                      EvaluateBorrowed(*second_, batch, &bstore));
  const int64_t n = a->length();
  const auto take_first = [a](int64_t i) { return !a->IsNull(i); };
  if (IsNumeric(out_type)) {
    return SelectNumeric(out_type, *a, *b, n, take_first);
  }
  Column out(out_type);
  out.Reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    AppendCoerced(&out, take_first(i) ? *a : *b, i);
  }
  return out;
}

std::string CoalesceExpr::ToString() const {
  return "COALESCE(" + first_->ToString() + ", " + second_->ToString() + ")";
}

void CoalesceExpr::CollectColumnRefs(std::vector<std::string>* out) const {
  first_->CollectColumnRefs(out);
  second_->CollectColumnRefs(out);
}

// ---------------------------------------------------------------- Factories

ExprPtr Col(std::string name) {
  return std::make_shared<ColumnRefExpr>(std::move(name));
}
ExprPtr Lit(int64_t v) {
  return std::make_shared<LiteralExpr>(Value(v), DataType::kInt64);
}
ExprPtr Lit(double v) {
  return std::make_shared<LiteralExpr>(Value(v), DataType::kDouble);
}
ExprPtr Lit(bool v) {
  return std::make_shared<LiteralExpr>(Value(v), DataType::kBool);
}
ExprPtr Lit(std::string v) {
  return std::make_shared<LiteralExpr>(Value(std::move(v)), DataType::kString);
}
ExprPtr NullLit(DataType type) {
  return std::make_shared<LiteralExpr>(Value::Null(), type);
}

namespace {
ExprPtr MakeBinary(BinaryOp op, ExprPtr a, ExprPtr b) {
  return std::make_shared<BinaryExpr>(op, std::move(a), std::move(b));
}
}  // namespace

ExprPtr Add(ExprPtr a, ExprPtr b) {
  return MakeBinary(BinaryOp::kAdd, std::move(a), std::move(b));
}
ExprPtr Sub(ExprPtr a, ExprPtr b) {
  return MakeBinary(BinaryOp::kSub, std::move(a), std::move(b));
}
ExprPtr Mul(ExprPtr a, ExprPtr b) {
  return MakeBinary(BinaryOp::kMul, std::move(a), std::move(b));
}
ExprPtr Div(ExprPtr a, ExprPtr b) {
  return MakeBinary(BinaryOp::kDiv, std::move(a), std::move(b));
}
ExprPtr Mod(ExprPtr a, ExprPtr b) {
  return MakeBinary(BinaryOp::kMod, std::move(a), std::move(b));
}
ExprPtr Eq(ExprPtr a, ExprPtr b) {
  return MakeBinary(BinaryOp::kEq, std::move(a), std::move(b));
}
ExprPtr Ne(ExprPtr a, ExprPtr b) {
  return MakeBinary(BinaryOp::kNe, std::move(a), std::move(b));
}
ExprPtr Lt(ExprPtr a, ExprPtr b) {
  return MakeBinary(BinaryOp::kLt, std::move(a), std::move(b));
}
ExprPtr Le(ExprPtr a, ExprPtr b) {
  return MakeBinary(BinaryOp::kLe, std::move(a), std::move(b));
}
ExprPtr Gt(ExprPtr a, ExprPtr b) {
  return MakeBinary(BinaryOp::kGt, std::move(a), std::move(b));
}
ExprPtr Ge(ExprPtr a, ExprPtr b) {
  return MakeBinary(BinaryOp::kGe, std::move(a), std::move(b));
}
ExprPtr And(ExprPtr a, ExprPtr b) {
  return MakeBinary(BinaryOp::kAnd, std::move(a), std::move(b));
}
ExprPtr Or(ExprPtr a, ExprPtr b) {
  return MakeBinary(BinaryOp::kOr, std::move(a), std::move(b));
}
ExprPtr Not(ExprPtr a) {
  return std::make_shared<UnaryExpr>(UnaryOp::kNot, std::move(a));
}
ExprPtr Negate(ExprPtr a) {
  return std::make_shared<UnaryExpr>(UnaryOp::kNegate, std::move(a));
}
ExprPtr IsNull(ExprPtr a) {
  return std::make_shared<UnaryExpr>(UnaryOp::kIsNull, std::move(a));
}
ExprPtr IsNotNull(ExprPtr a) {
  return std::make_shared<UnaryExpr>(UnaryOp::kIsNotNull, std::move(a));
}
ExprPtr Abs(ExprPtr a) {
  return std::make_shared<UnaryExpr>(UnaryOp::kAbs, std::move(a));
}
ExprPtr Cast(ExprPtr a, DataType to) {
  return std::make_shared<CastExpr>(std::move(a), to);
}
ExprPtr If(ExprPtr cond, ExprPtr then_expr, ExprPtr else_expr) {
  return std::make_shared<IfExpr>(std::move(cond), std::move(then_expr),
                                  std::move(else_expr));
}
ExprPtr Coalesce(ExprPtr a, ExprPtr b) {
  return std::make_shared<CoalesceExpr>(std::move(a), std::move(b));
}
ExprPtr Least(ExprPtr a, ExprPtr b) {
  // NULL-safe: pick b only when it is non-NULL and strictly smaller.
  return If(And(IsNotNull(b), Lt(b, a)), b, a);
}

}  // namespace vertexica
