/// \file expression.h
/// \brief Scalar expression trees evaluated over table batches.
///
/// Expressions power the relational operators used for graph pre/post
/// processing (§3.4): selection predicates, projections, computed columns.
/// Evaluation is column-at-a-time with typed fast paths for numeric work.

#ifndef VERTEXICA_EXPR_EXPRESSION_H_
#define VERTEXICA_EXPR_EXPRESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/column.h"
#include "storage/table.h"

namespace vertexica {

class Expr;
using ExprPtr = std::shared_ptr<Expr>;

/// \brief Base class for all expression nodes.
class Expr {
 public:
  virtual ~Expr() = default;

  /// \brief Evaluates this expression against every row of `batch`,
  /// producing a column of `batch.num_rows()` values.
  virtual Result<Column> Evaluate(const Table& batch) const = 0;

  /// \brief The output type given an input schema; fails on type errors
  /// (e.g. arithmetic on strings) or unresolvable column names.
  virtual Result<DataType> OutputType(const Schema& schema) const = 0;

  /// \brief SQL-ish rendering, for plan explanation and error messages.
  virtual std::string ToString() const = 0;

  /// \brief The batch's own column when this expression is a column
  /// reference, so a parent kernel reads it in place instead of copying it
  /// through Evaluate; nullptr for every other expression (and for a
  /// reference the batch cannot resolve, which Evaluate reports).
  virtual const Column* Borrow(const Table& /*batch*/) const {
    return nullptr;
  }
};

/// \brief Reference to an input column by name.
class ColumnRefExpr : public Expr {
 public:
  explicit ColumnRefExpr(std::string name) : name_(std::move(name)) {}
  Result<Column> Evaluate(const Table& batch) const override;
  Result<DataType> OutputType(const Schema& schema) const override;
  std::string ToString() const override { return name_; }
  const Column* Borrow(const Table& batch) const override {
    return batch.ColumnByName(name_);
  }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
};

/// \brief A constant.
class LiteralExpr : public Expr {
 public:
  LiteralExpr(Value value, DataType type)
      : value_(std::move(value)), type_(type) {}
  Result<Column> Evaluate(const Table& batch) const override;
  Result<DataType> OutputType(const Schema& schema) const override;
  std::string ToString() const override { return value_.ToString(); }
  const Value& value() const { return value_; }
  DataType type() const { return type_; }

 private:
  Value value_;
  DataType type_;
};

/// \brief Binary operators.
enum class BinaryOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
};

const char* BinaryOpName(BinaryOp op);

/// \brief A binary expression with SQL NULL semantics.
///
/// Arithmetic/comparison: NULL in → NULL out. AND/OR use Kleene logic
/// (`false AND NULL` is false; `true OR NULL` is true). INT64 arithmetic
/// wraps in two's complement and `x % 0` and `x % -1` are 0
/// (common/int_arith.h). Mixed INT64/DOUBLE operands are widened with
/// `static_cast<double>`. DOUBLE = DOUBLE comparisons use the storage
/// total order (NaN equals itself and sorts last); mixed-type ones compare
/// the widened values with `<` / `>`.
class BinaryExpr : public Expr {
 public:
  BinaryExpr(BinaryOp op, ExprPtr left, ExprPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}
  Result<Column> Evaluate(const Table& batch) const override;
  Result<DataType> OutputType(const Schema& schema) const override;
  std::string ToString() const override;
  /// \name Introspection (predicate pushdown, exec/filter.h)
  /// @{
  BinaryOp op() const { return op_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }
  /// @}

 private:
  BinaryOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

/// \brief Unary operators.
enum class UnaryOp { kNot, kNegate, kIsNull, kIsNotNull, kAbs };

/// \brief A unary expression.
class UnaryExpr : public Expr {
 public:
  UnaryExpr(UnaryOp op, ExprPtr input)
      : op_(op), input_(std::move(input)) {}
  Result<Column> Evaluate(const Table& batch) const override;
  Result<DataType> OutputType(const Schema& schema) const override;
  std::string ToString() const override;

 private:
  UnaryOp op_;
  ExprPtr input_;
};

/// \brief CAST(input AS type). Numeric casts truncate toward zero; a
/// DOUBLE that is NaN, infinite or outside the INT64 range fails the cast
/// with InvalidArgument. Casting to string renders like Value::ToString
/// (without quotes).
class CastExpr : public Expr {
 public:
  CastExpr(ExprPtr input, DataType to) : input_(std::move(input)), to_(to) {}
  Result<Column> Evaluate(const Table& batch) const override;
  Result<DataType> OutputType(const Schema& schema) const override;
  std::string ToString() const override;

 private:
  ExprPtr input_;
  DataType to_;
};

/// \brief CASE WHEN cond THEN a ELSE b END. A NULL condition selects the
/// else branch (SQL semantics). Branch types must match, or both be numeric
/// (promoted to double when mixed).
class IfExpr : public Expr {
 public:
  IfExpr(ExprPtr cond, ExprPtr then_expr, ExprPtr else_expr)
      : cond_(std::move(cond)),
        then_(std::move(then_expr)),
        else_(std::move(else_expr)) {}
  Result<Column> Evaluate(const Table& batch) const override;
  Result<DataType> OutputType(const Schema& schema) const override;
  std::string ToString() const override;

 private:
  ExprPtr cond_;
  ExprPtr then_;
  ExprPtr else_;
};

/// \brief COALESCE(a, b): a when non-NULL, else b.
class CoalesceExpr : public Expr {
 public:
  CoalesceExpr(ExprPtr first, ExprPtr second)
      : first_(std::move(first)), second_(std::move(second)) {}
  Result<Column> Evaluate(const Table& batch) const override;
  Result<DataType> OutputType(const Schema& schema) const override;
  std::string ToString() const override;

 private:
  ExprPtr first_;
  ExprPtr second_;
};

/// \name Convenience factories (fluent expression building)
/// @{
ExprPtr Col(std::string name);
ExprPtr Lit(int64_t v);
ExprPtr Lit(double v);
ExprPtr Lit(bool v);
ExprPtr Lit(std::string v);
ExprPtr NullLit(DataType type);
ExprPtr Add(ExprPtr a, ExprPtr b);
ExprPtr Sub(ExprPtr a, ExprPtr b);
ExprPtr Mul(ExprPtr a, ExprPtr b);
ExprPtr Div(ExprPtr a, ExprPtr b);
ExprPtr Mod(ExprPtr a, ExprPtr b);
ExprPtr Eq(ExprPtr a, ExprPtr b);
ExprPtr Ne(ExprPtr a, ExprPtr b);
ExprPtr Lt(ExprPtr a, ExprPtr b);
ExprPtr Le(ExprPtr a, ExprPtr b);
ExprPtr Gt(ExprPtr a, ExprPtr b);
ExprPtr Ge(ExprPtr a, ExprPtr b);
ExprPtr And(ExprPtr a, ExprPtr b);
ExprPtr Or(ExprPtr a, ExprPtr b);
ExprPtr Not(ExprPtr a);
ExprPtr Negate(ExprPtr a);
ExprPtr IsNull(ExprPtr a);
ExprPtr IsNotNull(ExprPtr a);
ExprPtr Abs(ExprPtr a);
ExprPtr Cast(ExprPtr a, DataType to);
ExprPtr If(ExprPtr cond, ExprPtr then_expr, ExprPtr else_expr);
ExprPtr Coalesce(ExprPtr a, ExprPtr b);
/// \brief LEAST(a, b) built from If (NULL-safe: NULL operand loses).
ExprPtr Least(ExprPtr a, ExprPtr b);
/// @}

}  // namespace vertexica

#endif  // VERTEXICA_EXPR_EXPRESSION_H_
