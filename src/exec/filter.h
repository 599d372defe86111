/// \file filter.h
/// \brief Selection (σ): keeps rows whose predicate evaluates to TRUE.

#ifndef VERTEXICA_EXEC_FILTER_H_
#define VERTEXICA_EXEC_FILTER_H_

#include <optional>
#include <vector>

#include "exec/operator.h"
#include "expr/expression.h"
#include "storage/encoding.h"

namespace vertexica {

/// \name Predicate pushdown over encoded segments
///
/// The bridge between expression trees and the storage layer's
/// ColumnPredicate/zone-map machinery. Only comparisons whose literal type
/// *exactly* matches the column type are extracted — that is the subset
/// whose zone-map may-match logic and encoded evaluation provably agree
/// with BinaryExpr::Evaluate (same-type comparisons route through
/// Column::CompareRows), so pushing them down can never change results.
/// @{

/// \brief Extracts every AND-conjunct of `predicate` of the form
/// `column <op> literal` (either operand order) with an exact column/
/// literal type match. The result under-approximates the predicate: rows
/// failing any extracted conjunct provably fail the whole predicate.
std::vector<ColumnPredicate> ExtractPushdownPredicates(
    const ExprPtr& predicate, const Schema& schema);

/// \brief When `predicate` *is* exactly one pushable comparison, returns
/// it; the caller may then evaluate rows with SelectMatchingRows instead of
/// the expression interpreter.
std::optional<ColumnPredicate> ExactColumnPredicate(const ExprPtr& predicate,
                                                    const Schema& schema);

/// \brief The complete AND-decomposition of a predicate: the pushable
/// conjuncts as ColumnPredicates and everything else verbatim.
///
/// ExtractPushdownPredicates answers "which conjuncts can also be checked
/// early?" — an under-approximation. This answers the stronger question
/// the fused selection-vector path (exec/vectorized.h) needs: "is the
/// predicate *nothing but* pushable conjuncts?" When `residual` is empty,
/// evaluating the pushable conjuncts and intersecting their matches is
/// exactly the rows whose Kleene-AND mask is TRUE, so the expression
/// interpreter can be bypassed entirely.
struct PredicateConjuncts {
  std::vector<ColumnPredicate> pushable;
  std::vector<ExprPtr> residual;  ///< conjuncts the interpreter must run
};
PredicateConjuncts SplitPredicateConjuncts(const ExprPtr& predicate,
                                           const Schema& schema);

/// \brief Appends (ascending) the row ids in [begin, end) whose value
/// satisfies `value <op> literal` to `out` — bit-identical to evaluating
/// the comparison expression and keeping TRUE rows (NULL rows never match;
/// DOUBLE uses the CompareRows total order). RLE columns evaluate each
/// overlapping run once; dictionary columns evaluate each dictionary entry
/// once and then compare codes — no decode either way.
void SelectMatchingRows(const Column& column, CompareOp op,
                        const Value& literal, int64_t begin, int64_t end,
                        std::vector<int64_t>* out);

/// \brief `<op>` applied to a three-way comparison result (`cmp` < 0, 0,
/// or > 0) — the single decision shared by SelectMatchingRows and the
/// selection-refining kernels (exec/vectorized.h), so every encoded and
/// plain evaluation path agrees on comparison semantics.
bool CompareOpMatches(CompareOp op, int cmp);
/// @}

/// \brief Filters each input batch by a boolean predicate expression.
/// Rows where the predicate is NULL are dropped (SQL WHERE semantics).
class FilterOp : public Operator {
 public:
  FilterOp(OperatorPtr input, ExprPtr predicate);

  const Schema& output_schema() const override {
    return input_->output_schema();
  }
  Result<std::optional<Table>> Next() override;

  std::string label() const override {
    return "Filter(" + predicate_->ToString() + ")";
  }
  std::vector<const Operator*> children() const override {
    return {input_.get()};
  }

 private:
  OperatorPtr input_;
  ExprPtr predicate_;
};

}  // namespace vertexica

#endif  // VERTEXICA_EXEC_FILTER_H_
