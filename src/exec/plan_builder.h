/// \file plan_builder.h
/// \brief Fluent construction of physical plans.
///
/// The hand-written SQL graph algorithms (§3.1–3.2) are expressed as plans:
///
/// \code
///   auto ranks = PlanBuilder::Scan(edges)
///                    .Join(PlanBuilder::Scan(ranks), {"src"}, {"id"})
///                    .Project({{"dst", Col("dst")},
///                              {"contrib", Div(Col("rank"), Col("outdeg"))}})
///                    .Aggregate({"dst"}, {{AggOp::kSum, "contrib", "rank"}})
///                    .Execute();
/// \endcode

#ifndef VERTEXICA_EXEC_PLAN_BUILDER_H_
#define VERTEXICA_EXEC_PLAN_BUILDER_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/aggregate.h"
#include "exec/distinct.h"
#include "exec/filter.h"
#include "exec/hash_join.h"
#include "exec/limit.h"
#include "exec/operator.h"
#include "exec/project.h"
#include "exec/scan.h"
#include "exec/sort_op.h"
#include "exec/topn.h"
#include "exec/union_all.h"

namespace vertexica {

/// \brief Chainable builder producing an `OperatorPtr` pipeline.
class PlanBuilder {
 public:
  /// \name Leaf constructors
  /// @{
  static PlanBuilder Scan(std::shared_ptr<const Table> table,
                          int64_t batch_size = kDefaultBatchSize);
  static PlanBuilder Scan(Table table,
                          int64_t batch_size = kDefaultBatchSize);
  /// @}

  /// \name Relational transformations (each consumes *this)
  /// @{
  PlanBuilder Filter(ExprPtr predicate) &&;
  PlanBuilder Project(std::vector<ProjectionSpec> outputs) &&;
  /// Keep only the named columns, in the given order.
  PlanBuilder Select(const std::vector<std::string>& columns) &&;
  PlanBuilder Join(PlanBuilder build, std::vector<std::string> probe_keys,
                   std::vector<std::string> build_keys,
                   JoinType type = JoinType::kInner) &&;
  PlanBuilder Aggregate(std::vector<std::string> group_by,
                        std::vector<AggSpec> aggs) &&;
  PlanBuilder OrderBy(std::vector<OrderBySpec> keys) &&;
  PlanBuilder Limit(int64_t n) &&;
  /// Fused ORDER BY + LIMIT with bounded memory.
  PlanBuilder TopN(std::vector<OrderBySpec> keys, int64_t n) &&;
  PlanBuilder Distinct() &&;
  PlanBuilder Union(PlanBuilder other) &&;
  /// Rename all columns (positional).
  PlanBuilder Rename(std::vector<std::string> names) &&;
  /// @}

  /// \brief Releases the built operator tree.
  OperatorPtr Build() &&;

  /// \brief Builds and fully executes, returning the materialized result.
  Result<Table> Execute() &&;

  /// \brief EXPLAIN rendering of the plan built so far.
  std::string Explain() const { return ExplainPlan(*op_); }

  const Schema& output_schema() const { return op_->output_schema(); }

 private:
  explicit PlanBuilder(OperatorPtr op) : op_(std::move(op)) {}
  OperatorPtr op_;
};

}  // namespace vertexica

#endif  // VERTEXICA_EXEC_PLAN_BUILDER_H_
