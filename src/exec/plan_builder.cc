#include "exec/plan_builder.h"

#include "exec/parallel.h"

namespace vertexica {

namespace {

/// Renames the stream by inserting a pass-through projection.
class RenameOp : public Operator {
 public:
  RenameOp(OperatorPtr input, std::vector<std::string> names)
      : input_(std::move(input)), names_(std::move(names)) {
    schema_ = input_->output_schema().WithNames(names_);
  }
  const Schema& output_schema() const override { return schema_; }
  Result<std::optional<Table>> Next() override {
    VX_ASSIGN_OR_RETURN(auto batch, input_->Next());
    if (!batch.has_value()) return std::optional<Table>{};
    return std::optional<Table>(batch->RenameColumns(names_));
  }
  std::string label() const override { return "Rename"; }
  std::vector<const Operator*> children() const override {
    return {input_.get()};
  }

 private:
  OperatorPtr input_;
  std::vector<std::string> names_;
  Schema schema_;
};

}  // namespace

PlanBuilder PlanBuilder::Scan(std::shared_ptr<const Table> table,
                              int64_t batch_size) {
  return PlanBuilder(std::make_unique<TableScan>(std::move(table), batch_size));
}

PlanBuilder PlanBuilder::Scan(Table table, int64_t batch_size) {
  return PlanBuilder(std::make_unique<TableScan>(std::move(table), batch_size));
}

PlanBuilder PlanBuilder::Filter(ExprPtr predicate) && {
  // σ over a base-table scan: push the comparison conjuncts into the scan,
  // which then skips whole batches via zone maps (when the table has them —
  // Table::BuildZoneMaps/EncodeColumns). The FilterOp still evaluates the
  // full predicate on the surviving batches, so this is purely an
  // I/O-avoidance rewrite: same rows out, fewer rows touched.
  if (auto* scan = dynamic_cast<TableScan*>(op_.get())) {
    auto pushed =
        ExtractPushdownPredicates(predicate, scan->output_schema());
    if (!pushed.empty()) scan->PushDownPredicates(std::move(pushed));
  }
  return PlanBuilder(
      std::make_unique<FilterOp>(std::move(op_), std::move(predicate)));
}

PlanBuilder PlanBuilder::Project(std::vector<ProjectionSpec> outputs) && {
  return PlanBuilder(
      std::make_unique<ProjectOp>(std::move(op_), std::move(outputs)));
}

PlanBuilder PlanBuilder::Select(const std::vector<std::string>& columns) && {
  std::vector<ProjectionSpec> outputs;
  outputs.reserve(columns.size());
  for (const auto& c : columns) outputs.push_back({c, Col(c)});
  return std::move(*this).Project(std::move(outputs));
}

PlanBuilder PlanBuilder::Join(PlanBuilder build,
                              std::vector<std::string> probe_keys,
                              std::vector<std::string> build_keys,
                              JoinType type) && {
  // Morsel-parallel hash join (exec/parallel.h); resolves its thread
  // budget at execution time and produces serial-identical row order.
  return PlanBuilder(std::make_unique<ParallelHashJoinOp>(
      std::move(op_), std::move(build.op_), std::move(probe_keys),
      std::move(build_keys), type));
}

PlanBuilder PlanBuilder::Aggregate(std::vector<std::string> group_by,
                                   std::vector<AggSpec> aggs) && {
  // Chunk-parallel aggregation with deterministic chunk-order merge.
  return PlanBuilder(std::make_unique<ParallelAggregateOp>(
      std::move(op_), std::move(group_by), std::move(aggs)));
}

PlanBuilder PlanBuilder::OrderBy(std::vector<OrderBySpec> keys) && {
  return PlanBuilder(std::make_unique<SortOp>(std::move(op_), std::move(keys)));
}

PlanBuilder PlanBuilder::Limit(int64_t n) && {
  return PlanBuilder(std::make_unique<LimitOp>(std::move(op_), n));
}

PlanBuilder PlanBuilder::TopN(std::vector<OrderBySpec> keys, int64_t n) && {
  return PlanBuilder(
      std::make_unique<TopNOp>(std::move(op_), std::move(keys), n));
}

PlanBuilder PlanBuilder::Distinct() && {
  return PlanBuilder(std::make_unique<DistinctOp>(std::move(op_)));
}

PlanBuilder PlanBuilder::Union(PlanBuilder other) && {
  std::vector<OperatorPtr> children;
  children.push_back(std::move(op_));
  children.push_back(std::move(other.op_));
  return PlanBuilder(std::make_unique<UnionAllOp>(std::move(children)));
}

PlanBuilder PlanBuilder::Rename(std::vector<std::string> names) && {
  return PlanBuilder(
      std::make_unique<RenameOp>(std::move(op_), std::move(names)));
}

OperatorPtr PlanBuilder::Build() && { return std::move(op_); }

Result<Table> PlanBuilder::Execute() && {
  OperatorPtr op = std::move(op_);
  return Collect(op.get());
}

}  // namespace vertexica
