/// \file union_all.h
/// \brief UNION ALL over type-compatible children.
///
/// The relational form of the paper's headline optimization (§2.3 "Table
/// Unions"): tables renamed to a common schema and unioned, not joined.
/// The superstep workers read that union logically, in place
/// (vertexica/worker_driver.h); this operator serves plans that need it
/// materialized, such as the replace-path vertex rebuild.

#ifndef VERTEXICA_EXEC_UNION_ALL_H_
#define VERTEXICA_EXEC_UNION_ALL_H_

#include <vector>

#include "exec/operator.h"

namespace vertexica {

/// \brief Concatenates child streams. Children must have equal column
/// types; output uses the first child's column names (the "common schema").
class UnionAllOp : public Operator {
 public:
  explicit UnionAllOp(std::vector<OperatorPtr> children);

  const Schema& output_schema() const override { return schema_; }
  Result<std::optional<Table>> Next() override;

  std::string label() const override { return "UnionAll"; }
  std::vector<const Operator*> children() const override {
    std::vector<const Operator*> out;
    for (const auto& c : children_) out.push_back(c.get());
    return out;
  }

 private:
  std::vector<OperatorPtr> children_;
  Schema schema_;
  Status init_status_;
  size_t current_ = 0;
};

}  // namespace vertexica

#endif  // VERTEXICA_EXEC_UNION_ALL_H_
