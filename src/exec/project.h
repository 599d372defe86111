/// \file project.h
/// \brief Projection (π): computes named output expressions per row.

#ifndef VERTEXICA_EXEC_PROJECT_H_
#define VERTEXICA_EXEC_PROJECT_H_

#include <string>
#include <utility>
#include <vector>

#include "exec/operator.h"
#include "expr/expression.h"

namespace vertexica {

/// \brief One projected column: output name + defining expression.
struct ProjectionSpec {
  std::string name;
  ExprPtr expr;
};

/// \brief Evaluates a list of expressions over each input batch.
class ProjectOp : public Operator {
 public:
  /// \param input child operator
  /// \param outputs projection list; output schema is derived eagerly and
  ///        construction aborts the query at first Next() on type errors.
  ProjectOp(OperatorPtr input, std::vector<ProjectionSpec> outputs);

  const Schema& output_schema() const override { return schema_; }
  Result<std::optional<Table>> Next() override;

  std::string label() const override {
    std::string out = "Project(";
    for (size_t i = 0; i < outputs_.size(); ++i) {
      if (i > 0) out += ", ";
      out += outputs_[i].name;
    }
    return out + ")";
  }
  std::vector<const Operator*> children() const override {
    return {input_.get()};
  }

 private:
  OperatorPtr input_;
  std::vector<ProjectionSpec> outputs_;
  Schema schema_;
  Status init_status_;
};

}  // namespace vertexica

#endif  // VERTEXICA_EXEC_PROJECT_H_
