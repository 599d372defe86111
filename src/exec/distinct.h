/// \file distinct.h
/// \brief DISTINCT: removes duplicate rows (full-row equality).

#ifndef VERTEXICA_EXEC_DISTINCT_H_
#define VERTEXICA_EXEC_DISTINCT_H_

#include <unordered_map>
#include <vector>

#include "exec/operator.h"

namespace vertexica {

/// \brief Blocking duplicate elimination over all columns.
/// Keeps the first occurrence of each distinct row (stable).
class DistinctOp : public Operator {
 public:
  explicit DistinctOp(OperatorPtr input) : input_(std::move(input)) {}

  const Schema& output_schema() const override {
    return input_->output_schema();
  }
  Result<std::optional<Table>> Next() override;

  std::string label() const override {
    return "Distinct";
  }
  std::vector<const Operator*> children() const override {
    return {input_.get()};
  }

 private:
  OperatorPtr input_;
  bool done_ = false;
};

}  // namespace vertexica

#endif  // VERTEXICA_EXEC_DISTINCT_H_
