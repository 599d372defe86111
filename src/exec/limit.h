/// \file limit.h
/// \brief LIMIT: stops after emitting n rows.

#ifndef VERTEXICA_EXEC_LIMIT_H_
#define VERTEXICA_EXEC_LIMIT_H_

#include "exec/operator.h"

namespace vertexica {

/// \brief Truncates the input stream to its first `limit` rows.
class LimitOp : public Operator {
 public:
  LimitOp(OperatorPtr input, int64_t limit)
      : input_(std::move(input)), remaining_(limit) {}

  const Schema& output_schema() const override {
    return input_->output_schema();
  }
  Result<std::optional<Table>> Next() override;

  std::string label() const override {
    return "Limit(" + std::to_string(remaining_) + ")";
  }
  std::vector<const Operator*> children() const override {
    return {input_.get()};
  }

 private:
  OperatorPtr input_;
  int64_t remaining_;
};

}  // namespace vertexica

#endif  // VERTEXICA_EXEC_LIMIT_H_
