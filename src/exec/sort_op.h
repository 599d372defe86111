/// \file sort_op.h
/// \brief Blocking sort operator (ORDER BY).

#ifndef VERTEXICA_EXEC_SORT_OP_H_
#define VERTEXICA_EXEC_SORT_OP_H_

#include <string>
#include <vector>

#include "exec/operator.h"

namespace vertexica {

/// \brief Sort key addressed by column name.
struct OrderBySpec {
  std::string column;
  bool ascending = true;
};

/// \brief Materializes its input and emits it fully sorted.
class SortOp : public Operator {
 public:
  SortOp(OperatorPtr input, std::vector<OrderBySpec> keys);

  const Schema& output_schema() const override {
    return input_->output_schema();
  }

  Result<std::optional<Table>> Next() override;

  std::string label() const override {
    std::string out = "Sort(";
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (i > 0) out += ", ";
      out += keys_[i].column + (keys_[i].ascending ? " asc" : " desc");
    }
    return out + ")";
  }
  std::vector<const Operator*> children() const override {
    return {input_.get()};
  }

 private:
  OperatorPtr input_;
  std::vector<OrderBySpec> keys_;
  bool done_ = false;
};

}  // namespace vertexica

#endif  // VERTEXICA_EXEC_SORT_OP_H_
