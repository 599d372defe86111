/// \file topn.h
/// \brief Fused ORDER BY + LIMIT with bounded memory.
///
/// Interactive scenarios (§4.2.1 "top pageranks", "top shortest paths" in
/// the demo console) ask for the k best rows of a large result; a full
/// sort materializes everything. TopN keeps at most `limit` candidate rows
/// while streaming.

#ifndef VERTEXICA_EXEC_TOPN_H_
#define VERTEXICA_EXEC_TOPN_H_

#include <vector>

#include "exec/operator.h"
#include "exec/sort_op.h"

namespace vertexica {

/// \brief Emits the first `limit` rows of the input under the given
/// ordering. Ties are broken by input order (stable, like SortOp+Limit).
class TopNOp : public Operator {
 public:
  TopNOp(OperatorPtr input, std::vector<OrderBySpec> keys, int64_t limit);

  const Schema& output_schema() const override {
    return input_->output_schema();
  }
  Result<std::optional<Table>> Next() override;

  std::string label() const override {
    return "TopN(" + std::to_string(limit_) + ")";
  }
  std::vector<const Operator*> children() const override {
    return {input_.get()};
  }

 private:
  OperatorPtr input_;
  std::vector<OrderBySpec> keys_;
  int64_t limit_;
  bool done_ = false;
};

}  // namespace vertexica

#endif  // VERTEXICA_EXEC_TOPN_H_
