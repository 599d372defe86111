#include "exec/operator.h"

#include <sstream>

namespace vertexica {

namespace {
void ExplainInto(const Operator& op, int depth, std::ostringstream* out) {
  for (int i = 0; i < depth; ++i) *out << "  ";
  *out << op.label() << "\n";
  for (const Operator* child : op.children()) {
    ExplainInto(*child, depth + 1, out);
  }
}
}  // namespace

std::string ExplainPlan(const Operator& root) {
  std::ostringstream out;
  ExplainInto(root, 0, &out);
  return out.str();
}

Result<Table> Collect(Operator* op) {
  // Blocking operators (joins, aggregates, sorts) emit exactly one
  // materialized batch: return it as-is — no re-copy, and table metadata
  // (the declared sort order) survives.
  VX_ASSIGN_OR_RETURN(auto first, op->Next());
  if (!first.has_value()) return Table(op->output_schema());
  VX_ASSIGN_OR_RETURN(auto second, op->Next());
  if (!second.has_value()) return *std::move(first);
  Table out(op->output_schema());
  VX_RETURN_NOT_OK(out.Append(*first));
  VX_RETURN_NOT_OK(out.Append(*second));
  for (;;) {
    VX_ASSIGN_OR_RETURN(auto batch, op->Next());
    if (!batch.has_value()) break;
    VX_RETURN_NOT_OK(out.Append(*batch));
  }
  return out;
}

Result<int64_t> CountRows(Operator* op) {
  int64_t rows = 0;
  for (;;) {
    VX_ASSIGN_OR_RETURN(auto batch, op->Next());
    if (!batch.has_value()) break;
    rows += batch->num_rows();
  }
  return rows;
}

}  // namespace vertexica
