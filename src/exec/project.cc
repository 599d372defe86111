#include "exec/project.h"

#include <algorithm>

#include "exec/kernel_stats.h"

namespace vertexica {

ProjectOp::ProjectOp(OperatorPtr input, std::vector<ProjectionSpec> outputs)
    : input_(std::move(input)), outputs_(std::move(outputs)) {
  for (const auto& spec : outputs_) {
    auto type = spec.expr->OutputType(input_->output_schema());
    if (!type.ok()) {
      init_status_ = type.status();
      return;
    }
    schema_.AddField(Field{spec.name, *type});
  }
}

Result<std::optional<Table>> ProjectOp::Next() {
  VX_RETURN_NOT_OK(init_status_);
  VX_ASSIGN_OR_RETURN(auto batch, input_->Next());
  if (!batch.has_value()) return std::optional<Table>{};
  // Computed outputs first, reading the batch in place. A plain column
  // reference then takes the batch's column itself — the batch is consumed
  // here — and only a column referenced again later is copied.
  std::vector<Column> columns(outputs_.size());
  std::vector<int> source(outputs_.size(), -1);
  for (size_t i = 0; i < outputs_.size(); ++i) {
    const auto* ref =
        dynamic_cast<const ColumnRefExpr*>(outputs_[i].expr.get());
    source[i] = ref == nullptr ? -1 : batch->schema().FieldIndex(ref->name());
    if (source[i] >= 0) continue;
    VX_ASSIGN_OR_RETURN(columns[i], outputs_[i].expr->Evaluate(*batch));
  }
  for (size_t i = 0; i < outputs_.size(); ++i) {
    if (source[i] < 0) continue;
    Column& col = *batch->mutable_column(source[i]);
    const bool last_use =
        std::find(source.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                  source.end(), source[i]) == source.end();
    columns[i] = last_use ? std::move(col) : col;
  }
  VX_ASSIGN_OR_RETURN(Table out, Table::Make(schema_, std::move(columns)));
  NoteMaterialized(out);
  NoteLegacyBatch();
  return std::optional<Table>(std::move(out));
}

}  // namespace vertexica
