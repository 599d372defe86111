#include "exec/vectorized.h"

#include "exec/kernel_stats.h"

namespace vertexica {

// ------------------------------------------------------------ compilation

std::optional<FusedPipelinePlan> CompileFusedPipeline(
    const Table& input, const ExprPtr& predicate,
    const std::vector<ProjectionSpec>& outputs) {
  if (outputs.empty()) return std::nullopt;
  FusedPipelinePlan plan;
  if (predicate != nullptr) {
    PredicateConjuncts split =
        SplitPredicateConjuncts(predicate, input.schema());
    // Only a *complete* decomposition may bypass the interpreter: one
    // residual conjunct and the Kleene-AND mask could differ from the
    // conjunct intersection.
    if (!split.residual.empty() || split.pushable.empty()) {
      return std::nullopt;
    }
    plan.conjuncts = std::move(split.pushable);
  }
  for (const auto& spec : outputs) {
    FusedPipelinePlan::Output out;
    out.name = spec.name;
    if (const auto* ref =
            dynamic_cast<const ColumnRefExpr*>(spec.expr.get())) {
      const int idx = input.schema().FieldIndex(ref->name());
      if (idx < 0) return std::nullopt;
      out.source_column = idx;
      out.type = input.schema().field(idx).type;
    } else if (const auto* lit =
                   dynamic_cast<const LiteralExpr*>(spec.expr.get())) {
      out.literal = lit->value();
      out.type = lit->type();
    } else {
      return std::nullopt;  // computed projection: interpreter path
    }
    plan.schema.AddField(Field{out.name, out.type});
    plan.outputs.push_back(std::move(out));
  }
  return plan;
}

// ------------------------------------------------------- selection kernels

void RefineMatchingRows(const Column& column, CompareOp op,
                        const Value& literal, SelVector* sel) {
  if (sel->empty()) return;
  // NULL literal: the comparison is NULL for every row — no matches.
  if (literal.is_null()) {
    sel->clear();
    return;
  }
  const bool has_nulls = column.null_count() > 0;
  size_t w = 0;
  switch (column.type()) {
    case DataType::kInt64: {
      const int64_t lit = literal.int64_value();
      const auto& v = column.ints();
      for (const int64_t i : *sel) {
        const int64_t x = v[static_cast<size_t>(i)];
        if (CompareOpMatches(op, x < lit ? -1 : (x > lit ? 1 : 0)) &&
            !(has_nulls && column.IsNull(i))) {
          (*sel)[w++] = i;
        }
      }
      break;
    }
    case DataType::kDouble: {
      const double lit = literal.double_value();
      const auto& v = column.doubles();
      for (const int64_t i : *sel) {
        if (CompareOpMatches(
                op, TotalOrderCompareDoubles(v[static_cast<size_t>(i)],
                                             lit)) &&
            !(has_nulls && column.IsNull(i))) {
          (*sel)[w++] = i;
        }
      }
      break;
    }
    case DataType::kBool: {
      const int lit = literal.bool_value() ? 1 : 0;
      const auto& v = column.bools();
      for (const int64_t i : *sel) {
        const int x = v[static_cast<size_t>(i)] != 0 ? 1 : 0;
        if (CompareOpMatches(op, x - lit) &&
            !(has_nulls && column.IsNull(i))) {
          (*sel)[w++] = i;
        }
      }
      break;
    }
    case DataType::kString: {
      const std::string& lit = literal.string_value();
      if (const auto* dict = column.dict()) {
        // One comparison per dictionary entry, then a code scan over the
        // surviving rows — same evaluation shape as SelectMatchingRows.
        std::vector<uint8_t> entry_matches(dict->dictionary.size());
        for (size_t k = 0; k < dict->dictionary.size(); ++k) {
          const int cmp = dict->dictionary[k].compare(lit);
          entry_matches[k] =
              CompareOpMatches(op, cmp < 0 ? -1 : (cmp > 0 ? 1 : 0)) ? 1 : 0;
        }
        for (const int64_t i : *sel) {
          if (entry_matches[static_cast<size_t>(
                  dict->codes[static_cast<size_t>(i)])] != 0 &&
              !(has_nulls && column.IsNull(i))) {
            (*sel)[w++] = i;
          }
        }
        break;
      }
      const auto& v = column.strings();
      for (const int64_t i : *sel) {
        const int cmp = v[static_cast<size_t>(i)].compare(lit);
        if (CompareOpMatches(op, cmp < 0 ? -1 : (cmp > 0 ? 1 : 0)) &&
            !(has_nulls && column.IsNull(i))) {
          (*sel)[w++] = i;
        }
      }
      break;
    }
  }
  sel->resize(w);
}

void EvaluateConjuncts(const Table& source,
                       const std::vector<ColumnPredicate>& conjuncts,
                       int64_t begin, int64_t end, Batch* batch) {
  batch->source = &source;
  batch->begin = begin;
  batch->end = end;
  batch->sel.clear();
  batch->dense = conjuncts.empty();
  if (batch->dense) return;
  const Column* first = source.ColumnByName(conjuncts[0].column);
  VX_CHECK(first != nullptr);  // CompileFusedPipeline validated the schema
  SelectMatchingRows(*first, conjuncts[0].op, conjuncts[0].literal, begin,
                     end, &batch->sel);
  for (size_t k = 1; k < conjuncts.size() && !batch->sel.empty(); ++k) {
    const Column* col = source.ColumnByName(conjuncts[k].column);
    VX_CHECK(col != nullptr);
    RefineMatchingRows(*col, conjuncts[k].op, conjuncts[k].literal,
                       &batch->sel);
  }
  if (static_cast<int64_t>(batch->sel.size()) == end - begin) {
    // Every window row survived: collapse to the dense representation so
    // the gather below becomes a contiguous slice.
    batch->dense = true;
    batch->sel.clear();
  }
}

// ---------------------------------------------------------- materialization

Result<Table> MaterializeFusedOutputs(const FusedPipelinePlan& plan,
                                      const Batch& batch) {
  const int64_t rows = batch.num_selected();
  std::vector<Column> columns;
  columns.reserve(plan.outputs.size());
  for (const auto& out : plan.outputs) {
    if (out.source_column >= 0) {
      columns.push_back(
          MaterializeColumn(batch.source->column(out.source_column), batch));
    } else {
      // Replicated exactly like LiteralExpr::Evaluate, so literal outputs
      // stay byte-identical to the interpreter path.
      Column c(out.type);
      c.Reserve(rows);
      for (int64_t i = 0; i < rows; ++i) c.AppendValue(out.literal);
      columns.push_back(std::move(c));
    }
  }
  // materialize-ok: the pipeline's end — the single assembly of the fused
  // pipeline's output table.
  VX_ASSIGN_OR_RETURN(Table table,
                      Table::Make(plan.schema, std::move(columns)));
  NoteMaterialized(table);
  NoteFusedBatch();
  return table;
}

}  // namespace vertexica
