/// \file vectorized.h
/// \brief The fused selection-vector execution core (ROADMAP item 2).
///
/// The hot σ→π shapes of the engine — the coordinator's worker-output
/// split, its union/join input builds, metadata selections — are
/// conjunctions of `column <op> literal` comparisons feeding column-ref/
/// literal projections. For exactly that shape this module replaces the
/// table-at-a-time interpreter with a fused pipeline over selection-vector
/// batches (exec/batch.h):
///
///   compile:   the predicate decomposes completely into pushable conjuncts
///              (SplitPredicateConjuncts, exec/filter.h) and every
///              projection is a column ref or literal — else the plan is
///              ineligible and the caller keeps the interpreter path;
///   evaluate:  conjunct-at-a-time into a selection vector. The first
///              conjunct runs the encoded-aware SelectMatchingRows kernel
///              (whole RLE runs / dictionary entries, no decode); each
///              further conjunct *narrows* the survivors in place with a
///              tight typed loop (RefineMatchingRows) — no mask column, no
///              intermediate table;
///   gather:    one materialization per output column at the pipeline's
///              end: Slice when every window row survived, the typed
///              gather otherwise, and literal outputs replicated exactly
///              like LiteralExpr::Evaluate.
///
/// Bit-identity contract (docs/EXECUTOR.md): a row survives the fused
/// pipeline iff every conjunct compares TRUE — exactly the rows whose
/// Kleene-AND mask is TRUE under the interpreter (a NULL operand makes a
/// conjunct non-TRUE in both worlds), and gathers/replications reproduce
/// the interpreter's output values byte-for-byte. The fused path is
/// therefore a pure physical-plan swap, toggled by the `vectorized` knob
/// (`ExecKnobs::vectorized`, common/exec_knobs.h, read by the morsel
/// drivers in exec/parallel.cc) and verified row-for-row by the exec_test
/// property suite at every knob combination.

#ifndef VERTEXICA_EXEC_VECTORIZED_H_
#define VERTEXICA_EXEC_VECTORIZED_H_

#include <optional>
#include <string>
#include <vector>

#include "exec/batch.h"
#include "exec/filter.h"
#include "exec/project.h"
#include "expr/expression.h"

namespace vertexica {

/// \brief A compiled fused σ→π pipeline: the predicate as conjuncts, the
/// projections resolved to source column indices or literals, and the
/// output schema (identical to the interpreter operators' schema).
struct FusedPipelinePlan {
  /// Complete decomposition of the predicate; empty for a pure projection.
  std::vector<ColumnPredicate> conjuncts;

  struct Output {
    std::string name;
    int source_column = -1;  ///< gathered column; -1 for a literal
    Value literal;           ///< replicated when source_column < 0
    DataType type = DataType::kInt64;
  };
  std::vector<Output> outputs;
  Schema schema;
};

/// \brief Compiles predicate + projections against `input`'s schema.
/// Returns nullopt when the shape is ineligible — a residual (non-pushable)
/// conjunct, a computed projection, or an unknown column — in which case
/// the caller must keep the interpreter path. `predicate` may be null (no
/// filter); `outputs` must be non-empty.
std::optional<FusedPipelinePlan> CompileFusedPipeline(
    const Table& input, const ExprPtr& predicate,
    const std::vector<ProjectionSpec>& outputs);

/// \brief Evaluates `conjuncts` over the window [begin, end) of `source`
/// into `batch` (overwriting its window and selection). The first conjunct
/// runs SelectMatchingRows; each further conjunct narrows in place. A
/// selection covering the whole window collapses to the dense
/// representation.
void EvaluateConjuncts(const Table& source,
                       const std::vector<ColumnPredicate>& conjuncts,
                       int64_t begin, int64_t end, Batch* batch);

/// \brief Narrows `sel` in place to the rows where `value <op> literal`
/// compares TRUE — the same semantics as SelectMatchingRows (NULL rows and
/// NULL literals never match), over an existing selection. Dictionary
/// columns test per-entry then compare codes.
void RefineMatchingRows(const Column& column, CompareOp op,
                        const Value& literal, SelVector* sel);

/// \brief Materializes the plan's outputs for one batch: sliced/gathered
/// source columns and replicated literals, assembled into a table of
/// `plan.schema`. The single materialization of the fused pipeline; bytes
/// are reported to the ambient KernelStats.
Result<Table> MaterializeFusedOutputs(const FusedPipelinePlan& plan,
                                      const Batch& batch);

}  // namespace vertexica

#endif  // VERTEXICA_EXEC_VECTORIZED_H_
