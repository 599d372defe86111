/// \file parallel.h
/// \brief Morsel-parallel relational execution (§2.3 "parallel workers",
/// applied to the operator layer).
///
/// The paper's claim is that a relational engine keeps up with specialized
/// graph systems *because* its table operators use all cores. This module is
/// that operator-level parallelism: an Exchange-style driver that splits a
/// materialized source into fixed row-range morsels and drains a per-morsel
/// plan on the shared ThreadPool, plus parallel variants of the hot
/// operators (scan→filter→project pipelines, hash join with partitioned
/// parallel build + morsel-parallel probe, aggregation with per-chunk
/// partial states merged in chunk order).
///
/// Determinism contract: morsel and chunk boundaries depend only on
/// `ParallelOptions::morsel_rows`, never on the thread count, and partial
/// results are always merged in morsel order. A plan therefore produces
/// *bit-identical* output at any `threads` setting (1, 2, 8, ...); the only
/// divergence from the serial reference operators is floating-point
/// summation order in aggregates (chunk-fold vs. row-fold), which is
/// row-set-equal within rounding. See docs/EXECUTOR.md.

#ifndef VERTEXICA_EXEC_PARALLEL_H_
#define VERTEXICA_EXEC_PARALLEL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/exec_knobs.h"
#include "exec/aggregate.h"
#include "exec/hash_join.h"
#include "exec/operator.h"
#include "exec/project.h"
#include "expr/expression.h"

namespace vertexica {

/// \brief Default rows per morsel. Fixed (not derived from the thread
/// count) so results are reproducible across parallelism settings.
inline constexpr int64_t kDefaultMorselRows = 16 * 1024;

/// \brief Per-call execution options of the parallel kernels.
struct ParallelOptions {
  /// Upper bound on threads used by this call; 0 = ExecThreads().
  int num_threads = 0;
  /// Morsel/chunk granularity in rows. Determines split boundaries (and
  /// hence output row order and FP merge order) independent of threads.
  int64_t morsel_rows = kDefaultMorselRows;

  /// The single resolution point every kernel uses.
  int ResolvedThreads() const {
    return num_threads > 0 ? num_threads : ExecThreads();
  }
  int64_t ResolvedGrain() const {
    return morsel_rows > 0 ? morsel_rows : kDefaultMorselRows;
  }
};

/// \brief Builds the per-morsel plan over a range-restricted TableScan of
/// the source. Called once per morsel, possibly concurrently; the returned
/// operator tree is drained by one thread.
using MorselPlanFactory =
    std::function<Result<OperatorPtr>(OperatorPtr morsel_source)>;

/// \brief Zone-map morsel pruning hook: returns true when the morsel
/// spanning source rows [begin, end) can be skipped entirely — i.e. the
/// per-morsel plan provably emits no rows for it. Built from pushed-down
/// predicates and the source columns' zone maps (MakeZonePrune).
using MorselPruneFn = std::function<bool(int64_t begin, int64_t end)>;

/// \brief Builds a MorselPruneFn from the pushdown conjuncts whose columns
/// carry zone maps (see exec/scan.h MorselMayMatch); nullptr when none do —
/// callers treat nullptr as "never prune".
MorselPruneFn MakeZonePrune(std::shared_ptr<const Table> table,
                            std::vector<ColumnPredicate> preds);

/// \brief The Exchange-style driver: splits `input` into row-range morsels,
/// drains `make_plan(scan-of-morsel)` for each on the shared pool, and
/// concatenates the per-morsel outputs in morsel order. Morsels rejected by
/// `prune` contribute no rows and are never scanned or decoded.
///
/// Works for any streaming per-row plan (filter, project, rename, ...).
/// Blocking operators (join, aggregate, sort) must not be put inside
/// `make_plan` — they would compute per-morsel results, not a global one;
/// use ParallelHashJoin / ParallelHashAggregate instead.
Result<Table> ParallelCollect(std::shared_ptr<const Table> input,
                              const MorselPlanFactory& make_plan,
                              const MorselPruneFn& prune,
                              const ParallelOptions& options = {});
/// \brief Overload without pruning.
Result<Table> ParallelCollect(std::shared_ptr<const Table> input,
                              const MorselPlanFactory& make_plan,
                              const ParallelOptions& options = {});
/// \brief Convenience overload copying `input` into shared ownership.
Result<Table> ParallelCollect(Table input, const MorselPlanFactory& make_plan,
                              const ParallelOptions& options = {});

/// \name Morsel-parallel streaming kernels (σ, π, fused σ→π)
///
/// ParallelFilter and ParallelFilterProject extract the pushable conjuncts
/// of the predicate (exec/filter.h) and skip morsels their zone maps rule
/// out. Under the `vectorized` knob (exec/vectorized.h, on by default),
/// predicates that decompose completely into pushable conjuncts — and
/// column-ref/literal projections — run on the fused selection-vector path:
/// conjunct-at-a-time evaluation into a selection vector (encoded-aware
/// first pass, tight typed refinement passes) with one materialization per
/// morsel at the pipeline's end. With the knob off (or an ineligible
/// shape), the table-at-a-time interpreter path runs, with ParallelFilter's
/// single-comparison encoded fast path still bypassing the interpreter.
/// Every path returns rows bit-identical to the serial FilterOp/ProjectOp.
/// @{
Result<Table> ParallelFilter(std::shared_ptr<const Table> input,
                             const ExprPtr& predicate,
                             const ParallelOptions& options = {});
Result<Table> ParallelProject(std::shared_ptr<const Table> input,
                              const std::vector<ProjectionSpec>& outputs,
                              const ParallelOptions& options = {});
/// Fused σ→π over each morsel (one pass, no intermediate materialization).
Result<Table> ParallelFilterProject(std::shared_ptr<const Table> input,
                                    const ExprPtr& predicate,
                                    const std::vector<ProjectionSpec>& outputs,
                                    const ParallelOptions& options = {});
/// @}

/// \brief Parallel hash join over materialized sides. One NULL-free INT64
/// key on each side takes the typed join (flat build index, two-pass
/// morsel probe into precomputed offsets, one gather per output column);
/// any other key list a partitioned parallel build (per-chunk bucket
/// scatter, per-partition table build) and morsel-parallel probe. Output
/// rows are in probe-row-major order with build matches in build-row order
/// — exactly the serial HashJoinOp order, at any thread count. Each call
/// reports its rows and time to the context's KernelStats (NoteHashJoin).
Result<Table> ParallelHashJoin(const Table& probe, const Table& build,
                               const std::vector<std::string>& probe_keys,
                               const std::vector<std::string>& build_keys,
                               JoinType type = JoinType::kInner,
                               const ParallelOptions& options = {});

/// \brief Parallel hash aggregation: per-chunk partial states merged in
/// chunk order (so group order matches global first-appearance order, like
/// the serial operator). One NULL-free INT64 key over NULL-free numeric
/// inputs runs the typed fold (exec/typed_fold.h), every other shape the
/// AccState fold; both keep that association. Defined in aggregate.cc
/// next to the serial kernel.
Result<Table> ParallelHashAggregate(const Table& input,
                                    const std::vector<std::string>& group_by,
                                    const std::vector<AggSpec>& aggs,
                                    const ParallelOptions& options = {});

/// \brief Operator wrapper over ParallelHashJoin: materializes both
/// children, joins in parallel, emits the result as one batch. This is what
/// PlanBuilder::Join builds, so every plan in the system (coordinator
/// supersteps, sqlgraph algorithms, pipeline nodes) joins in parallel.
class ParallelHashJoinOp : public Operator {
 public:
  ParallelHashJoinOp(OperatorPtr probe, OperatorPtr build,
                     std::vector<std::string> probe_keys,
                     std::vector<std::string> build_keys,
                     JoinType type = JoinType::kInner,
                     ParallelOptions options = {});

  const Schema& output_schema() const override { return schema_; }
  Result<std::optional<Table>> Next() override;

  std::string label() const override;
  std::vector<const Operator*> children() const override {
    return {probe_.get(), build_.get()};
  }

 private:
  OperatorPtr probe_;
  OperatorPtr build_;
  std::vector<std::string> probe_keys_;
  std::vector<std::string> build_keys_;
  JoinType type_;
  ParallelOptions options_;
  Schema schema_;
  Status init_status_;
  bool done_ = false;
};

/// \brief Operator wrapper over ParallelHashAggregate; built by
/// PlanBuilder::Aggregate.
class ParallelAggregateOp : public Operator {
 public:
  ParallelAggregateOp(OperatorPtr input, std::vector<std::string> group_by,
                      std::vector<AggSpec> aggs, ParallelOptions options = {});

  const Schema& output_schema() const override { return schema_; }
  Result<std::optional<Table>> Next() override;

  std::string label() const override;
  std::vector<const Operator*> children() const override {
    return {input_.get()};
  }

 private:
  OperatorPtr input_;
  std::vector<std::string> group_by_;
  std::vector<AggSpec> aggs_;
  ParallelOptions options_;
  Schema schema_;
  Status init_status_;
  bool done_ = false;
};

}  // namespace vertexica

#endif  // VERTEXICA_EXEC_PARALLEL_H_
