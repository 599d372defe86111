/// \file join_aggregate.h
/// \brief Join → project → aggregate as one morsel pipeline.
///
/// The per-round query of the SQL graph algorithms is an inner join on one
/// INT64 key, a projection of the joined rows and a GROUP BY on one column:
/// `SUM(rank / outdeg)` per destination for PageRank, `MIN(dist + weight)`
/// for shortest paths, `MIN(label)` for connected components. As three
/// operators it materializes the whole join output, then the whole
/// projection, and only then folds them. JoinAggregateOp runs the three as
/// one pipeline over chunks of the join output. Per chunk it:
///   1. enumerates the chunk's (probe row, build row) pairs through the
///      build side's CsrIndex (Int64JoinProbe, exec/int64_join.h);
///   2. gathers only the columns the projection reads into per-worker
///      scratch, reused from chunk to chunk, and evaluates the projection's
///      expressions over them;
///   3. folds the result into the chunk's TypedFold partial
///      (exec/typed_fold.h).
/// The partials then merge in chunk order. Nothing the length of the join
/// output is allocated.
///
/// Fold order, the contract that keeps the result bit-identical to the
/// three operators: chunks break at output-row multiples of the aggregate's
/// grain, and each holds the join's rows in probe-major, build-row order,
/// so every chunk folds exactly the rows ParallelHashAggregate's chunk
/// would. Groups keep first-appearance order, and the projection is
/// evaluated by the same expression code.
///
/// PlanBuilder::Aggregate builds the node for one plan shape: an inner
/// ParallelHashJoinOp on one INT64 key, under a ProjectOp that reads only
/// INT64 and DOUBLE join columns and whose every output is the group key
/// or an aggregate input, under a GROUP BY on one output that is a plain
/// reference to an INT64 join column, with INT64 or DOUBLE inputs to SUM,
/// MIN, MAX and AVG. The rest is checked when the data arrives, and any
/// failure runs the three operators instead: the `vectorized` knob is on,
/// both join keys and every column the projection reads are NULL-free,
/// and the projection evaluates without error and yields no NULL
/// aggregate input.
///
/// Counters: the join is reported like ParallelHashJoin's (NoteHashJoin:
/// one join, its output rows and the whole pipeline's time) and each folded
/// chunk as one fused batch. Nothing is counted as materialized: the
/// chunk scratch is bounded by the grain and reused. A fallback reports
/// what the three operators report.

#ifndef VERTEXICA_EXEC_JOIN_AGGREGATE_H_
#define VERTEXICA_EXEC_JOIN_AGGREGATE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/parallel.h"
#include "exec/typed_fold.h"

namespace vertexica {

class Int64JoinProbe;

class JoinAggregateOp : public Operator {
 public:
  /// \brief The fused node over `aggregate` when its plan has the shape
  /// above; nullptr, leaving `aggregate` untouched, otherwise.
  static OperatorPtr TryFuse(std::unique_ptr<ParallelAggregateOp>& aggregate);

  const Schema& output_schema() const override {
    return aggregate_->output_schema();
  }
  Result<std::optional<Table>> Next() override;

  std::string label() const override;
  /// The join's inputs: the join and projection run inside this node.
  std::vector<const Operator*> children() const override {
    return join_->children();
  }

 private:
  struct Scratch;

  JoinAggregateOp(std::unique_ptr<ParallelAggregateOp> aggregate,
                  const ProjectOp* project, ParallelHashJoinOp* join);

  /// The pipeline's result; nullopt when a precondition fails on the data.
  Result<std::optional<Table>> RunFused(const Table& probe,
                                        const Table& build);
  /// Folds join output rows [begin, end) into `*partial`; false when a
  /// precondition fails on these rows.
  Result<bool> FoldRange(const Table& probe, const Table& build,
                         const Int64JoinProbe& join, int64_t begin,
                         int64_t end, Scratch* scratch,
                         std::optional<TypedFold>* partial) const;

  /// The three-operator plan: aggregate over projection over join.
  std::unique_ptr<ParallelAggregateOp> aggregate_;
  const ProjectOp* project_;
  ParallelHashJoinOp* join_;
  /// Position in reads_ of the group key's column (the projection's plain
  /// reference).
  int key_read_ = -1;
  /// Projection output of each aggregate's input; -1 for COUNT(*).
  std::vector<int> agg_outputs_;
  std::vector<FoldSpec> specs_;
  /// The join output columns the projection reads, ascending, and their
  /// fields.
  std::vector<int> reads_;
  Schema read_schema_;
  bool done_ = false;
};

}  // namespace vertexica

#endif  // VERTEXICA_EXEC_JOIN_AGGREGATE_H_
