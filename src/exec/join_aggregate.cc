#include "exec/join_aggregate.h"

#include <algorithm>
#include <atomic>

#include "common/threadpool.h"
#include "common/timer.h"
#include "exec/int64_join.h"
#include "exec/kernel_stats.h"

namespace vertexica {

/// One worker's buffers, reused from chunk to chunk: the chunk's row pairs
/// and, per read column, the vector its gathered values live in.
struct JoinAggregateOp::Scratch {
  std::vector<int64_t> probe_rows;
  std::vector<int64_t> build_rows;
  std::vector<std::vector<int64_t>> ints;
  std::vector<std::vector<double>> doubles;
};

namespace {

bool PlainInt64(const Column& col) {
  return col.type() == DataType::kInt64 && col.null_count() == 0;
}

/// Column `f` of the join output of `probe` and `build`.
const Column& JoinColumn(const Table& probe, const Table& build, int f) {
  return f < probe.num_columns() ? probe.column(f)
                                 : build.column(f - probe.num_columns());
}

/// `buffer[k] = values[rows[k]]`, reusing the buffer's capacity.
template <typename T>
void Gather(const std::vector<T>& values, const std::vector<int64_t>& rows,
            std::vector<T>* buffer) {
  buffer->resize(rows.size());
  T* out = buffer->data();
  for (size_t k = 0; k < rows.size(); ++k) {
    out[k] = values[static_cast<size_t>(rows[k])];
  }
}

}  // namespace

OperatorPtr JoinAggregateOp::TryFuse(
    std::unique_ptr<ParallelAggregateOp>& aggregate) {
  if (!aggregate->init_status().ok() || aggregate->group_by().size() != 1) {
    return nullptr;
  }
  auto* project = dynamic_cast<ProjectOp*>(aggregate->input());
  if (project == nullptr || !project->init_status().ok()) return nullptr;
  auto* join = dynamic_cast<ParallelHashJoinOp*>(project->input());
  if (join == nullptr || !join->init_status().ok() ||
      join->type() != JoinType::kInner || join->probe_keys().size() != 1) {
    return nullptr;
  }
  const std::vector<const Operator*> sides = join->children();
  const auto int64_field = [](const Schema& schema, const std::string& name) {
    const int idx = schema.FieldIndex(name);
    return idx >= 0 && schema.field(idx).type == DataType::kInt64;
  };
  if (!int64_field(sides[0]->output_schema(), join->probe_keys()[0]) ||
      !int64_field(sides[1]->output_schema(), join->build_keys()[0])) {
    return nullptr;
  }

  // The group key: a plain reference to an INT64 join column.
  const Schema& joined = join->output_schema();
  const Schema& projected = project->output_schema();
  const std::vector<ProjectionSpec>& outputs = project->outputs();
  const int key_output = projected.FieldIndex(aggregate->group_by()[0]);
  const auto* key_ref = dynamic_cast<const ColumnRefExpr*>(
      outputs[static_cast<size_t>(key_output)].expr.get());
  if (key_ref == nullptr || !int64_field(joined, key_ref->name())) {
    return nullptr;
  }

  // Numeric aggregate inputs, and no projection output left unread.
  std::vector<bool> used(outputs.size(), false);
  used[static_cast<size_t>(key_output)] = true;
  std::vector<int> agg_outputs;
  std::vector<FoldSpec> specs;
  for (const AggSpec& agg : aggregate->aggs()) {
    if (agg.op == AggOp::kCountStar) {
      agg_outputs.push_back(-1);
      specs.push_back({AggOp::kCountStar, DataType::kInt64});
      continue;
    }
    const int idx = projected.FieldIndex(agg.input);
    const DataType type = projected.field(idx).type;
    if (agg.op != AggOp::kCount && !IsNumeric(type)) return nullptr;
    used[static_cast<size_t>(idx)] = true;
    agg_outputs.push_back(idx);
    specs.push_back({agg.op, type});
  }
  if (std::find(used.begin(), used.end(), false) != used.end()) {
    return nullptr;
  }

  std::vector<std::string> names;
  for (const ProjectionSpec& out : outputs) out.expr->CollectColumnRefs(&names);
  std::vector<int> reads;
  for (const std::string& name : names) {
    const int f = joined.FieldIndex(name);
    if (f < 0 || !IsNumeric(joined.field(f).type)) return nullptr;
    reads.push_back(f);
  }
  std::sort(reads.begin(), reads.end());
  reads.erase(std::unique(reads.begin(), reads.end()), reads.end());

  auto fused = std::unique_ptr<JoinAggregateOp>(
      new JoinAggregateOp(std::move(aggregate), project, join));
  fused->key_read_ = static_cast<int>(
      std::lower_bound(reads.begin(), reads.end(),
                       joined.FieldIndex(key_ref->name())) -
      reads.begin());
  fused->agg_outputs_ = std::move(agg_outputs);
  fused->specs_ = std::move(specs);
  for (const int f : reads) fused->read_schema_.AddField(joined.field(f));
  fused->reads_ = std::move(reads);
  return fused;
}

JoinAggregateOp::JoinAggregateOp(
    std::unique_ptr<ParallelAggregateOp> aggregate, const ProjectOp* project,
    ParallelHashJoinOp* join)
    : aggregate_(std::move(aggregate)), project_(project), join_(join) {}

std::string JoinAggregateOp::label() const {
  std::string out = "JoinAggregate(" + join_->probe_keys()[0] + " = " +
                    join_->build_keys()[0] + "; ";
  const std::vector<ProjectionSpec>& outputs = project_->outputs();
  for (size_t i = 0; i < outputs.size(); ++i) {
    if (i > 0) out += ", ";
    out += outputs[i].name + " := " + outputs[i].expr->ToString();
  }
  out += "; by: " + aggregate_->group_by()[0];
  for (const AggSpec& agg : aggregate_->aggs()) {
    out += std::string(", ") + AggOpName(agg.op);
    if (agg.op != AggOp::kCountStar) out += "(" + agg.input + ")";
  }
  return out + ") [fused morsel]";
}

Result<std::optional<Table>> JoinAggregateOp::Next() {
  if (done_) return std::optional<Table>{};
  done_ = true;
  VX_ASSIGN_OR_RETURN(const ParallelHashJoinOp::Inputs in,
                      join_->CollectInputs());
  VX_ASSIGN_OR_RETURN(std::optional<Table> out,
                      RunFused(*in.probe, *in.build));
  if (out.has_value()) return out;
  // A precondition failed on the data: the three operators, which join
  // the inputs collected above.
  return aggregate_->Next();
}

Result<std::optional<Table>> JoinAggregateOp::RunFused(const Table& probe,
                                                       const Table& build) {
  if (!ExecKnobs::Current().vectorized) return std::optional<Table>{};
  VX_ASSIGN_OR_RETURN(const int probe_key,
                      probe.ColumnIndex(join_->probe_keys()[0]));
  VX_ASSIGN_OR_RETURN(const int build_key,
                      build.ColumnIndex(join_->build_keys()[0]));
  if (!PlainInt64(probe.column(probe_key)) ||
      !PlainInt64(build.column(build_key))) {
    return std::optional<Table>{};
  }
  // Every read column, the group key's included, must be NULL-free.
  for (const int f : reads_) {
    if (JoinColumn(probe, build, f).null_count() != 0) {
      return std::optional<Table>{};
    }
  }

  WallTimer timer;
  const ParallelOptions& join_options = join_->options();
  VX_ASSIGN_OR_RETURN(
      const Int64JoinProbe join,
      Int64JoinProbe::Make(probe.column(probe_key), build.column(build_key),
                           JoinType::kInner, join_options.ResolvedThreads(),
                           join_options.ResolvedGrain()));
  const int64_t rows = join.output_rows();
  const int64_t grain = aggregate_->options().ResolvedGrain();
  const auto num_chunks = static_cast<size_t>((rows + grain - 1) / grain);
  std::vector<std::optional<TypedFold>> partials(num_chunks);

  // One task per worker, each claiming chunks until none are left, so its
  // scratch is reused from chunk to chunk.
  const size_t workers = std::min(
      num_chunks,
      static_cast<size_t>(aggregate_->options().ResolvedThreads()));
  std::atomic<size_t> next_chunk{0};
  std::atomic<bool> fallback{false};
  VX_RETURN_NOT_OK(ThreadPool::Default()->ParallelFor(
      0, workers, 1,
      [&](size_t, size_t) -> Status {
        Scratch scratch;
        scratch.ints.resize(reads_.size());
        scratch.doubles.resize(reads_.size());
        for (size_t j = next_chunk.fetch_add(1);
             j < num_chunks && !fallback.load(std::memory_order_relaxed);
             j = next_chunk.fetch_add(1)) {
          VX_RETURN_NOT_OK(ExecKnobs::Current().cancel.Check());
          const auto begin = static_cast<int64_t>(j) * grain;
          VX_ASSIGN_OR_RETURN(
              const bool folded,
              FoldRange(probe, build, join, begin,
                        std::min(rows, begin + grain), &scratch,
                        &partials[j]));
          if (!folded) fallback.store(true, std::memory_order_relaxed);
        }
        return Status::OK();
      },
      static_cast<int>(workers)));
  if (fallback.load()) return std::optional<Table>{};

  TypedFold merged = MergeChunkPartials(specs_, partials);
  // materialize-ok: the aggregate's result, built as ParallelHashAggregate
  // builds it.
  VX_ASSIGN_OR_RETURN(Table out, Table::Make(output_schema(),
                                             std::move(merged).TakeColumns()));
  NoteHashJoin(rows, static_cast<int64_t>(timer.ElapsedSeconds() * 1e9));
  NoteFusedBatch(static_cast<int64_t>(num_chunks));
  return std::optional<Table>(std::move(out));
}

Result<bool> JoinAggregateOp::FoldRange(
    const Table& probe, const Table& build, const Int64JoinProbe& join,
    int64_t begin, int64_t end, Scratch* scratch,
    std::optional<TypedFold>* partial) const {
  Scratch& s = *scratch;
  s.probe_rows.clear();
  s.build_rows.clear();
  join.ForEachInnerPair(begin, end, [&s](int64_t probe_row,
                                         int64_t build_row) {
    s.probe_rows.push_back(probe_row);
    s.build_rows.push_back(build_row);
  });

  // The read columns of this chunk's join output rows, gathered into the
  // scratch buffers.
  std::vector<Column> columns;
  columns.reserve(reads_.size());
  for (size_t r = 0; r < reads_.size(); ++r) {
    const int f = reads_[r];
    const Column& col = JoinColumn(probe, build, f);
    const std::vector<int64_t>& rows =
        f < probe.num_columns() ? s.probe_rows : s.build_rows;
    if (col.type() == DataType::kInt64) {
      Gather(col.ints(), rows, &s.ints[r]);
      columns.push_back(Column::FromInts(std::move(s.ints[r])));
    } else {
      Gather(col.doubles(), rows, &s.doubles[r]);
      columns.push_back(Column::FromDoubles(std::move(s.doubles[r])));
    }
  }
  // materialize-ok: the chunk's read columns, the batch the projection's
  // expressions evaluate over; their buffers are the scratch.
  VX_ASSIGN_OR_RETURN(Table chunk, Table::Make(read_schema_,
                                               std::move(columns)));

  // The projection outputs the aggregates read, each evaluated once; an
  // error or a NULL input sends the whole plan down the three operators.
  const std::vector<ProjectionSpec>& outputs = project_->outputs();
  std::vector<Column> owned(outputs.size());
  std::vector<const Column*> values(outputs.size(), nullptr);
  for (const int o : agg_outputs_) {
    if (o < 0 || values[static_cast<size_t>(o)] != nullptr) continue;
    const Expr& expr = *outputs[static_cast<size_t>(o)].expr;
    const Column* value = expr.Borrow(chunk);
    if (value == nullptr) {
      Result<Column> evaluated = expr.Evaluate(chunk);
      if (!evaluated.ok()) return false;
      owned[static_cast<size_t>(o)] = *std::move(evaluated);
      value = &owned[static_cast<size_t>(o)];
    }
    if (value->null_count() != 0) return false;
    values[static_cast<size_t>(o)] = value;
  }

  const int64_t* keys = chunk.column(key_read_).ints().data();
  std::vector<FoldInput> inputs(specs_.size());
  for (size_t a = 0; a < specs_.size(); ++a) {
    const AggOp op = specs_[a].op;
    if (op == AggOp::kCount || op == AggOp::kCountStar) continue;
    const Column& value = *values[static_cast<size_t>(agg_outputs_[a])];
    if (value.type() == DataType::kInt64) {
      inputs[a].ints = value.ints().data();
    } else {
      inputs[a].doubles = value.doubles().data();
    }
  }
  partial->emplace(
      FoldChunk(specs_, keys, inputs.data(), s.probe_rows.size()));

  // The buffers go back to the scratch for the next chunk.
  for (size_t r = 0; r < reads_.size(); ++r) {
    Column& col = *chunk.mutable_column(static_cast<int>(r));
    if (col.type() == DataType::kInt64) {
      s.ints[r] = std::move(*col.mutable_ints());
    } else {
      s.doubles[r] = std::move(*col.mutable_doubles());
    }
  }
  return true;
}

}  // namespace vertexica
