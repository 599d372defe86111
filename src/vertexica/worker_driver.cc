#include "vertexica/worker_driver.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <type_traits>
#include <unordered_set>

#include "common/exec_knobs.h"
#include "common/hash.h"
#include "common/string_util.h"
#include "common/threadpool.h"
#include "exec/kernel_stats.h"
#include "exec/parallel.h"
#include "exec/typed_fold.h"
#include "storage/sort.h"
#include "vertexica/graph_tables.h"

namespace vertexica {

namespace {

/// `table`'s column `name`, required to have type `type`.
Result<const Column*> TypedColumn(const Table& table, const std::string& name,
                                  DataType type) {
  VX_ASSIGN_OR_RETURN(int c, table.ColumnIndex(name));
  const Column& col = table.column(c);
  if (col.type() != type) {
    return Status::InvalidArgument(StringFormat(
        "worker input column '%s' is %s, expected %s", name.c_str(),
        DataTypeName(col.type()), DataTypeName(type)));
  }
  return &col;
}

/// The doubles of columns prefix0..prefix{n-1} of `table`.
Result<std::vector<const std::vector<double>*>> DoubleColumns(
    const Table& table, const char* prefix, int n) {
  std::vector<const std::vector<double>*> cols;
  for (int i = 0; i < n; ++i) {
    VX_ASSIGN_OR_RETURN(
        const Column* col,
        TypedColumn(table, StringFormat("%s%d", prefix, i), DataType::kDouble));
    cols.push_back(&col->doubles());
  }
  return cols;
}

/// `rows` (each with key keys[row]) grouped stably by vertex-batching
/// partition, each partition's rows then stably ordered by key — the row
/// order a stable hash partition plus a stable per-partition sort gives.
/// Partition p owns rows[begin[p], begin[p + 1]).
struct Batches {
  std::vector<int64_t> rows;
  std::vector<size_t> begin;
};

/// Sorts the candidates stably by key first, then scatters them stably by
/// partition: within each partition that is the same (key, candidate
/// position) order as sorting each partition after the scatter.
Batches BatchRows(std::vector<int64_t> candidates,
                  const std::vector<int64_t>& keys, int num_partitions) {
  const auto by_key = [&keys](int64_t a, int64_t c) {
    return keys[static_cast<size_t>(a)] < keys[static_cast<size_t>(c)];
  };
  if (!std::is_sorted(candidates.begin(), candidates.end(), by_key)) {
    RadixSortRows(keys, /*ascending=*/true, &candidates);
  }
  const auto parts = static_cast<size_t>(num_partitions);
  std::vector<int> part_of(candidates.size());
  Batches b;
  b.begin.assign(parts + 1, 0);
  for (size_t i = 0; i < candidates.size(); ++i) {
    part_of[i] = PartitionOf(keys[static_cast<size_t>(candidates[i])],
                             num_partitions);
    ++b.begin[static_cast<size_t>(part_of[i]) + 1];
  }
  for (size_t p = 0; p < parts; ++p) b.begin[p + 1] += b.begin[p];
  b.rows.resize(candidates.size());
  std::vector<size_t> cursor(b.begin.begin(), b.begin.end() - 1);
  for (size_t i = 0; i < candidates.size(); ++i) {
    b.rows[cursor[static_cast<size_t>(part_of[i])]++] = candidates[i];
  }
  return b;
}

/// Concatenates `field(sink)` over `sinks` in order, releasing each sink's
/// vector as it is read.
template <typename Field>
auto Gather(std::vector<WorkerSink>& sinks, const Field& field) {
  using Vec = std::decay_t<decltype(field(sinks[0]))>;
  size_t n = 0;
  for (WorkerSink& s : sinks) n += field(s).size();
  Vec out;
  out.reserve(n);
  for (WorkerSink& s : sinks) {
    Vec& v = field(s);
    out.insert(out.end(), v.begin(), v.end());
    v = Vec{};
  }
  return out;
}

/// Runs `body(p, sink)` for every partition on the pool and concatenates
/// the sinks' updates and aggregator partials in partition order; the
/// messages stay in the sinks for CollectMessages.
template <typename Body>
Result<WorkerOutput> RunPartitions(const WorkerSharedState& shared,
                                   const WorkerParallelism& par,
                                   const Body& body) {
  const int va = shared.program->value_arity();
  const int ma = shared.program->message_arity();
  std::vector<WorkerSink> sinks(static_cast<size_t>(par.partitions),
                                WorkerSink(va, ma));
  VX_RETURN_NOT_OK(ThreadPool::Default()->ParallelFor(
      0, sinks.size(), /*grain=*/1,
      [&](size_t begin, size_t end) -> Status {
        for (size_t p = begin; p < end; ++p) body(p, &sinks[p]);
        return Status::OK();
      },
      par.workers));

  WorkerOutput out;
  std::vector<Column> ucols;
  ucols.push_back(Column::FromInts(
      Gather(sinks, [](WorkerSink& s) -> auto& { return s.update_id; })));
  ucols.push_back(Column::FromBools(
      Gather(sinks, [](WorkerSink& s) -> auto& { return s.update_halted; })));
  for (int c = 0; c < va; ++c) {
    ucols.push_back(
        Column::FromDoubles(Gather(sinks, [c](WorkerSink& s) -> auto& {
          return s.update_values[static_cast<size_t>(c)];
        })));
  }
  out.aggregate_rows =
      Gather(sinks, [](WorkerSink& s) -> auto& { return s.aggregate_rows; });
  for (const WorkerSink& s : sinks) out.active += s.active;
  // materialize-ok: the worker output itself — the updates to apply.
  VX_ASSIGN_OR_RETURN(out.updates,
                      Table::Make(MakeVertexSchema(va), std::move(ucols)));
  NoteMaterialized(out.updates);
  out.message_sinks = std::move(sinks);
  return out;
}

/// The combined message columns (src = −1, dst, m0..): the sinks'
/// concatenated messages folded per receiver by the typed fold
/// (exec/typed_fold.h) in chunks of kDefaultMorselRows rows — the
/// association of the chunk-parallel hash aggregate.
Result<std::vector<Column>> CombineSinks(const std::vector<WorkerSink>& sinks,
                                         int arity, AggOp op) {
  // offset[k]: global row of sink k's first message.
  std::vector<size_t> offset(sinks.size() + 1, 0);
  for (size_t k = 0; k < sinks.size(); ++k) {
    offset[k + 1] = offset[k] + sinks[k].messages.dst.size();
  }
  const std::vector<FoldSpec> specs(static_cast<size_t>(arity),
                                    FoldSpec{op, DataType::kDouble});
  VX_ASSIGN_OR_RETURN(
      TypedFold fold,
      ParallelTypedFold(
          specs, offset.back(), static_cast<size_t>(kDefaultMorselRows),
          ExecThreads(), [&](size_t row, size_t stop, const auto& body) {
            // The sink slices of rows [row, stop).
            auto k = static_cast<size_t>(
                std::upper_bound(offset.begin(), offset.end(), row) -
                offset.begin() - 1);
            std::vector<FoldInput> inputs(specs.size());
            for (; row < stop; ++k) {
              const WorkerSink& s = sinks[k];
              const size_t i = row - offset[k];
              const size_t last = std::min(offset[k + 1], stop) - offset[k];
              for (size_t c = 0; c < inputs.size(); ++c) {
                inputs[c].doubles = s.messages.values[c].data() + i;
              }
              body(s.messages.dst.data() + i, inputs.data(), last - i);
              row = offset[k] + last;
            }
          }));
  std::vector<Column> cols = std::move(fold).TakeColumns();
  cols.insert(cols.begin(), Column::FromInts(std::vector<int64_t>(
                                static_cast<size_t>(cols[0].length()), -1)));
  return cols;
}

/// The message table's columns: folded per receiver, or concatenated.
Result<std::vector<Column>> MessageTableColumns(
    std::vector<WorkerSink>& sinks, int message_arity,
    MessageCombiner combiner) {
  switch (combiner) {
    case MessageCombiner::kSum:
      return CombineSinks(sinks, message_arity, AggOp::kSum);
    case MessageCombiner::kMin:
      return CombineSinks(sinks, message_arity, AggOp::kMin);
    case MessageCombiner::kMax:
      return CombineSinks(sinks, message_arity, AggOp::kMax);
    case MessageCombiner::kNone:
      break;
  }
  std::vector<Column> cols;
  cols.push_back(Column::FromInts(
      Gather(sinks, [](WorkerSink& s) -> auto& { return s.messages.src; })));
  cols.push_back(Column::FromInts(
      Gather(sinks, [](WorkerSink& s) -> auto& { return s.messages.dst; })));
  for (int c = 0; c < message_arity; ++c) {
    cols.push_back(
        Column::FromDoubles(Gather(sinks, [c](WorkerSink& s) -> auto& {
          return s.messages.values[static_cast<size_t>(c)];
        })));
  }
  return cols;
}

}  // namespace

WorkerParallelism ResolveWorkerParallelism(int num_partitions,
                                           int num_workers) {
  WorkerParallelism out;
  out.partitions = num_partitions > 0 ? num_partitions : kVertexBatchPartitions;
  out.workers = num_workers > 0 ? num_workers : ExecThreads();
  out.workers = std::max(1, std::min(out.workers, out.partitions));
  return out;
}

std::vector<int64_t> FrontierVertexRows(const std::vector<int64_t>& ids,
                                        const Bitvector& frontier) {
  std::vector<int64_t> rows;
  const auto n = static_cast<int64_t>(ids.size());
  frontier.ForEachSetBit([&](int64_t r) {
    const int64_t id = ids[static_cast<size_t>(r)];
    if (!rows.empty() && ids[static_cast<size_t>(rows.back())] == id) return;
    while (r + 1 < n && ids[static_cast<size_t>(r + 1)] == id) ++r;
    rows.push_back(r);
  });
  return rows;
}

Result<WorkerOutput> RunUnionWorkers(const WorkerSharedState& shared,
                                     const UnionWorkerInput& in,
                                     const WorkerParallelism& par) {
  const int va = shared.program->value_arity();
  const int ma = shared.program->message_arity();
  const Table& vertex = *in.vertex;
  VX_ASSIGN_OR_RETURN(const Column* id_col,
                      TypedColumn(vertex, "id", DataType::kInt64));
  VX_ASSIGN_OR_RETURN(const Column* halted_col,
                      TypedColumn(vertex, "halted", DataType::kBool));
  VX_ASSIGN_OR_RETURN(auto vcols, DoubleColumns(vertex, "v", va));
  VX_ASSIGN_OR_RETURN(const Column* edst_col,
                      TypedColumn(*in.edge, "dst", DataType::kInt64));
  VX_ASSIGN_OR_RETURN(const Column* weight_col,
                      TypedColumn(*in.edge, "weight", DataType::kDouble));
  VX_ASSIGN_OR_RETURN(auto mcols, DoubleColumns(*in.message, "m", ma));
  const std::vector<int64_t>& ids = id_col->ints();
  const std::vector<uint8_t>& halted = halted_col->bools();
  const std::vector<int64_t>& edst = edst_col->ints();
  const std::vector<double>& weight = weight_col->doubles();

  // The visited vertex rows: every row, or on frontier supersteps the
  // active id groups' last rows.
  std::vector<int64_t> candidates;
  if (in.frontier != nullptr) {
    candidates = FrontierVertexRows(ids, *in.frontier);
  } else {
    candidates.resize(ids.size());
    std::iota(candidates.begin(), candidates.end(), int64_t{0});
  }
  const Batches batches =
      BatchRows(std::move(candidates), ids, par.partitions);

  // Edges sorted by src (a loader-built table) are read in place; in any
  // other row order each vertex's slice is gathered.
  const bool edges_in_place = in.edge_index->identity_order();
  return RunPartitions(shared, par, [&](size_t p, WorkerSink* sink) {
    VertexRunner runner(&shared);
    std::vector<double> value(static_cast<size_t>(va));
    std::vector<double> msg(static_cast<size_t>(ma));
    std::vector<int64_t> edge_dst;
    std::vector<double> edge_weight;
    const size_t end = batches.begin[p + 1];
    for (size_t i = batches.begin[p]; i < end; ++i) {
      // A duplicated id is one vertex: its last row (stable order) wins.
      const auto row = static_cast<size_t>(batches.rows[i]);
      const int64_t id = ids[row];
      if (i + 1 < end &&
          ids[static_cast<size_t>(batches.rows[i + 1])] == id) {
        continue;
      }
      for (size_t c = 0; c < value.size(); ++c) value[c] = (*vcols[c])[row];
      runner.BeginVertex(id, halted[row] != 0, value.data());
      const CsrIndex::Slice es = in.edge_index->NeighborSlice(id);
      if (edges_in_place) {
        const auto first = static_cast<size_t>(es.begin);
        runner.SetEdges(edst.data() + first, weight.data() + first,
                        es.length());
      } else {
        edge_dst.clear();
        edge_weight.clear();
        for (int64_t e = es.begin; e < es.end; ++e) {
          const auto er = static_cast<size_t>(in.edge_index->Row(e));
          edge_dst.push_back(edst[er]);
          edge_weight.push_back(weight[er]);
        }
        runner.SetEdges(edge_dst.data(), edge_weight.data(), es.length());
      }
      const CsrIndex::Slice ms = in.message_index->NeighborSlice(id);
      for (int64_t m = ms.begin; m < ms.end; ++m) {
        const auto mr = static_cast<size_t>(in.message_index->Row(m));
        for (size_t c = 0; c < msg.size(); ++c) msg[c] = (*mcols[c])[mr];
        runner.AddMessage(msg.data());
      }
      runner.FinishVertex(sink);
    }
    runner.EmitAggregates(sink);
  });
}

Result<WorkerOutput> RunJoinWorkers(const WorkerSharedState& shared,
                                    const Table& input,
                                    const WorkerParallelism& par) {
  const Schema& s = input.schema();
  const int va = shared.program->value_arity();
  const int ma = shared.program->message_arity();
  const int id_c = s.FieldIndex("id");
  const int halted_c = s.FieldIndex("halted");
  const int msg_seq_c = s.FieldIndex("msg_seq");
  const int edge_seq_c = s.FieldIndex("edge_seq");
  const int edst_c = s.FieldIndex("edst");
  const int eweight_c = s.FieldIndex("eweight");
  if (id_c < 0 || halted_c < 0 || msg_seq_c < 0 || edge_seq_c < 0 ||
      edst_c < 0 || eweight_c < 0 ||
      input.column(id_c).type() != DataType::kInt64) {
    return Status::Internal("join worker: unexpected input schema " +
                            s.ToString());
  }
  std::vector<const Column*> v_cols;
  for (int c = 0; c < va; ++c) {
    VX_ASSIGN_OR_RETURN(int i, input.ColumnIndex(StringFormat("v%d", c)));
    v_cols.push_back(&input.column(i));
  }
  std::vector<const Column*> m_cols;
  for (int c = 0; c < ma; ++c) {
    VX_ASSIGN_OR_RETURN(int i, input.ColumnIndex(StringFormat("mm%d", c)));
    m_cols.push_back(&input.column(i));
  }
  const Column& halted = input.column(halted_c);
  const Column& msg_seq = input.column(msg_seq_c);
  const Column& edge_seq = input.column(edge_seq_c);
  const Column& edst = input.column(edst_c);
  const Column& eweight = input.column(eweight_c);
  const std::vector<int64_t>& ids = input.column(id_c).ints();

  std::vector<int64_t> all_rows(ids.size());
  std::iota(all_rows.begin(), all_rows.end(), int64_t{0});
  const Batches batches =
      BatchRows(std::move(all_rows), ids, par.partitions);

  return RunPartitions(shared, par, [&](size_t p, WorkerSink* sink) {
    VertexRunner runner(&shared);
    std::vector<double> value(static_cast<size_t>(va));
    std::vector<double> msg(static_cast<size_t>(ma));
    // order-insensitive: membership tests only (dedup within one vertex's
    // row group); rows stream through in partition order.
    std::unordered_set<int64_t> seen_msgs;
    std::unordered_set<int64_t> seen_edges;
    std::vector<int64_t> edge_dst;
    std::vector<double> edge_weight;
    const size_t end = batches.begin[p + 1];
    size_t i = batches.begin[p];
    while (i < end) {
      const int64_t vid = ids[static_cast<size_t>(batches.rows[i])];
      size_t group_end = i + 1;
      while (group_end < end &&
             ids[static_cast<size_t>(batches.rows[group_end])] == vid) {
        ++group_end;
      }
      // A duplicated id is one vertex and its last row wins, as on the union
      // input: the join output is probe-row-major, so that vertex row's join
      // rows end the stable id group.
      const int64_t last = batches.rows[group_end - 1];
      for (size_t c = 0; c < value.size(); ++c) {
        value[c] = v_cols[c]->GetDouble(last);
      }
      runner.BeginVertex(vid, halted.GetBool(last), value.data());
      seen_msgs.clear();
      seen_edges.clear();
      edge_dst.clear();
      edge_weight.clear();
      for (; i < group_end; ++i) {
        const int64_t r = batches.rows[i];
        if (!msg_seq.IsNull(r) &&
            seen_msgs.insert(msg_seq.GetInt64(r)).second) {
          for (size_t c = 0; c < msg.size(); ++c) {
            msg[c] = m_cols[c]->GetDouble(r);
          }
          runner.AddMessage(msg.data());
        }
        if (!edge_seq.IsNull(r) &&
            seen_edges.insert(edge_seq.GetInt64(r)).second) {
          edge_dst.push_back(edst.GetInt64(r));
          edge_weight.push_back(eweight.GetDouble(r));
        }
      }
      runner.SetEdges(edge_dst.data(), edge_weight.data(),
                      static_cast<int64_t>(edge_dst.size()));
      runner.FinishVertex(sink);
    }
    runner.EmitAggregates(sink);
  });
}

Result<Table> CollectMessages(std::vector<WorkerSink> sinks, int message_arity,
                              MessageCombiner combiner) {
  VX_ASSIGN_OR_RETURN(std::vector<Column> cols,
                      MessageTableColumns(sinks, message_arity, combiner));
  // materialize-ok: the next superstep's message table.
  VX_ASSIGN_OR_RETURN(
      Table messages,
      Table::Make(MakeMessageSchema(message_arity), std::move(cols)));
  NoteMaterialized(messages);
  return messages;
}

}  // namespace vertexica
