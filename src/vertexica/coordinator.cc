#include "vertexica/coordinator.h"

#include <algorithm>
#include <cstring>
#include <ostream>
#include <sstream>

#include "catalog/catalog_io.h"
#include "common/exec_knobs.h"
#include "common/fault_injection.h"
#include "common/string_util.h"
#include "common/threadpool.h"
#include "common/timer.h"
#include "exec/kernel_stats.h"
#include "exec/parallel.h"
#include "exec/plan_builder.h"
#include "storage/compression.h"
#include "storage/sort.h"
#include "vertexica/worker_driver.h"

namespace vertexica {

namespace {

/// True when every vertex has voted to halt. With `halted_count` the scan
/// also counts the halted vertices (one full pass — the frontier path's
/// threshold decision reuses this instead of a second traversal); without
/// it the scan exits at the first non-halted vertex.
bool AllHalted(const Table& vertex, int64_t* halted_count = nullptr) {
  const Column* halted = vertex.ColumnByName("halted");
  if (halted == nullptr) {
    if (halted_count != nullptr) *halted_count = 0;
    return false;
  }
  // Encoded at load time (and kept so until a superstep rewrites it): one
  // comparison per run instead of per vertex.
  if (const auto* runs = halted->rle_runs()) {
    int64_t count = 0;
    for (const RleRun& run : *runs) {
      if (run.value != 0) {
        count += run.length;
      } else if (halted_count == nullptr) {
        return false;
      }
    }
    if (halted_count != nullptr) *halted_count = count;
    return count == vertex.num_rows();
  }
  // Plain path, word-at-a-time: AppendBool stores canonical 0/1 bytes, so
  // an all-halted word compares equal to kAllHalted and the per-word halted
  // count is just its popcount.
  constexpr uint64_t kAllHalted = 0x0101010101010101ull;
  const std::vector<uint8_t>& bytes = halted->bools();
  const size_t n = bytes.size();
  int64_t count = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t word;
    std::memcpy(&word, bytes.data() + i, sizeof(word));
    if (halted_count == nullptr) {
      if (word != kAllHalted) return false;
    } else {
      count += __builtin_popcountll(word);
    }
  }
  for (; i < n; ++i) {
    if (bytes[i] != 0) {
      ++count;
    } else if (halted_count == nullptr) {
      return false;
    }
  }
  if (halted_count != nullptr) *halted_count = count;
  return halted_count == nullptr || count == static_cast<int64_t>(n);
}

/// Actual vs. plain footprint of a stored table (SuperstepStats counters).
void AccountTableBytes(const Table& t, int64_t* encoded, int64_t* decoded) {
  for (int c = 0; c < t.num_columns(); ++c) {
    *encoded += EncodedByteSize(t.column(c));
    *decoded += UncompressedByteSize(t.column(c));
  }
}

/// Catalog name of the checkpoint superstep marker.
std::string MarkerName(const GraphTableNames& names) {
  return names.vertex + "__vx_next_superstep";
}

/// True when `t`'s declared sort order starts with the column named
/// `name`, ascending — the check behind the vertex table's sorted-by-id
/// invariant.
bool OrderedByColumn(const Table& t, const std::string& name) {
  if (t.sort_order().empty()) return false;
  const SortKey& k = t.sort_order()[0];
  return k.ascending && t.schema().field(k.column).name == name;
}

/// The active set of one superstep: one bit per vertex row, plus its
/// popcount.
struct Frontier {
  Bitvector bits;
  int64_t active = 0;
};

/// Decides whether a superstep should take the sparse frontier path and, if
/// so, derives the active set: non-halted vertices ∪ message receivers —
/// exactly the vertices whose Compute the worker would run (worker.cc's
/// activity rule), so restricting the input to them cannot change any
/// output row.
///
/// Gates, cheapest first: the knob (`mode` off), superstep 0 (everything is
/// active by definition), and the structural precondition that the vertex
/// table is declared sorted by id — receiver lookup is then a binary search
/// per message destination, and the regimes line up: the in-place update
/// path (the sparse regime this path targets) preserves that declared
/// order, while the union-path replace rebuild (the dense regime) drops it.
/// Under `auto` the halted scan short-circuits the build: active ≥
/// non-halted, so a non-halted fraction above `threshold` is already a
/// dense verdict before any bit is set.
bool ComputeFrontier(const Table& vertex, const Table& message,
                     FrontierMode mode, int superstep, double threshold,
                     Frontier* out) {
  if (mode == FrontierMode::kOff || superstep == 0) return false;
  if (!OrderedByColumn(vertex, "id")) return false;
  const int64_t num_vertices = vertex.num_rows();
  if (num_vertices == 0) return false;
  const double budget =
      threshold * static_cast<double>(num_vertices);  // auto-mode bound

  int64_t halted_rows = 0;
  AllHalted(vertex, &halted_rows);
  const int64_t non_halted = num_vertices - halted_rows;
  if (mode == FrontierMode::kAuto &&
      static_cast<double>(non_halted) > budget) {
    return false;
  }

  Bitvector bits(num_vertices);
  // Non-halted vertices, straight from the stored halted column (RLE runs
  // when encoded — a mostly-halted column is a handful of runs).
  const Column* halted = vertex.ColumnByName("halted");
  if (halted != nullptr) {
    if (const auto* runs = halted->rle_runs()) {
      const auto& starts = *halted->rle_run_starts();
      for (size_t k = 0; k < runs->size(); ++k) {
        if ((*runs)[k].value != 0) continue;
        const int64_t end = starts[k] + (*runs)[k].length;
        for (int64_t r = starts[k]; r < end; ++r) bits.Set(r);
      }
    } else {
      const auto& bytes = halted->bools();
      for (int64_t r = 0; r < num_vertices; ++r) {
        if (bytes[static_cast<size_t>(r)] == 0) bits.Set(r);
      }
    }
  }

  // Message receivers, binary-searched against the sorted id column.
  // Destinations outside the vertex table (orphan messages) set no bit;
  // the full message table is passed through either way and the worker
  // skips those groups identically on both paths. One search per RLE run
  // when the dst column is encoded; consecutive-duplicate skip otherwise.
  const Column* dst = message.ColumnByName("dst");
  if (dst != nullptr && message.num_rows() > 0) {
    const auto& ids = vertex.ColumnByName("id")->ints();
    const auto set_receiver = [&](int64_t d) {
      const auto it = std::lower_bound(ids.begin(), ids.end(), d);
      if (it != ids.end() && *it == d) bits.Set(it - ids.begin());
    };
    if (const auto* runs = dst->rle_runs()) {
      for (const RleRun& run : *runs) set_receiver(run.value);
    } else {
      const auto& dsts = dst->ints();
      for (size_t r = 0; r < dsts.size(); ++r) {
        if (r > 0 && dsts[r] == dsts[r - 1]) continue;
        set_receiver(dsts[r]);
      }
    }
  }

  const int64_t active = bits.CountOnes();
  if (mode == FrontierMode::kAuto && static_cast<double>(active) > budget) {
    return false;
  }
  out->bits = std::move(bits);
  out->active = active;
  return true;
}

/// Folds collected aggregator partials into `aggregates` in the order
/// given — the workers' partition order.
void MergeAggregateRows(const std::vector<AggregatorSpec>& agg_specs,
                        const std::vector<std::pair<int64_t, double>>& rows,
                        std::map<std::string, double>* aggregates) {
  for (const auto& [index, partial] : rows) {
    const auto idx = static_cast<size_t>(index);
    if (idx < agg_specs.size()) {
      const auto& spec = agg_specs[idx];
      double& slot = (*aggregates)[spec.name];
      slot = MergeAggregate(spec.kind, slot, partial);
    }
  }
}

/// The CSR index over `table`'s INT64 key column `key` (edge src, message
/// dst, vertex id); InvalidArgument when the column holds NULLs or has
/// another type.
Result<std::shared_ptr<const CsrIndex>> BuildKeyIndex(const Table& table,
                                                      const std::string& key) {
  VX_ASSIGN_OR_RETURN(int c, table.ColumnIndex(key));
  auto index = CsrIndex::Build(table.column(c));
  if (index == nullptr) {
    return Status::InvalidArgument(
        "graph table column '" + key +
        "' must be a non-NULL INT64 vertex id");
  }
  // The index is read across the whole superstep (and kept across the run
  // for edges); prove once that it describes exactly this key column.
  VX_DCHECK_OK(index->CheckInvariants(table.column(c)));
  return index;
}

/// The catalog snapshot of graph table `name`; InvalidArgument unless its
/// column `key` (vertex id, edge src, message dst) is INT64, the type every
/// superstep reads it as.
Result<std::shared_ptr<const Table>> GetGraphTable(const Catalog& catalog,
                                                   const std::string& name,
                                                   const std::string& key) {
  VX_ASSIGN_OR_RETURN(auto table, catalog.GetTable(name));
  VX_ASSIGN_OR_RETURN(int c, table->ColumnIndex(key));
  if (table->column(c).type() != DataType::kInt64) {
    return Status::InvalidArgument("graph table column '" + key +
                                   "' must be an INT64 vertex id");
  }
  // Run-start audit: every superstep trusts the tables' structural claims.
  VX_DCHECK_OK(table->CheckInvariants());
  return table;
}

/// One superstep's counter block. It is installed over a copy of the
/// caller's context, so the pool carries it into every task of the step
/// and the step's join counts are read straight off it. When the step
/// ends, its counts are added to the caller's block, if there is one — a
/// sub-block, not a before/after delta of the caller's block, because a
/// caller may share one block across concurrent runs.
class ScopedStepCounters {
 public:
  ScopedStepCounters()
      : knobs_(WithCounters(ExecKnobs::Current(), &block_)), scope_(knobs_) {}
  ~ScopedStepCounters() {
    if (enclosing_ != nullptr) AddTo(Snapshot(block_), enclosing_);
  }
  ScopedStepCounters(const ScopedStepCounters&) = delete;
  ScopedStepCounters& operator=(const ScopedStepCounters&) = delete;

  const KernelStats& block() const { return block_; }

 private:
  static ExecKnobs WithCounters(ExecKnobs knobs, KernelStats* block) {
    knobs.kernel_stats = block;
    return knobs;
  }

  KernelStats block_;
  KernelStats* const enclosing_ = ExecKnobs::Current().kernel_stats;
  const ExecKnobs knobs_;
  const ScopedExecKnobs scope_;
};

}  // namespace

Coordinator::Coordinator(Catalog* catalog, VertexProgram* program,
                         VertexicaOptions options, GraphTableNames names)
    : catalog_(catalog),
      program_(program),
      options_(options),
      names_(std::move(names)) {}

Result<Coordinator::TablePtr> Coordinator::BuildEdgeJoinSide(
    const TablePtr& edge) const {
  // The edge side is identical every superstep (the coordinator never
  // rewrites the edge table): project and number it once per run and
  // reuse the shared snapshot.
  VX_ASSIGN_OR_RETURN(Table edges,
                      ParallelProject(edge, {{"esrc", Col("src")},
                                             {"edst", Col("dst")},
                                             {"eweight", Col("weight")}}));
  return std::make_shared<const Table>(WithRowNumbers(edges, "edge_seq"));
}

Result<Table> Coordinator::BuildJoinInputWithEdgeSide(
    const TablePtr& vertex, const TablePtr& edge_side,
    const TablePtr& message) const {
  const int ma = program_->message_arity();

  // The "traditional database wisdom" plan §2.3 argues against: a 3-way
  // join of vertex ⟕ message ⟕ edge. Sequence-number columns let the worker
  // undo the |messages| × |edges| fan-out per vertex. The projections run
  // morsel-parallel and the left joins are the parallel hash joins behind
  // PlanBuilder::Join.
  std::vector<ProjectionSpec> mproj = {{"mdst", Col("dst")},
                                       {"msender", Col("src")}};
  for (int i = 0; i < ma; ++i) {
    mproj.push_back({StringFormat("mm%d", i), Col(StringFormat("m%d", i))});
  }
  VX_ASSIGN_OR_RETURN(Table msgs, ParallelProject(message, mproj));
  msgs = WithRowNumbers(msgs, "msg_seq");

  // The hash joins are probe-row-major with build matches in build-row
  // order, so each vertex's messages arrive in message-table order.
  //
  // vertex columns: id, halted, v0..v{va-1}; the JoinWorker resolves them
  // by name.
  return PlanBuilder::Scan(vertex)
      .Join(PlanBuilder::Scan(std::move(msgs)), {"id"}, {"mdst"},
            JoinType::kLeft)
      .Join(PlanBuilder::Scan(edge_side), {"id"}, {"esrc"},
            JoinType::kLeft)
      .Execute();
}

Result<Coordinator::WorkerInput> Coordinator::BuildWorkerInput(
    const TablePtr& vertex, const TablePtr& edge, const CsrIndex* edge_index,
    const TablePtr& edge_join_side, const TablePtr& message,
    const Bitvector* frontier) const {
  WorkerInput in;
  if (!options_.use_union_input) {
    TablePtr probe = vertex;
    if (frontier != nullptr) {
      // Only the probe (vertex) side is restricted; the message and edge
      // build sides stay whole, so their msg_seq/edge_seq numbering — what
      // the worker uses to undo the join fan-out — is untouched. Join
      // output is probe-row-major, so dropping probe rows that produce no
      // worker output leaves the surviving rows' relative order (and the
      // per-vertex streams) bit-identical to the dense plan's.
      // Each active id group's last row — the row the workers read, as on
      // the union path.
      VX_ASSIGN_OR_RETURN(int id_c, vertex->ColumnIndex("id"));
      probe = std::make_shared<const Table>(vertex->Take(
          FrontierVertexRows(vertex->column(id_c).ints(), *frontier)));
    }
    VX_ASSIGN_OR_RETURN(
        in.join, BuildJoinInputWithEdgeSide(probe, edge_join_side, message));
    in.rows = in.join.num_rows();
    return in;
  }

  // §2.3 "Table Unions", read in place: the union of the three tables is
  // logical. Edges are read through the edge table's CSR index (built once
  // per run), messages through a one-pass grouping on their receiver.
  VX_ASSIGN_OR_RETURN(in.message_index, BuildKeyIndex(*message, "dst"));
  in.view.vertex = vertex.get();
  in.view.edge = edge.get();
  in.view.edge_index = edge_index;
  in.view.message = message.get();
  in.view.message_index = in.message_index.get();
  in.view.frontier = frontier;
  // input_rows counts the logical union: V + E + M, or on frontier
  // supersteps each active vertex row with its edge slice, plus M.
  in.rows = message->num_rows();
  if (frontier == nullptr) {
    in.rows += vertex->num_rows() + edge->num_rows();
  } else {
    const auto& ids = vertex->ColumnByName("id")->ints();
    frontier->ForEachSetBit([&](int64_t r) {
      in.rows +=
          1 + edge_index->NeighborSlice(ids[static_cast<size_t>(r)]).length();
    });
  }
  return in;
}

Result<Table> Coordinator::UpdateVerticesInPlace(const Table& vertex,
                                                 const Table& updates) const {
  const int va = program_->value_arity();
  Table out = vertex;  // copy-on-write of the stored version
  VX_ASSIGN_OR_RETURN(int id_c, out.ColumnIndex("id"));
  VX_ASSIGN_OR_RETURN(int halted_c, out.ColumnIndex("halted"));
  // The scatter rewrites halted/value cells in place but never moves rows
  // and never touches ids, so a declared sorted-by-id order survives;
  // remember it and re-declare after the mutable_column accesses below
  // conservatively drop it. (Only the id key is safe to re-declare — the
  // other columns are exactly the ones being rewritten.)
  const bool ordered_by_id = OrderedByColumn(out, "id");

  // id → rows. A duplicated id maps to its last row: the row the workers
  // read ("last row wins", vertexica/worker_driver.h) and ReadVertexValues
  // reports.
  VX_ASSIGN_OR_RETURN(const auto rows_of, BuildKeyIndex(out, "id"));

  auto& halted = *out.mutable_column(halted_c)->mutable_bools();
  std::vector<std::vector<double>*> vcols(static_cast<size_t>(va));
  for (int i = 0; i < va; ++i) {
    VX_ASSIGN_OR_RETURN(int c, out.ColumnIndex(StringFormat("v%d", i)));
    vcols[static_cast<size_t>(i)] = out.mutable_column(c)->mutable_doubles();
  }

  VX_ASSIGN_OR_RETURN(int uid_c, updates.ColumnIndex("id"));
  VX_ASSIGN_OR_RETURN(int uhalted_c, updates.ColumnIndex("halted"));
  std::vector<const std::vector<double>*> ucols(static_cast<size_t>(va));
  for (int i = 0; i < va; ++i) {
    VX_ASSIGN_OR_RETURN(int c, updates.ColumnIndex(StringFormat("v%d", i)));
    ucols[static_cast<size_t>(i)] = &updates.column(c).doubles();
  }

  // Morsel-parallel scatter: worker output contains at most one update row
  // per vertex, so every target row is written by exactly one morsel.
  const auto& uids = updates.column(uid_c).ints();
  const auto& uhalted = updates.column(uhalted_c).bools();
  VX_RETURN_NOT_OK(ThreadPool::Default()->ParallelFor(
      0, static_cast<size_t>(updates.num_rows()),
      static_cast<size_t>(kDefaultMorselRows),
      [&](size_t begin, size_t end) {
        for (size_t su = begin; su < end; ++su) {
          const CsrIndex::Slice rows = rows_of->NeighborSlice(uids[su]);
          if (rows.length() == 0) continue;
          const auto sr = static_cast<size_t>(rows_of->Row(rows.end - 1));
          halted[sr] = uhalted[su];
          for (int i = 0; i < va; ++i) {
            (*vcols[static_cast<size_t>(i)])[sr] =
                (*ucols[static_cast<size_t>(i)])[su];
          }
        }
        return Status::OK();
      },
      ExecThreads()));
  if (ordered_by_id) out.SetSortOrder({{id_c, true}});
  return out;
}

MessageCombiner Coordinator::ActiveCombiner() const {
  return options_.use_combiner ? program_->combiner() : MessageCombiner::kNone;
}

Result<Table> Coordinator::RebuildVertices(const Table& vertex,
                                           const Table& updates) const {
  // §2.3 replace path: new_vertex = (vertex ANTI JOIN updates) ∪ updates,
  // i.e. a bulk rebuild instead of row updates.
  return PlanBuilder::Scan(vertex)
      .Join(PlanBuilder::Scan(updates).Select({"id"}), {"id"}, {"id"},
            JoinType::kAnti)
      .Union(PlanBuilder::Scan(updates))
      .Execute();
}

Status Coordinator::RestoreSortedInvariant() const {
  if (!catalog_->HasTable(names_.vertex)) return Status::OK();
  VX_ASSIGN_OR_RETURN(auto table, catalog_->GetTable(names_.vertex));
  if (OrderedByColumn(*table, "id")) return Status::OK();  // already declared
  VX_ASSIGN_OR_RETURN(int id_c, table->ColumnIndex("id"));
  const Column& id = table->column(id_c);
  // Not sorted: leave it — the replace path re-sorts by id.
  if (id.null_count() != 0 ||
      !std::is_sorted(id.ints().begin(), id.ints().end())) {
    return Status::OK();
  }
  // ReplaceTable needs a value, so attaching the declaration costs one
  // table copy — paid once per run, and only when the declaration is
  // missing (i.e. a checkpoint-restored catalog), never on a fresh load.
  Table declared = *table;
  declared.SetSortOrder({{id_c, true}});
  return catalog_->ReplaceTable(names_.vertex, std::move(declared));
}

Status Coordinator::Run(RunStats* stats) {
  const int va = program_->value_arity();
  const int ma = program_->message_arity();
  if (va <= 0 || ma <= 0) {
    return Status::InvalidArgument("vertex program arities must be positive");
  }

  const auto agg_specs = program_->aggregators();
  prev_aggregates_.clear();

  // A restored checkpoint carries the rows but not the sort-order
  // declaration (catalog_io persists none); re-establish the vertex
  // table's up front (one pass over the ids) so a resumed run can take
  // the frontier path like a fresh one.
  VX_RETURN_NOT_OK(RestoreSortedInvariant());

  // §1 durability: resume from a checkpoint marker restored by LoadCatalog.
  int first_superstep = 0;
  if (options_.resume_from_checkpoint &&
      catalog_->HasTable(MarkerName(names_))) {
    VX_ASSIGN_OR_RETURN(auto marker, catalog_->GetTable(MarkerName(names_)));
    if (marker->num_rows() == 1) {
      first_superstep =
          static_cast<int>(marker->column(0).GetInt64(0));
    }
  }

  const WorkerParallelism par =
      ResolveWorkerParallelism(options_.num_partitions, options_.num_workers);

  WallTimer total_timer;

  // The run's resident tables: the catalog snapshots, replaced as
  // supersteps rewrite them and published back at checkpoints and at the
  // end. The edge table is never rewritten; its CSR index (union input) or
  // join side (join input) is built on first use and kept for the run.
  VX_ASSIGN_OR_RETURN(TablePtr vertex,
                      GetGraphTable(*catalog_, names_.vertex, "id"));
  VX_ASSIGN_OR_RETURN(TablePtr edge,
                      GetGraphTable(*catalog_, names_.edge, "src"));
  VX_ASSIGN_OR_RETURN(TablePtr message,
                      GetGraphTable(*catalog_, names_.message, "dst"));
  std::shared_ptr<const CsrIndex> edge_csr;
  TablePtr edge_join_side;
  const auto publish = [&]() -> Status {
    VX_RETURN_NOT_OK(catalog_->ReplaceTable(names_.vertex, vertex));
    return catalog_->ReplaceTable(names_.message, message);
  };
  // Per-run constants: the vertex count programs read (PageRank's N) and
  // the update-fraction denominator are the vertex rows at run start.
  const int64_t total_vertices = vertex->num_rows();

  for (int superstep = first_superstep;
       superstep < options_.max_supersteps; ++superstep) {
    // Superstep boundary: the natural stopping point of a cancelled or
    // past-deadline run. The catalog holds the run's starting tables (or
    // the last checkpoint) until the run completes.
    VX_RETURN_NOT_OK(ExecKnobs::Current().cancel.Check());
    VX_FAULT_POINT("coordinator.superstep");
    WallTimer step_timer;
    const ScopedStepCounters step_counters;

    // Stored-procedure loop condition: "it runs as long as there is any
    // message for the next superstep" (plus Pregel's not-yet-halted rule).
    if (superstep > 0 && message->num_rows() == 0 && AllHalted(*vertex)) {
      break;
    }

    WorkerSharedState shared;
    shared.program = program_;
    shared.superstep = superstep;
    shared.num_vertices = total_vertices;
    shared.prev_aggregates = &prev_aggregates_;
    shared.write_message_src = ActiveCombiner() == MessageCombiner::kNone;
    for (const auto& spec : agg_specs) {
      shared.aggregator_kinds[spec.name] = spec.kind;
      shared.aggregator_names.push_back(spec.name);
    }

    // ---- Input build, timed apart from Compute. -------------------------
    // It includes the frontier decision — deriving the active set is a cost
    // the sparse path pays — and, on first use, the edge structure.
    WallTimer phase_timer;
    Frontier frontier;
    const bool used_frontier =
        ComputeFrontier(*vertex, *message, ExecKnobs::Current().frontier,
                        superstep, options_.frontier_threshold, &frontier);
    // The frontier bitvector gates which vertices compute; its word-tail
    // hygiene is what the popcount/AND/OR shortcuts assume.
    if (used_frontier) VX_DCHECK_OK(frontier.bits.CheckInvariants());
    if (options_.use_union_input) {
      if (edge_csr == nullptr) {
        VX_ASSIGN_OR_RETURN(edge_csr, BuildKeyIndex(*edge, "src"));
      }
    } else if (edge_join_side == nullptr) {
      VX_ASSIGN_OR_RETURN(edge_join_side, BuildEdgeJoinSide(edge));
    }
    VX_ASSIGN_OR_RETURN(
        WorkerInput input,
        BuildWorkerInput(vertex, edge, edge_csr.get(), edge_join_side,
                         message, used_frontier ? &frontier.bits : nullptr));
    const double input_seconds = phase_timer.ElapsedSeconds();
    phase_timer.Restart();

    // ---- Workers: vertex batching (§2.3), partition-parallel. -----------
    VX_ASSIGN_OR_RETURN(WorkerOutput out,
                        options_.use_union_input
                            ? RunUnionWorkers(shared, input.view, par)
                            : RunJoinWorkers(shared, input.join, par));
    const double worker_seconds = phase_timer.ElapsedSeconds();
    phase_timer.Restart();

    std::map<std::string, double> new_aggregates;
    for (const auto& spec : agg_specs) {
      new_aggregates[spec.name] = AggregatorIdentity(spec.kind);
    }
    MergeAggregateRows(agg_specs, out.aggregate_rows, &new_aggregates);

    // ---- Message collection. -------------------------------------------
    // Phase boundary: a worker failure surfaces here in a distributed
    // deployment, so the exchange carries a fault site.
    VX_FAULT_POINT("coordinator.exchange");
    // The sinks in partition order — concatenated, or combined per
    // receiver by the one fold (vertexica/worker_driver.h) — are the next
    // superstep's message table.
    VX_ASSIGN_OR_RETURN(Table messages,
                        CollectMessages(std::move(out.message_sinks), ma,
                                        ActiveCombiner()));
    const int64_t messages_sent = messages.num_rows();
    const double split_seconds = phase_timer.ElapsedSeconds();
    phase_timer.Restart();

    // ---- Update vs. replace (§2.3). ------------------------------------
    // The rewritten vertex and message tables are stored plain: the next
    // superstep reads every column of them, so encoding them here would
    // only be undone by its first read. The load-time tables stay encoded
    // (an unchanged halted column is still one RLE run for AllHalted).
    const int64_t total_updates = out.updates.num_rows();
    bool used_replace = false;
    if (total_updates > 0) {
      const double frac =
          static_cast<double>(total_updates) /
          static_cast<double>(std::max<int64_t>(1, total_vertices));
      used_replace = frac >= options_.update_threshold;
      Table new_vertex;
      if (!used_replace) {
        VX_ASSIGN_OR_RETURN(new_vertex,
                            UpdateVerticesInPlace(*vertex, out.updates));
      } else {
        VX_ASSIGN_OR_RETURN(new_vertex, RebuildVertices(*vertex, out.updates));
        // The anti-join ∪ union rebuild breaks the sorted-by-id invariant
        // (updated rows land at the tail); restore it on both input paths —
        // the frontier's receiver binary search and the in-place apply key
        // on it. Stable and id-keyed, so results are unchanged: the workers
        // visit each partition's vertices in id order, so vertex-table row
        // order never reaches a per-vertex stream. Not gated on the
        // frontier knob.
        if (!OrderedByColumn(new_vertex, "id")) {
          VX_ASSIGN_OR_RETURN(int id_c, new_vertex.ColumnIndex("id"));
          new_vertex = SortTable(new_vertex, {{id_c, true}});
        }
      }
      vertex = std::make_shared<const Table>(std::move(new_vertex));
      // Post-apply audit: the vertex table about to be read must honor its
      // structural claims (sorted-by-id declaration, encodings, zone maps)
      // — downstream supersteps trust them.
      VX_DCHECK_OK(vertex->CheckInvariants());
    }
    message = std::make_shared<const Table>(std::move(messages));
    VX_DCHECK_OK(message->CheckInvariants());

    int64_t encoded_bytes = 0;
    int64_t decoded_bytes = 0;
    AccountTableBytes(*vertex, &encoded_bytes, &decoded_bytes);
    AccountTableBytes(*message, &encoded_bytes, &decoded_bytes);
    prev_aggregates_ = std::move(new_aggregates);

    if (stats != nullptr) {
      SuperstepStats s;
      s.superstep = superstep;
      s.input_rows = input.rows;
      s.active_vertices = out.active;
      s.vertex_updates = total_updates;
      s.messages_sent = messages_sent;
      s.seconds = step_timer.ElapsedSeconds();
      s.used_replace = used_replace;
      s.input_seconds = input_seconds;
      s.worker_seconds = worker_seconds;
      s.split_seconds = split_seconds;
      s.apply_seconds = phase_timer.ElapsedSeconds();
      s.encoded_bytes = encoded_bytes;
      s.decoded_bytes = decoded_bytes;
      s.used_frontier = used_frontier;
      s.frontier_vertices = used_frontier ? frontier.active : 0;
      const KernelStatsSnapshot joins = Snapshot(step_counters.block());
      s.hash_joins = joins.hash_joins;
      s.join_rows = joins.hash_rows;
      s.join_seconds = static_cast<double>(joins.hash_nanos) * 1e-9;
      stats->supersteps.push_back(s);
      stats->total_messages += messages_sent;
      ++(s.used_frontier ? stats->frontier_supersteps
                         : stats->dense_supersteps);
    }

    if (options_.checkpoint_every > 0 &&
        (superstep + 1) % options_.checkpoint_every == 0) {
      VX_RETURN_NOT_OK(publish());
      Table marker(Schema({{"next_superstep", DataType::kInt64}}));
      VX_RETURN_NOT_OK(
          marker.AppendRow({Value(static_cast<int64_t>(superstep + 1))}));
      VX_RETURN_NOT_OK(
          catalog_->ReplaceTable(MarkerName(names_), std::move(marker)));
      VX_RETURN_NOT_OK(SaveCatalog(*catalog_, options_.checkpoint_dir));
    }

    if (out.active == 0 && messages_sent == 0) break;
  }
  // Publish the final state so catalog readers (ReadVertexValues,
  // follow-up SQL) see the finished run.
  VX_RETURN_NOT_OK(publish());
  if (stats != nullptr) stats->total_seconds = total_timer.ElapsedSeconds();
  return Status::OK();
}

Status RunVertexProgram(Catalog* catalog, const Graph& graph,
                        VertexProgram* program, VertexicaOptions options,
                        GraphTableNames names, RunStats* stats) {
  VX_RETURN_NOT_OK(LoadGraphTables(catalog, graph, *program, names));
  Coordinator coordinator(catalog, program, options, names);
  return coordinator.Run(stats);
}

std::string RunStats::ToJson() const {
  std::ostringstream os;
  os << "{\"total_seconds\":" << total_seconds
     << ",\"total_messages\":" << total_messages
     << ",\"num_supersteps\":" << num_supersteps()
     << ",\"frontier_supersteps\":" << frontier_supersteps
     << ",\"dense_supersteps\":" << dense_supersteps << ",\"supersteps\":[";
  for (size_t i = 0; i < supersteps.size(); ++i) {
    const SuperstepStats& s = supersteps[i];
    if (i > 0) os << ",";
    os << "{\"superstep\":" << s.superstep
       << ",\"input_rows\":" << s.input_rows
       << ",\"active_vertices\":" << s.active_vertices
       << ",\"vertex_updates\":" << s.vertex_updates
       << ",\"messages_sent\":" << s.messages_sent
       << ",\"seconds\":" << s.seconds
       << ",\"used_replace\":" << (s.used_replace ? "true" : "false")
       << ",\"input_seconds\":" << s.input_seconds
       << ",\"worker_seconds\":" << s.worker_seconds
       << ",\"split_seconds\":" << s.split_seconds
       << ",\"apply_seconds\":" << s.apply_seconds
       << ",\"encoded_bytes\":" << s.encoded_bytes
       << ",\"decoded_bytes\":" << s.decoded_bytes
       << ",\"used_frontier\":" << (s.used_frontier ? "true" : "false")
       << ",\"frontier_vertices\":" << s.frontier_vertices
       << ",\"merge_joins\":" << s.merge_joins
       << ",\"hash_joins\":" << s.hash_joins
       << ",\"join_rows\":" << s.join_rows
       << ",\"join_seconds\":" << s.join_seconds << "}";
  }
  os << "]}";
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const RunStats& stats) {
  return os << stats.ToJson();
}

}  // namespace vertexica
