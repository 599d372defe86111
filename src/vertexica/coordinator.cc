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
#include "storage/partition.h"
#include "storage/sort.h"
#include "udf/transform.h"
#include "vertexica/worker_driver.h"

namespace vertexica {

// storage/ cannot see udf/, so the default ShardingSpec hard-codes the
// vertex-batching partition count; pin the two constants together here,
// where both headers are visible — the shard/batch alignment invariant
// (shards = contiguous blocks of the batching partitions) depends on it.
static_assert(ShardingSpec{}.base_partitions == kDefaultTransformPartitions,
              "ShardingSpec::base_partitions must default to the "
              "vertex-batching partition count");

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

/// The active set of one superstep over one vertex/message (shard) pair:
/// one bit per vertex row, plus its popcount.
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
/// given — callers pass them in global partition order.
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

/// One superstep's counter block. It is installed over a copy of the
/// caller's context, so the pool carries it into every shard task of the
/// step and the step's join counts are read straight off it. When the step
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

/// A run's resident state, built once per run: vertex shards by id
/// (replaced shard-wise as supersteps apply updates), immutable edge shards
/// by src, and message shards by dst (swapped by the between-superstep
/// exchange). At one shard each set holds the stored catalog snapshot
/// itself.
struct ResidentShards {
  ShardingSpec spec;
  PartitionSet vertex;
  PartitionSet edge;
  PartitionSet message;
  /// Per-shard edge structures, built on first use inside a superstep's
  /// shard task and kept for the rest of the run: the (esrc, edst, eweight,
  /// edge_seq) join side on the join-input path, the per-source-vertex CSR
  /// slice index on the union-input path.
  std::vector<std::shared_ptr<const Table>> edge_join_side;
  std::vector<std::shared_ptr<const CsrIndex>> edge_csr;
};

/// Writes the resident shards back to the catalog — run end and
/// checkpoints. One shard is published as it is: the tables the superstep
/// stored. More shards are concatenated in shard order and re-encoded;
/// the vertex table is also re-sorted by id (stable, so values are
/// unchanged), so it carries the sorted-by-id invariant a one-shard run
/// keeps. Messages need no order: every reader groups them by receiver,
/// and each receiver's messages keep their order in the concatenation.
Status PublishShards(const ResidentShards& shards, Catalog* catalog,
                     const GraphTableNames& names) {
  if (shards.spec.num_shards == 1) {
    VX_RETURN_NOT_OK(
        catalog->ReplaceTable(names.vertex, shards.vertex.shard(0)));
    return catalog->ReplaceTable(names.message, shards.message.shard(0));
  }
  Table vertex(shards.vertex.shard(0)->schema());
  Table message(shards.message.shard(0)->schema());
  for (int s = 0; s < shards.spec.num_shards; ++s) {
    VX_RETURN_NOT_OK(vertex.Append(*shards.vertex.shard(s)));
    VX_RETURN_NOT_OK(message.Append(*shards.message.shard(s)));
  }
  // Hash blocks interleave ids, so the concatenation is not ordered.
  vertex = SortTable(vertex, {{shards.vertex.key_column(), true}});
  const EncodingMode mode = ExecKnobs::Current().encoding;
  if (mode != EncodingMode::kOff) {
    vertex.EncodeColumns(mode);
    message.EncodeColumns(mode);
  }
  // Post-flush audit: the concatenated, re-encoded tables are what catalog
  // readers will trust from here on.
  VX_DCHECK_OK(vertex.CheckInvariants());
  VX_DCHECK_OK(message.CheckInvariants());
  VX_RETURN_NOT_OK(catalog->ReplaceTable(names.vertex, std::move(vertex)));
  return catalog->ReplaceTable(names.message, std::move(message));
}

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
  // shard and reuse the shared snapshot.
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
  // logical. Edges are read through the shard's CSR index (built once per
  // run), messages through a one-pass grouping on their receiver.
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

  // Persistent sharding (§2.3 vertex batching made resident): every run
  // partitions the graph tables once into S resident shards and loops
  // shard-wise; S = 1 is one shard holding the stored tables themselves.
  // S is capped at the vertex-batching partition count — shards are
  // contiguous blocks of those partitions, which is what makes results
  // bit-identical at every S (storage/partition.h).
  TransformOptions topts;
  topts.num_partitions = options_.num_partitions;
  topts.num_workers = options_.num_workers;
  const TransformParallelism par = ResolveTransformParallelism(topts);
  const int num_shards = std::max(
      1, std::min(options_.num_shards > 0 ? options_.num_shards
                                          : ExecKnobs::Current().shards,
                  par.partitions));

  WallTimer total_timer;

  // ---- Shard the graph tables, once per run. --------------------------
  // Vertex shards by id, edge shards by src, message shards by dst: every
  // worker-input tuple's batching key is its owning vertex, so each shard's
  // input hashes into exactly that shard's block of the vertex-batching
  // partitions. With S > 1, PartitionSet::Build retains sort-order
  // declarations and (ambient-mode permitting) encodings + zone maps per
  // shard, so the per-shard join path sees the physical design a one-shard
  // run keeps on the whole tables.
  ResidentShards shards;
  shards.spec.num_shards = num_shards;
  shards.spec.base_partitions = par.partitions;
  {
    VX_ASSIGN_OR_RETURN(auto vertex0, catalog_->GetTable(names_.vertex));
    VX_ASSIGN_OR_RETURN(auto edge0, catalog_->GetTable(names_.edge));
    VX_ASSIGN_OR_RETURN(auto message0, catalog_->GetTable(names_.message));
    VX_ASSIGN_OR_RETURN(int vid_c, vertex0->ColumnIndex("id"));
    VX_ASSIGN_OR_RETURN(int esrc_c, edge0->ColumnIndex("src"));
    VX_ASSIGN_OR_RETURN(int mdst_c, message0->ColumnIndex("dst"));
    VX_ASSIGN_OR_RETURN(shards.vertex, PartitionSet::Build(std::move(vertex0),
                                                           vid_c, shards.spec));
    VX_ASSIGN_OR_RETURN(shards.edge, PartitionSet::Build(std::move(edge0),
                                                         esrc_c, shards.spec));
    VX_ASSIGN_OR_RETURN(shards.message,
                        PartitionSet::Build(std::move(message0), mdst_c,
                                            shards.spec));
  }
  shards.edge_join_side.resize(static_cast<size_t>(num_shards));
  shards.edge_csr.resize(static_cast<size_t>(num_shards));
  // Per-run constants: the vertex count programs read (PageRank's N) and
  // the update-fraction denominator are the vertex rows at run start.
  const int64_t total_vertices = shards.vertex.total_rows();

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
    if (superstep > 0 && shards.message.total_rows() == 0) {
      bool all_halted = true;
      for (int s = 0; s < num_shards && all_halted; ++s) {
        all_halted = AllHalted(*shards.vertex.shard(s));
      }
      if (all_halted) break;
    }

    // Vertex batching within each shard uses the *global* partition count
    // (`par`): a shard's rows only hash into its own contiguous partition
    // block, so the per-shard batches, their order, and therefore every
    // per-vertex stream are the same at every shard count.
    WorkerSharedState shared;
    shared.program = program_;
    shared.superstep = superstep;
    shared.num_vertices = total_vertices;  // global count, not per shard
    shared.prev_aggregates = &prev_aggregates_;
    shared.write_message_src = ActiveCombiner() == MessageCombiner::kNone;
    for (const auto& spec : agg_specs) {
      shared.aggregator_kinds[spec.name] = spec.kind;
      shared.aggregator_names.push_back(spec.name);
    }

    // ---- Per-shard dataflow: input → worker, shard-parallel. ----------
    struct ShardStep {
      int64_t input_rows = 0;
      double input_seconds = 0.0;
      bool used_frontier = false;
      int64_t frontier_vertices = 0;
      WorkerOutput out;
    };
    std::vector<ShardStep> step(static_cast<size_t>(num_shards));

    const ExecKnobs& knobs = ExecKnobs::Current();

    WallTimer phase_timer;
    VX_RETURN_NOT_OK(ThreadPool::Default()->ParallelFor(
        0, static_cast<size_t>(num_shards), /*grain=*/1,
        [&](size_t begin, size_t end) -> Status {
          for (size_t s = begin; s < end; ++s) {
            ShardStep& st = step[s];
            const auto& vs = shards.vertex.shard(static_cast<int>(s));
            const auto& es = shards.edge.shard(static_cast<int>(s));
            const auto& ms = shards.message.shard(static_cast<int>(s));
            // The input build is timed apart from Compute. It includes the
            // frontier decision — deriving the active set is a cost the
            // sparse path pays — and, on first use, the shard's edge
            // structure.
            WallTimer input_timer;
            // Frontier decision per shard: a shard's active fraction is
            // its own (one dense hub shard doesn't force the whole
            // superstep dense). Value-neutral either way.
            Frontier frontier;
            st.used_frontier =
                ComputeFrontier(*vs, *ms, knobs.frontier, superstep,
                                options_.frontier_threshold, &frontier);
            // The frontier bitvector gates which vertices compute; its
            // word-tail hygiene is what the popcount/AND/OR shortcuts
            // assume.
            if (st.used_frontier) {
              VX_DCHECK_OK(frontier.bits.CheckInvariants());
              st.frontier_vertices = frontier.active;
            }
            if (options_.use_union_input) {
              if (shards.edge_csr[s] == nullptr) {
                VX_ASSIGN_OR_RETURN(shards.edge_csr[s],
                                    BuildKeyIndex(*es, "src"));
              }
            } else if (shards.edge_join_side[s] == nullptr) {
              VX_ASSIGN_OR_RETURN(shards.edge_join_side[s],
                                  BuildEdgeJoinSide(es));
            }
            VX_ASSIGN_OR_RETURN(
                WorkerInput input,
                BuildWorkerInput(vs, es, shards.edge_csr[s].get(),
                                 shards.edge_join_side[s], ms,
                                 st.used_frontier ? &frontier.bits : nullptr));
            st.input_rows = input.rows;
            st.input_seconds = input_timer.ElapsedSeconds();
            // Vertex batching (§2.3): the workers run in parallel over the
            // shard's hash partitions on vertex id.
            VX_ASSIGN_OR_RETURN(
                st.out, options_.use_union_input
                            ? RunUnionWorkers(shared, input.view, par)
                            : RunJoinWorkers(shared, input.join, par));
          }
          return Status::OK();
        },
        knobs.threads));
    // The slowest shard's input build, and the rest of the phase's wall
    // time as Compute — at one shard exactly the two sequential steps.
    double input_seconds = 0.0;
    for (const ShardStep& st : step) {
      input_seconds = std::max(input_seconds, st.input_seconds);
    }
    const double worker_seconds = phase_timer.ElapsedSeconds() - input_seconds;
    phase_timer.Restart();

    // ---- Merge shard results in shard order. ---------------------------
    // Shards are contiguous partition blocks, so concatenation in shard
    // order *is* the global worker-output row order — the aggregate fold
    // below replays the same merge sequence at every shard count.
    int64_t input_rows = 0;
    int64_t active = 0;
    int64_t total_updates = 0;
    std::map<std::string, double> new_aggregates;
    for (const auto& spec : agg_specs) {
      new_aggregates[spec.name] = AggregatorIdentity(spec.kind);
    }
    for (const ShardStep& st : step) {
      input_rows += st.input_rows;
      active += st.out.active;
      total_updates += st.out.updates.num_rows();
      MergeAggregateRows(agg_specs, st.out.aggregate_rows, &new_aggregates);
    }

    // ---- Message exchange (the only cross-shard traffic). --------------
    // Phase boundary: a worker failure surfaces here in a distributed
    // deployment (ROADMAP #1), so the exchange carries a fault site.
    VX_FAULT_POINT("coordinator.exchange");
    // Collect every shard's sinks in shard order (again the global row
    // order) — concatenated, or combined per receiver by the one fold
    // (vertexica/worker_driver.h) — then scatter on receiver back to the
    // shards. The scatter preserves per-receiver order, so next
    // superstep's message streams are the same at every S. One shard
    // needs no routing: the collected table is its inbound table.
    int64_t cross_shard = 0;
    std::vector<WorkerSink> sinks;
    for (int s = 0; s < num_shards; ++s) {
      for (WorkerSink& sink : step[static_cast<size_t>(s)].out.message_sinks) {
        if (stats != nullptr && num_shards > 1) {
          // Boundary-crossing counter over the produced (pre-combine)
          // messages: one hash per message, skipped entirely when nobody
          // collects stats or nothing can cross.
          for (const int64_t dst : sink.messages.dst) {
            if (shards.spec.ShardOfKey(dst) != s) ++cross_shard;
          }
        }
        sinks.push_back(std::move(sink));
      }
    }
    VX_ASSIGN_OR_RETURN(
        Table messages,
        CollectMessages(std::move(sinks), ma, ActiveCombiner()));
    const int64_t messages_sent = messages.num_rows();
    VX_ASSIGN_OR_RETURN(int dst_c, messages.ColumnIndex("dst"));
    std::vector<Table> inbound;
    if (num_shards == 1) {
      inbound.push_back(std::move(messages));
    } else {
      VX_ASSIGN_OR_RETURN(inbound,
                          ShardScatter(messages, dst_c, shards.spec));
    }
    const double split_seconds = phase_timer.ElapsedSeconds();
    phase_timer.Restart();

    // ---- Update vs. replace (§2.3), per shard. -------------------------
    // One global decision from the global update fraction, applied
    // shard-locally — worker updates only ever target vertices of their
    // own shard. The rewritten vertex and message tables are stored plain:
    // the next superstep reads every column of them, so encoding them here
    // would only be undone by its first read. The load-time tables stay
    // encoded (an unchanged halted column is still one RLE run for
    // AllHalted), and so does a sharded run's published result.
    bool used_replace = false;
    if (total_updates > 0) {
      const double frac =
          static_cast<double>(total_updates) /
          static_cast<double>(std::max<int64_t>(1, total_vertices));
      used_replace = frac >= options_.update_threshold;
      VX_RETURN_NOT_OK(ThreadPool::Default()->ParallelFor(
          0, static_cast<size_t>(num_shards), /*grain=*/1,
          [&](size_t begin, size_t end) -> Status {
            for (size_t s = begin; s < end; ++s) {
              const Table& updates = step[s].out.updates;
              if (updates.num_rows() == 0) continue;
              const auto& vs = shards.vertex.shard(static_cast<int>(s));
              Table new_vertex;
              if (!used_replace) {
                VX_ASSIGN_OR_RETURN(new_vertex,
                                    UpdateVerticesInPlace(*vs, updates));
              } else {
                VX_ASSIGN_OR_RETURN(new_vertex,
                                    RebuildVertices(*vs, updates));
                // The anti-join ∪ union rebuild breaks the sorted-by-id
                // invariant (updated rows land at the tail); restore it on
                // both input paths — the frontier's receiver binary search
                // and the in-place apply key on it. Stable and id-keyed,
                // so results are unchanged: the workers visit each
                // partition's vertices in id order, so vertex-table row
                // order never reaches a per-vertex stream. Not gated on
                // the frontier knob.
                if (!OrderedByColumn(new_vertex, "id")) {
                  VX_ASSIGN_OR_RETURN(int id_c,
                                      new_vertex.ColumnIndex("id"));
                  new_vertex = SortTable(new_vertex, {{id_c, true}});
                }
              }
              shards.vertex.ReplaceShard(static_cast<int>(s),
                                         std::move(new_vertex));
            }
            return Status::OK();
          },
          knobs.threads));
      // Post-apply audit: every shard about to be read must honor its
      // structural claims (sorted-by-id declaration, encodings, zone maps)
      // and hold only rows it owns — downstream supersteps trust them.
      VX_DCHECK_OK(shards.vertex.CheckInvariants());
    }

    std::vector<int64_t> shard_messages(static_cast<size_t>(num_shards));
    for (int s = 0; s < num_shards; ++s) {
      Table& in = inbound[static_cast<size_t>(s)];
      shard_messages[static_cast<size_t>(s)] = in.num_rows();
      shards.message.ReplaceShard(s, std::move(in));
    }
    // Post-exchange audit: each shard's inbound message table must honor
    // its structural claims and hold only messages routed to it.
    VX_DCHECK_OK(shards.message.CheckInvariants());

    int64_t encoded_bytes = 0;
    int64_t decoded_bytes = 0;
    for (int s = 0; s < num_shards; ++s) {
      AccountTableBytes(*shards.vertex.shard(s), &encoded_bytes,
                        &decoded_bytes);
      AccountTableBytes(*shards.message.shard(s), &encoded_bytes,
                        &decoded_bytes);
    }
    prev_aggregates_ = std::move(new_aggregates);

    if (stats != nullptr) {
      SuperstepStats s;
      s.superstep = superstep;
      s.input_rows = input_rows;
      s.active_vertices = active;
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
      s.shards = num_shards;
      s.cross_shard_messages = cross_shard;
      for (const ShardStep& st : step) {
        s.shard_input_rows.push_back(st.input_rows);
        s.used_frontier = s.used_frontier || st.used_frontier;
        s.frontier_vertices += st.frontier_vertices;
      }
      const KernelStatsSnapshot joins = Snapshot(step_counters.block());
      s.hash_joins = joins.hash_joins;
      s.join_rows = joins.hash_rows;
      s.join_seconds = static_cast<double>(joins.hash_nanos) * 1e-9;
      s.shard_messages = std::move(shard_messages);
      stats->supersteps.push_back(s);
      stats->total_messages += messages_sent;
      ++(s.used_frontier ? stats->frontier_supersteps
                         : stats->dense_supersteps);
    }

    if (options_.checkpoint_every > 0 &&
        (superstep + 1) % options_.checkpoint_every == 0) {
      VX_RETURN_NOT_OK(PublishShards(shards, catalog_, names_));
      Table marker(Schema({{"next_superstep", DataType::kInt64}}));
      VX_RETURN_NOT_OK(
          marker.AppendRow({Value(static_cast<int64_t>(superstep + 1))}));
      VX_RETURN_NOT_OK(
          catalog_->ReplaceTable(MarkerName(names_), std::move(marker)));
      VX_RETURN_NOT_OK(SaveCatalog(*catalog_, options_.checkpoint_dir));
    }

    if (active == 0 && messages_sent == 0) break;
  }
  // Publish the final state so catalog readers (ReadVertexValues,
  // follow-up SQL) see the finished run.
  VX_RETURN_NOT_OK(PublishShards(shards, catalog_, names_));
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
       << ",\"shards\":" << s.shards
       << ",\"cross_shard_messages\":" << s.cross_shard_messages
       << ",\"shard_input_rows\":[";
    for (size_t j = 0; j < s.shard_input_rows.size(); ++j) {
      if (j > 0) os << ",";
      os << s.shard_input_rows[j];
    }
    os << "],\"shard_messages\":[";
    for (size_t j = 0; j < s.shard_messages.size(); ++j) {
      if (j > 0) os << ",";
      os << s.shard_messages[j];
    }
    os << "]"
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
