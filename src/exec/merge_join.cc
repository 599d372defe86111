#include "exec/merge_join.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/env_knob.h"
#include "common/threadpool.h"
#include "common/timer.h"
#include "exec/scan.h"

namespace vertexica {

// --------------------------------------------------------------- the knob

namespace {

std::atomic<int> g_default_merge_join{-1};  // -1 = automatic (env, else on)
thread_local int tl_merge_override = -1;    // -1 unset, 0 off, 1 on

bool EnvMergeJoinEnabled() {
  // Validated through the shared env-knob helper: a typo like
  // VERTEXICA_MERGE_JOIN=offf warns once and keeps the default (on).
  const std::string token = EnvTokenKnob(
      "VERTEXICA_MERGE_JOIN",
      {"0", "off", "false", "no", "1", "on", "true", "yes"}, "on");
  return token != "0" && token != "off" && token != "false" && token != "no";
}

thread_local JoinPathStats* tl_join_stats = nullptr;

}  // namespace

bool MergeJoinEnabled() {
  if (tl_merge_override >= 0) return tl_merge_override != 0;
  const int configured = g_default_merge_join.load(std::memory_order_relaxed);
  if (configured >= 0) return configured != 0;
  static const bool env = EnvMergeJoinEnabled();
  return env;
}

void SetDefaultMergeJoin(int enabled) {
  g_default_merge_join.store(enabled < 0 ? -1 : (enabled != 0 ? 1 : 0),
                             std::memory_order_relaxed);
}

ScopedMergeJoin::ScopedMergeJoin(bool enabled) : prev_(tl_merge_override) {
  tl_merge_override = enabled ? 1 : 0;
}

ScopedMergeJoin::~ScopedMergeJoin() { tl_merge_override = prev_; }

JoinPathStats* AmbientJoinStats() { return tl_join_stats; }

ScopedJoinStatsCollector::ScopedJoinStatsCollector(JoinPathStats* stats)
    : prev_(tl_join_stats) {
  tl_join_stats = stats;
}

ScopedJoinStatsCollector::~ScopedJoinStatsCollector() {
  tl_join_stats = prev_;
}

// ------------------------------------------------------ order establishment

bool OrderPrefixCovers(const std::vector<OrderKey>& order,
                       const std::vector<std::string>& keys) {
  if (keys.empty() || keys.size() > order.size()) return false;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (order[i].column != keys[i] || !order[i].ascending) return false;
  }
  return true;
}

bool TableSortedOnKeys(const Table& t, const std::vector<int>& key_cols) {
  if (key_cols.empty()) return false;
  // Declared metadata: the trusted physical-design contract (like zone
  // maps) — the coordinator/loader/SortTable only declare orders they
  // produced.
  if (t.OrderCoversKeys(key_cols)) return true;
  if (key_cols.size() == 1) {
    const Column& col = t.column(key_cols[0]);
    if (col.sorted_ascending()) return true;
    if (col.null_count() == 0) {
      // RLE runs: O(runs) check, no decode.
      if (const auto* runs = col.rle_runs()) {
        for (size_t r = 1; r < runs->size(); ++r) {
          if ((*runs)[r - 1].value > (*runs)[r].value) return false;
        }
        return true;
      }
      if (col.type() == DataType::kInt64) {
        const auto& v = col.ints();
        for (size_t i = 1; i < v.size(); ++i) {
          if (v[i - 1] > v[i]) return false;
        }
        return true;
      }
    }
  }
  // Generic verification pass: lexicographic nondecreasing under
  // CompareRows. One pass; far cheaper than the hash build it replaces.
  for (int64_t i = 1; i < t.num_rows(); ++i) {
    for (int c : key_cols) {
      const Column& col = t.column(c);
      const int cmp = col.CompareRows(i - 1, col, i);
      if (cmp < 0) break;
      if (cmp > 0) return false;
    }
  }
  return true;
}

// ------------------------------------------------------------- the kernel

namespace {

/// Lexicographic three-way comparison of probe row `p` against build row
/// `b` over the key column pairs (CompareRows per column — the same
/// comparator the inputs were sorted with and JoinKeysEqual matches with).
int CompareKeys(const Table& probe, const std::vector<int>& pc, int64_t p,
                const Table& build, const std::vector<int>& bc, int64_t b) {
  for (size_t k = 0; k < pc.size(); ++k) {
    const int cmp =
        probe.column(pc[k]).CompareRows(p, build.column(bc[k]), b);
    if (cmp != 0) return cmp;
  }
  return 0;
}

/// True when probe rows `a` and `b` carry equal keys (group membership).
bool ProbeKeysEqual(const Table& probe, const std::vector<int>& pc, int64_t a,
                    int64_t b) {
  for (int c : pc) {
    if (probe.column(c).CompareRows(a, probe.column(c), b) != 0) return false;
  }
  return true;
}

/// Per-probe-row emission for the join types that react to (un)matched
/// rows; shared by the generic and RLE kernels so their semantics cannot
/// diverge. (kInner emits only inside the match loop.)
void EmitByJoinType(JoinType type, bool matched, int64_t p,
                    std::vector<int64_t>* probe_idx,
                    std::vector<int64_t>* build_idx) {
  switch (type) {
    case JoinType::kLeft:
      if (!matched) {
        probe_idx->push_back(p);
        build_idx->push_back(-1);
      }
      break;
    case JoinType::kSemi:
      if (matched) probe_idx->push_back(p);
      break;
    case JoinType::kAnti:
      if (!matched) probe_idx->push_back(p);
      break;
    case JoinType::kInner:
      break;
  }
}

/// Generic merge over probe rows [pb, pe): walks the build side once per
/// morsel (after a binary-search seed), rescanning the current equal-key
/// group for duplicate probe keys — output-proportional work, like the
/// hash probe's chain walk.
void MergeMorselGeneric(const Table& probe, const std::vector<int>& pc,
                        const Table& build, const std::vector<int>& bc,
                        JoinType type, bool emit_build, int64_t pb, int64_t pe,
                        std::vector<int64_t>* probe_idx,
                        std::vector<int64_t>* build_idx) {
  const int64_t build_rows = build.num_rows();
  // Seed: first build row not below this morsel's first non-null probe
  // key. Everything before it is below every key the morsel will look up.
  int64_t seed_probe = pb;
  while (seed_probe < pe && JoinKeyHasNull(probe, pc, seed_probe)) {
    ++seed_probe;
  }
  int64_t group = 0;
  if (seed_probe < pe) {
    int64_t lo = 0;
    int64_t hi = build_rows;
    while (lo < hi) {
      const int64_t mid = lo + (hi - lo) / 2;
      if (CompareKeys(probe, pc, seed_probe, build, bc, mid) > 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    group = lo;
  }
  for (int64_t p = pb; p < pe; ++p) {
    bool matched = false;
    // SQL NULL semantics: a NULL key never matches (CompareKeys would call
    // NULL == NULL, so the null check must come first — exactly mirroring
    // the hash probe's JoinKeyHasNull gate).
    if (!JoinKeyHasNull(probe, pc, p)) {
      while (group < build_rows &&
             CompareKeys(probe, pc, p, build, bc, group) > 0) {
        ++group;
      }
      for (int64_t b = group;
           b < build_rows && CompareKeys(probe, pc, p, build, bc, b) == 0;
           ++b) {
        matched = true;
        if (!emit_build) break;  // semi/anti only need existence
        probe_idx->push_back(p);
        build_idx->push_back(b);
      }
    }
    EmitByJoinType(type, matched, p, probe_idx, build_idx);
  }
}

/// RLE fast path: single INT64 key with the build key column run-length
/// encoded (the sorted edge table's src). Matches whole runs — one value
/// comparison per run, build rows emitted straight from the run's row
/// range — without ever decoding the build key column.
void MergeMorselRle(const Table& probe, int probe_col,
                    const std::vector<RleRun>& runs,
                    const std::vector<int64_t>& run_starts, JoinType type,
                    bool emit_build, int64_t pb, int64_t pe,
                    std::vector<int64_t>* probe_idx,
                    std::vector<int64_t>* build_idx) {
  const Column& pcol = probe.column(probe_col);
  const size_t num_runs = runs.size();
  int64_t seed_probe = pb;
  while (seed_probe < pe && pcol.IsNull(seed_probe)) ++seed_probe;
  size_t r = 0;
  if (seed_probe < pe) {
    const int64_t k0 = pcol.GetInt64(seed_probe);
    size_t lo = 0;
    size_t hi = num_runs;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (runs[mid].value < k0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    r = lo;
  }
  for (int64_t p = pb; p < pe; ++p) {
    bool matched = false;
    if (!pcol.IsNull(p)) {
      const int64_t k = pcol.GetInt64(p);
      while (r < num_runs && runs[r].value < k) ++r;
      for (size_t rr = r; rr < num_runs && runs[rr].value == k; ++rr) {
        matched = true;
        if (!emit_build) break;
        const int64_t first = run_starts[rr];
        for (int64_t b = first; b < first + runs[rr].length; ++b) {
          probe_idx->push_back(p);
          build_idx->push_back(b);
        }
      }
    }
    EmitByJoinType(type, matched, p, probe_idx, build_idx);
  }
}

}  // namespace

Result<Table> ParallelMergeJoin(const Table& probe, const Table& build,
                                const std::vector<std::string>& probe_keys,
                                const std::vector<std::string>& build_keys,
                                JoinType type,
                                const ParallelOptions& options) {
  WallTimer timer;
  VX_ASSIGN_OR_RETURN(
      Schema schema, HashJoinOutputSchema(probe.schema(), build.schema(),
                                          probe_keys, build_keys, type));
  std::vector<int> probe_cols;
  for (const auto& k : probe_keys) {
    VX_ASSIGN_OR_RETURN(int idx, probe.ColumnIndex(k));
    probe_cols.push_back(idx);
  }
  std::vector<int> build_cols;
  for (const auto& k : build_keys) {
    VX_ASSIGN_OR_RETURN(int idx, build.ColumnIndex(k));
    build_cols.push_back(idx);
  }
  for (size_t k = 0; k < probe_cols.size(); ++k) {
    if (probe.column(probe_cols[k]).type() !=
        build.column(build_cols[k]).type()) {
      return Status::TypeError("MergeJoin: key type mismatch on '" +
                               probe_keys[k] + "' = '" + build_keys[k] + "'");
    }
  }

  const bool emit_build = type == JoinType::kInner || type == JoinType::kLeft;
  const int64_t probe_rows = probe.num_rows();
  const int64_t grain = options.ResolvedGrain();
  const int threads = options.ResolvedThreads();

  // Morsel boundaries: fixed grain positions, each extended forward to the
  // next key-group boundary. A function of the data and `morsel_rows`
  // only — never the thread count — so outputs (concatenated in morsel
  // order) are bit-identical at any parallelism, and whole key groups stay
  // inside one morsel for the run-at-a-time fast path.
  std::vector<int64_t> bounds{0};
  while (bounds.back() < probe_rows) {
    int64_t next = std::min(bounds.back() + grain, probe_rows);
    while (next < probe_rows &&
           ProbeKeysEqual(probe, probe_cols, next - 1, next)) {
      ++next;
    }
    bounds.push_back(next);
  }
  const size_t num_morsels = bounds.size() - 1;

  // Run-at-a-time eligibility: single INT64 key, build side RLE, no build
  // NULLs (a NULL's stored slot value would break the run-order premise).
  const std::vector<RleRun>* runs = nullptr;
  const std::vector<int64_t>* run_starts = nullptr;
  if (probe_cols.size() == 1) {
    const Column& bcol = build.column(build_cols[0]);
    if (bcol.type() == DataType::kInt64 && bcol.null_count() == 0) {
      runs = bcol.rle_runs();
      run_starts = bcol.rle_run_starts();
    }
  }

  std::vector<Table> outputs(num_morsels);
  VX_RETURN_NOT_OK(ThreadPool::Default()->ParallelFor(
      0, num_morsels, 1,
      [&](size_t begin, size_t end) -> Status {
        for (size_t m = begin; m < end; ++m) {
          std::vector<int64_t> probe_idx;
          std::vector<int64_t> build_idx;
          if (runs != nullptr) {
            MergeMorselRle(probe, probe_cols[0], *runs, *run_starts, type,
                           emit_build, bounds[m], bounds[m + 1], &probe_idx,
                           &build_idx);
          } else {
            MergeMorselGeneric(probe, probe_cols, build, build_cols, type,
                               emit_build, bounds[m], bounds[m + 1],
                               &probe_idx, &build_idx);
          }
          std::vector<Column> columns;
          columns.reserve(static_cast<size_t>(schema.num_fields()));
          {
            Table probe_side = probe.Take(probe_idx);
            for (int c = 0; c < probe_side.num_columns(); ++c) {
              columns.push_back(std::move(*probe_side.mutable_column(c)));
            }
          }
          if (emit_build) {
            for (int c = 0; c < build.num_columns(); ++c) {
              columns.push_back(build.column(c).TakeOrNull(build_idx));
            }
          }
          VX_ASSIGN_OR_RETURN(Table out,
                              Table::Make(schema, std::move(columns)));
          outputs[m] = std::move(out);
        }
        return Status::OK();
      },
      threads));

  Table result(schema);
  for (const Table& out : outputs) {
    VX_RETURN_NOT_OK(result.Append(out));
  }
  // Probe-row-major output: the probe side's declared order survives (its
  // columns keep their positions). When the probe declared nothing — the
  // caller established order by verification — declare the key prefix.
  if (!probe.sort_order().empty()) {
    result.SetSortOrder(probe.sort_order());
  } else {
    std::vector<SortKey> keys;
    for (int c : probe_cols) keys.push_back({c, true});
    result.SetSortOrder(std::move(keys));
  }
  if (JoinPathStats* stats = AmbientJoinStats()) {
    ++stats->merge_joins;
    stats->merge_rows += result.num_rows();
    stats->merge_seconds += timer.ElapsedSeconds();
  }
  return result;
}

// ------------------------------------------------------------ the operator

ParallelMergeJoinOp::ParallelMergeJoinOp(OperatorPtr probe, OperatorPtr build,
                                         std::vector<std::string> probe_keys,
                                         std::vector<std::string> build_keys,
                                         JoinType type,
                                         ParallelOptions options)
    : probe_(std::move(probe)),
      build_(std::move(build)),
      probe_keys_(std::move(probe_keys)),
      build_keys_(std::move(build_keys)),
      type_(type),
      options_(options) {
  auto schema =
      HashJoinOutputSchema(probe_->output_schema(), build_->output_schema(),
                           probe_keys_, build_keys_, type_);
  if (!schema.ok()) {
    init_status_ = schema.status();
    return;
  }
  schema_ = *std::move(schema);
}

std::string ParallelMergeJoinOp::label() const {
  std::string out = std::string("MergeJoin[") + JoinTypeName(type_) + "](";
  for (size_t i = 0; i < probe_keys_.size(); ++i) {
    if (i > 0) out += ", ";
    out += probe_keys_[i] + " = " + build_keys_[i];
  }
  return out + ") [morsel]";
}

Result<std::optional<Table>> ParallelMergeJoinOp::Next() {
  VX_RETURN_NOT_OK(init_status_);
  if (done_) return std::optional<Table>{};
  done_ = true;
  VX_ASSIGN_OR_RETURN(auto probe_table, CollectShared(probe_.get()));
  VX_ASSIGN_OR_RETURN(auto build_table, CollectShared(build_.get()));

  bool mergeable = MergeJoinEnabled();
  std::vector<int> probe_cols;
  std::vector<int> build_cols;
  for (size_t k = 0; mergeable && k < probe_keys_.size(); ++k) {
    auto pi = probe_table->ColumnIndex(probe_keys_[k]);
    auto bi = build_table->ColumnIndex(build_keys_[k]);
    if (!pi.ok() || !bi.ok() ||
        probe_table->column(*pi).type() != build_table->column(*bi).type()) {
      mergeable = false;
      break;
    }
    probe_cols.push_back(*pi);
    build_cols.push_back(*bi);
  }
  // The planner's order claim is re-established on the materialized
  // inputs; if it does not hold (an upstream operator lost or never had
  // the order), fall back — merge join degrades to hash join, never to a
  // wrong answer.
  mergeable = mergeable && TableSortedOnKeys(*probe_table, probe_cols) &&
              TableSortedOnKeys(*build_table, build_cols);

  if (mergeable) {
    VX_ASSIGN_OR_RETURN(
        Table out, ParallelMergeJoin(*probe_table, *build_table, probe_keys_,
                                     build_keys_, type_, options_));
    return std::optional<Table>(std::move(out));
  }
  VX_ASSIGN_OR_RETURN(
      Table out, ParallelHashJoin(*probe_table, *build_table, probe_keys_,
                                  build_keys_, type_, options_));
  return std::optional<Table>(std::move(out));
}

}  // namespace vertexica
