/// \file bench_relational_pipeline.cc
/// \brief §3.4: end-to-end pipelines mixing relational pre/post-processing
/// with graph algorithms — selection → algorithm → aggregation, PageRank
/// histograms, and metadata joins ("end-to-end data processing, starting
/// from raw data and right up to deriving meaningful insights").
///
/// Every case sweeps the executor `threads` knob (1 vs. hardware) through
/// an installed ExecKnobs, so the §2.3 "parallel workers" claim is exercised on
/// the relational operator pipelines themselves: joins, aggregates, and
/// filters here run on the morsel-parallel executor (exec/parallel.h), and
/// independent pipeline nodes run as parallel DAG waves.

#include <optional>
#include <thread>

#include "bench_common.h"

#include "algorithms/pagerank.h"
#include "algorithms/sssp.h"
#include "common/exec_knobs.h"
#include "common/random.h"
#include "common/timer.h"
#include "exec/kernel_stats.h"
#include "exec/parallel.h"
#include "exec/vectorized.h"
#include "graphgen/metadata.h"
#include "pipeline/dataflow.h"
#include "pipeline/nodes.h"
#include "sqlgraph/sql_common.h"

namespace vertexica {
namespace bench {
namespace {

FigureTable& Table34() {
  static FigureTable table("Sec 3.4: relational pipelines");
  return table;
}

int HardwareThreads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

std::string ThreadsColumn(int threads) {
  return "T" + std::to_string(threads);
}

/// The current context with `threads`; 0 keeps the current thread count
/// (VERTEXICA_THREADS, else hardware cores).
ExecKnobs KnobsWithThreads(int threads) {
  ExecKnobs knobs = ExecKnobs::Current();
  if (threads > 0) knobs.threads = threads;
  return knobs;
}

const Table& TwitterEdgesWithMetadata() {
  static const Table edges =
      GenerateEdgeMetadata(GetDataset(DatasetId::kTwitter), 4242);
  return edges;
}

/// Runs `build(pipeline)`→Run(target) under `threads` and records one cell.
template <typename BuildFn>
void RunPipelineCase(benchmark::State& state, const std::string& row,
                     const BuildFn& build) {
  const int threads = static_cast<int>(state.range(0));
  double seconds = 0;
  for (auto _ : state) {
    const ExecKnobs knobs = KnobsWithThreads(threads);
    ScopedExecKnobs scoped(knobs);
    WallTimer timer;
    Pipeline p;
    const int target = build(&p);
    auto out = p.Run(target);
    VX_CHECK(out.ok()) << out.status().ToString();
    benchmark::DoNotOptimize(out->num_rows());
    seconds = timer.ElapsedSeconds();
    state.SetIterationTime(seconds);
  }
  Table34().Record(row, ThreadsColumn(threads), seconds);
}

void BM_SelectThenPageRankThenAggregate(benchmark::State& state) {
  const Table& edges = TwitterEdgesWithMetadata();
  RunPipelineCase(state, "Select>PR>Agg", [&edges](Pipeline* p) {
    const int src = p->AddNode(MakeSourceNode("edges", edges));
    const int family = p->AddNode(
        MakeSelectionNode(Eq(Col("type"), Lit(std::string("family")))),
        {src});
    const int pr = p->AddNode(MakePageRankNode(5), {family});
    return p->AddNode(
        MakeAggregationNode({}, {{AggOp::kMax, "rank", "max_rank"},
                                 {AggOp::kAvg, "rank", "avg_rank"},
                                 {AggOp::kCountStar, "", "nodes"}}),
        {pr});
  });
}
BENCHMARK(BM_SelectThenPageRankThenAggregate)->Arg(1)->Arg(0)
    ->UseManualTime()->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_PageRankHistogram(benchmark::State& state) {
  const Table& edges = TwitterEdgesWithMetadata();
  RunPipelineCase(state, "PR histogram", [&edges](Pipeline* p) {
    const int src = p->AddNode(MakeSourceNode("edges", edges));
    const int pr = p->AddNode(MakePageRankNode(5), {src});
    return p->AddNode(MakeHistogramNode("rank", 20), {pr});
  });
}
BENCHMARK(BM_PageRankHistogram)->Arg(1)->Arg(0)
    ->UseManualTime()->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_MetadataJoinAggregate(benchmark::State& state) {
  const Graph& g = GetDataset(DatasetId::kTwitter);
  const Table& edges = TwitterEdgesWithMetadata();
  static const Table metadata = GenerateNodeMetadata(g.num_vertices, 4243);
  RunPipelineCase(state, "PR join meta", [&edges](Pipeline* p) {
    const int src = p->AddNode(MakeSourceNode("edges", edges));
    const int pr = p->AddNode(MakePageRankNode(5), {src});
    const int meta = p->AddNode(MakeSourceNode("metadata", metadata));
    const int joined = p->AddNode(MakeJoinNode({"id"}, {"id"}), {pr, meta});
    // Average rank per value of the low-cardinality attribute u0.
    return p->AddNode(
        MakeAggregationNode({"u0"}, {{AggOp::kAvg, "rank", "avg_rank"}}),
        {joined});
  });
}
BENCHMARK(BM_MetadataJoinAggregate)->Arg(1)->Arg(0)
    ->UseManualTime()->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_TimestampWindowAnalysis(benchmark::State& state) {
  // "last one year" style temporal filter on the edge creation timestamp,
  // then triangle counting on the recent subgraph.
  const Table& edges = TwitterEdgesWithMetadata();
  constexpr int64_t kNow = 1700000000;
  constexpr int64_t kYear = 365LL * 24 * 3600;
  RunPipelineCase(state, "LastYear tri", [&edges](Pipeline* p) {
    const int src = p->AddNode(MakeSourceNode("edges", edges));
    const int recent = p->AddNode(
        MakeSelectionNode(Ge(Col("created"), Lit(kNow - kYear))), {src});
    return p->AddNode(MakeTriangleCountingNode(), {recent});
  });
}
BENCHMARK(BM_TimestampWindowAnalysis)->Arg(1)->Arg(0)
    ->UseManualTime()->Iterations(1)->Unit(benchmark::kMillisecond);

// ---- Zone-map scan pruning (storage/encoding.h) ------------------------
//
// A selective comparison over a block-sorted column: with zone maps +
// encoding the morsel driver proves most morsels empty and never touches
// (or decodes) them; without, every row is scanned. Rows are bit-identical
// either way — the win is wall-clock and rows touched.

std::shared_ptr<const Table> ZoneScanTable(bool with_zone_maps) {
  auto make = [](bool encode) {
    constexpr int64_t kRows = 4 * 1000 * 1000;
    std::vector<int64_t> ts(static_cast<size_t>(kRows));
    std::vector<double> payload(static_cast<size_t>(kRows));
    Rng rng(7);
    for (int64_t i = 0; i < kRows; ++i) {
      ts[static_cast<size_t>(i)] = i / 1000;  // block-sorted timestamps
      payload[static_cast<size_t>(i)] = rng.NextDouble();
    }
    auto made = Table::Make(
        Schema({{"ts", DataType::kInt64}, {"payload", DataType::kDouble}}),
        {Column::FromInts(std::move(ts)),
         Column::FromDoubles(std::move(payload))});
    VX_CHECK(made.ok());
    Table table = std::move(made).MoveValueUnsafe();
    if (encode) table.EncodeColumns(EncodingMode::kForce);
    return std::make_shared<const Table>(std::move(table));
  };
  static const auto plain = make(false);
  static const auto encoded = make(true);
  return with_zone_maps ? encoded : plain;
}

void BM_ZoneMapPrunedScan(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const bool zone_maps = state.range(1) != 0;
  const auto table = ZoneScanTable(zone_maps);
  // ~0.1% selective: one 4000-row block out of 4M rows.
  const ExprPtr pred = And(Ge(Col("ts"), Lit(int64_t{2000})),
                           Lt(Col("ts"), Lit(int64_t{2004})));
  double seconds = 0;
  int64_t rows = 0;
  KernelStats counters;
  for (auto _ : state) {
    WallTimer timer;
    ExecKnobs knobs = KnobsWithThreads(threads);
    knobs.kernel_stats = &counters;
    ScopedExecKnobs scoped(knobs);
    auto out = ParallelFilter(table, pred);
    VX_CHECK(out.ok()) << out.status().ToString();
    rows = out->num_rows();
    benchmark::DoNotOptimize(rows);
    seconds = timer.ElapsedSeconds();
    state.SetIterationTime(seconds);
  }
  VX_CHECK(rows == 4000) << "selective scan returned " << rows;
  state.counters["rows_pruned"] =
      static_cast<double>(Snapshot(counters).rows_pruned);
  Table34().Record(zone_maps ? "ZoneScan on" : "ZoneScan off",
                   ThreadsColumn(threads), seconds);
}
BENCHMARK(BM_ZoneMapPrunedScan)
    ->Args({1, 0})->Args({1, 1})->Args({0, 0})->Args({0, 1})
    ->UseManualTime()->Iterations(1)->Unit(benchmark::kMillisecond);

// ---- Fused selection-vector σ→π (exec/vectorized.h) --------------------
//
// The selection-vector execution core, on vs off: a selective fully-
// pushable predicate over a wide 8-column table feeding a narrow
// ref+literal projection. The interpreter path materializes a mask column
// and every survivor column per morsel; the fused path narrows a selection
// vector in typed loops and gathers only the projected columns once, at
// the pipeline's end. Rows are bit-identical either way (VX_CHECKed); the
// structural win is the bytes_materialized counter, reported per cell.

std::shared_ptr<const Table> WideSigmaPiTable() {
  static const auto table = [] {
    const int64_t rows = std::max<int64_t>(
        200 * 1000, static_cast<int64_t>(4 * 1000 * 1000 * Scale()));
    std::vector<int64_t> k(static_cast<size_t>(rows));
    std::vector<int64_t> v(static_cast<size_t>(rows));
    Rng rng(11);
    for (int64_t i = 0; i < rows; ++i) {
      k[static_cast<size_t>(i)] = static_cast<int64_t>(rng.Uniform(1000));
      v[static_cast<size_t>(i)] = i;
    }
    Schema schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}});
    std::vector<Column> cols = {Column::FromInts(std::move(k)),
                                Column::FromInts(std::move(v))};
    for (int p = 0; p < 6; ++p) {
      std::vector<double> payload(static_cast<size_t>(rows));
      for (auto& x : payload) x = rng.NextDouble();
      schema.AddField({"p" + std::to_string(p), DataType::kDouble});
      cols.push_back(Column::FromDoubles(std::move(payload)));
    }
    auto made = Table::Make(schema, std::move(cols));
    VX_CHECK(made.ok()) << made.status().ToString();
    return std::make_shared<const Table>(std::move(made).MoveValueUnsafe());
  }();
  return table;
}

void BM_FusedFilterProject(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const bool fused = state.range(1) != 0;
  const auto table = WideSigmaPiTable();
  // ~5% selective, two pushable conjuncts (select + one refine pass).
  const ExprPtr pred = And(Ge(Col("k"), Lit(int64_t{900})),
                           Lt(Col("k"), Lit(int64_t{950})));
  const std::vector<ProjectionSpec> proj = {
      {"v", Col("v")}, {"p0", Col("p0")}, {"tag", Lit(int64_t{1})}};
  static std::optional<Table> expected;  // parity across all four cells
  double seconds = 0;
  KernelStats stats;
  for (auto _ : state) {
    ExecKnobs knobs = KnobsWithThreads(threads);
    knobs.vectorized = fused;
    knobs.kernel_stats = &stats;
    ScopedExecKnobs scoped(knobs);
    WallTimer timer;
    auto out = ParallelFilterProject(table, pred, proj);
    VX_CHECK(out.ok()) << out.status().ToString();
    benchmark::DoNotOptimize(out->num_rows());
    seconds = timer.ElapsedSeconds();
    state.SetIterationTime(seconds);
    // Knob parity: the fused path is a pure physical-plan swap (the CI
    // bench smoke job trips on a divergence).
    if (!expected) {
      expected = std::move(*out);
    } else {
      VX_CHECK(out->Equals(*expected)) << "fused σ→π diverged";
    }
  }
  const KernelStatsSnapshot snap = Snapshot(stats);
  state.counters["bytes_materialized"] =
      static_cast<double>(snap.bytes_materialized);
  VX_CHECK(fused ? snap.fused_batches > 0 : snap.legacy_batches > 0);
  Table34().Record(fused ? "FusedSigmaPi on" : "FusedSigmaPi off",
                   ThreadsColumn(threads), seconds);
}
BENCHMARK(BM_FusedFilterProject)
    ->Args({1, 0})->Args({1, 1})->Args({0, 0})->Args({0, 1})
    ->UseManualTime()->Iterations(1)->Unit(benchmark::kMillisecond);

// ---- Superstep joins of the 3-way-join input (exec/parallel.h) ---------
//
// The §2.3 3-way-join input build: the vertex ⟕ message ⟕ edge hash
// joins. The reported time is the join-kernel time summed over the run
// (SuperstepStats::join_seconds), so the cell is exactly the superstep
// join cost of the join-input path.

void BM_SuperstepJoinPath(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const Graph& g = GetDataset(DatasetId::kTwitter);
  VertexicaOptions opts;
  opts.use_union_input = false;
  // Always update in place so the only joins counted are the two input
  // builds per superstep (the replace-path rebuild adds an anti join).
  opts.update_threshold = 2.0;
  static int64_t expected_join_rows = -1;  // parity across both cells
  double seconds = 0;
  for (auto _ : state) {
    const ExecKnobs knobs = KnobsWithThreads(threads);
    ScopedExecKnobs scoped(knobs);
    Catalog catalog;
    RunStats stats;
    auto ranks = RunPageRank(&catalog, g, 5, 0.85, opts, &stats);
    VX_CHECK(ranks.ok()) << ranks.status().ToString();
    double join_seconds = 0;
    int64_t join_rows = 0;
    int64_t hash_joins = 0;
    for (const auto& s : stats.supersteps) {
      join_seconds += s.join_seconds;
      join_rows += s.join_rows;
      hash_joins += s.hash_joins;
    }
    // Parity sanity (this is what the CI bench smoke job trips on): the
    // joins ran, and they join the same number of rows at any thread
    // count.
    VX_CHECK(hash_joins > 0);
    if (expected_join_rows < 0) expected_join_rows = join_rows;
    VX_CHECK(join_rows == expected_join_rows)
        << join_rows << " vs " << expected_join_rows;
    seconds = join_seconds;
    state.SetIterationTime(seconds);
  }
  Table34().Record("StepJoin hash", ThreadsColumn(threads), seconds);
}
BENCHMARK(BM_SuperstepJoinPath)
    ->Arg(1)->Arg(0)
    ->UseManualTime()->Iterations(1)->Unit(benchmark::kMillisecond);

// ---- Active-vertex frontier supersteps (common/exec_knobs.h) -----------
//
// SSSP on a long-tail graph: an RMAT core with a long chain hanging off
// the source's component. Once the core converges the distance wave crawls
// down the chain one vertex per superstep, so the dense path assembles a
// full V+E+M worker input for supersteps that touch one or two vertices.
// The frontier path gathers only the active rows through the halted/
// receiver bitvector and the cached CSR edge slices. Distances are
// VX_CHECKed bit-identical across all cells; the recorded time is the
// summed superstep seconds (SuperstepStats::seconds), i.e. exactly the
// dataflow cost the frontier removes.

const Graph& LongTailGraph() {
  static const Graph graph = [] {
    const int64_t core_v =
        std::max<int64_t>(500, static_cast<int64_t>(20000 * Scale()));
    Graph g = GenerateRmat(core_v, 6 * core_v, 777);
    // Chain tail hanging off the SSSP source (vertex 0): the sparse-regime
    // long tail. Its length bounds the superstep count.
    const int64_t tail =
        std::max<int64_t>(60, static_cast<int64_t>(1200 * Scale()));
    int64_t prev = 0;
    for (int64_t i = 0; i < tail; ++i) {
      const int64_t v = g.num_vertices++;
      g.AddEdge(prev, v);
      prev = v;
    }
    return g;
  }();
  return graph;
}

void BM_FrontierSuperstep(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const bool frontier = state.range(1) != 0;
  const Graph& g = LongTailGraph();
  VertexicaOptions opts;  // default union-input path
  opts.max_supersteps =
      static_cast<int>(g.num_vertices);  // the tail needs one step per hop
  static std::vector<double> expected;  // parity across all four cells
  double seconds = 0;
  for (auto _ : state) {
    ExecKnobs knobs = KnobsWithThreads(threads);
    knobs.frontier = frontier ? FrontierMode::kOn : FrontierMode::kOff;
    ScopedExecKnobs scoped(knobs);
    Catalog catalog;
    RunStats stats;
    auto dist = RunShortestPaths(&catalog, g, 0, opts, &stats);
    VX_CHECK(dist.ok()) << dist.status().ToString();
    // Path + parity sanity (this is what the CI bench smoke job trips on):
    // the requested path actually ran — under `on` every superstep after
    // the first goes sparse — and distances agree bit-for-bit.
    VX_CHECK(frontier ? (stats.frontier_supersteps > 0 &&
                         stats.dense_supersteps == 1)
                      : stats.frontier_supersteps == 0)
        << stats.frontier_supersteps << " frontier / "
        << stats.dense_supersteps << " dense supersteps";
    if (expected.empty()) expected = *dist;
    VX_CHECK(*dist == expected) << "frontier SSSP diverged";
    double superstep_seconds = 0;
    for (const auto& s : stats.supersteps) superstep_seconds += s.seconds;
    seconds = superstep_seconds;
    state.SetIterationTime(seconds);
  }
  Table34().Record(frontier ? "Frontier on" : "Frontier off",
                   ThreadsColumn(threads), seconds);
}
BENCHMARK(BM_FrontierSuperstep)
    ->Args({1, 0})->Args({1, 1})->Args({0, 0})->Args({0, 1})
    ->UseManualTime()->Iterations(1)->Unit(benchmark::kMillisecond);

void PrintSpeedups() {
  std::printf("Speedup vs 1 thread (T0 = %d hardware threads):\n",
              HardwareThreads());
  for (const char* row :
       {"Select>PR>Agg", "PR histogram", "PR join meta", "LastYear tri"}) {
    const double serial = Table34().Lookup(row, ThreadsColumn(1));
    const double parallel = Table34().Lookup(row, ThreadsColumn(0));
    if (serial > 0 && parallel > 0) {
      std::printf("  %-14s %.2fx\n", row, serial / parallel);
    }
  }
  const double scan_off = Table34().Lookup("ZoneScan off", ThreadsColumn(0));
  const double scan_on = Table34().Lookup("ZoneScan on", ThreadsColumn(0));
  if (scan_off > 0 && scan_on > 0) {
    std::printf("Zone-map pruning speedup on the selective scan: %.2fx\n",
                scan_off / scan_on);
  }
  for (int threads : {1, 0}) {
    const double interp = Table34().Lookup("FusedSigmaPi off",
                                           ThreadsColumn(threads));
    const double fused = Table34().Lookup("FusedSigmaPi on",
                                          ThreadsColumn(threads));
    if (interp > 0 && fused > 0) {
      std::printf(
          "Fused sigma->pi speedup vs interpreter (T%d): %.2fx\n", threads,
          interp / fused);
    }
  }
  for (int threads : {1, 0}) {
    const double dense = Table34().Lookup("Frontier off",
                                          ThreadsColumn(threads));
    const double sparse = Table34().Lookup("Frontier on",
                                           ThreadsColumn(threads));
    if (dense > 0 && sparse > 0) {
      std::printf(
          "Long-tail SSSP superstep speedup, frontier vs dense (T%d): "
          "%.2fx\n",
          threads, dense / sparse);
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace vertexica

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::vertexica::bench::Table34().Print();
  ::vertexica::bench::PrintSpeedups();
  ::vertexica::bench::Table34().WriteJson("BENCH_relational_pipeline.json");
  return 0;
}
