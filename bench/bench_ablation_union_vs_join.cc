/// \file bench_ablation_union_vs_join.cc
/// \brief §2.3 "Table Unions" ablation: the union input versus the
/// traditional 3-way-join plan for assembling worker input. The union is
/// logical — the workers read the vertex, edge and message tables in place
/// (vertexica/worker_driver.h) — so this compares reading in place with a
/// materialized 3-way join, not one materialized input with another. The
/// paper argues the join "could be very expensive and kill the
/// performance"; this bench quantifies that on PageRank (dense messages —
/// worst case for the join fan-out) and SSSP (sparse messages).

#include "bench_common.h"

#include "algorithms/pagerank.h"
#include "algorithms/sssp.h"

namespace vertexica {
namespace bench {
namespace {

FigureTable& TableUj() {
  static FigureTable table("Ablation (Sec 2.3): table unions vs 3-way join");
  return table;
}

void RunPr(benchmark::State& state, DatasetId id, bool use_union) {
  const Graph& g = GetDataset(id);
  VertexicaOptions opts;
  opts.use_union_input = use_union;
  double seconds = 0;
  for (auto _ : state) {
    Catalog cat;
    RunStats stats;
    VX_CHECK(RunPageRank(&cat, g, 5, 0.85, opts, &stats).ok());
    seconds = stats.total_seconds;
    state.SetIterationTime(seconds);
    // Phase breakdown shows *where* the join plan loses: input assembly
    // (the 3-way join fan-out) and worker input size.
    double input_s = 0;
    double worker_s = 0;
    int64_t input_rows = 0;
    for (const auto& s : stats.supersteps) {
      input_s += s.input_seconds;
      worker_s += s.worker_seconds;
      input_rows += s.input_rows;
    }
    state.counters["input_assembly_s"] = input_s;
    state.counters["worker_s"] = worker_s;
    state.counters["input_rows"] = static_cast<double>(input_rows);
  }
  TableUj().Record(std::string(DatasetName(id)) + " PR",
                   use_union ? "union" : "join", seconds);
}

void RunSssp(benchmark::State& state, DatasetId id, bool use_union) {
  const Graph& g = GetDataset(id);
  VertexicaOptions opts;
  opts.use_union_input = use_union;
  double seconds = 0;
  for (auto _ : state) {
    Catalog cat;
    RunStats stats;
    VX_CHECK(RunShortestPaths(&cat, g, 0, opts, &stats).ok());
    seconds = stats.total_seconds;
    state.SetIterationTime(seconds);
  }
  TableUj().Record(std::string(DatasetName(id)) + " SSSP",
                   use_union ? "union" : "join", seconds);
}

void BM_PrUnion(benchmark::State& s) { RunPr(s, DatasetId::kTwitter, true); }
void BM_PrJoin(benchmark::State& s) { RunPr(s, DatasetId::kTwitter, false); }
void BM_SsspUnion(benchmark::State& s) {
  RunSssp(s, DatasetId::kTwitter, true);
}
void BM_SsspJoin(benchmark::State& s) {
  RunSssp(s, DatasetId::kTwitter, false);
}

BENCHMARK(BM_PrUnion)->UseManualTime()->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PrJoin)->UseManualTime()->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SsspUnion)->UseManualTime()->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SsspJoin)->UseManualTime()->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace vertexica

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::vertexica::bench::TableUj().Print();
  return 0;
}
