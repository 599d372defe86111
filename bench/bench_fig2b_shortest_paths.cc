/// \file bench_fig2b_shortest_paths.cc
/// \brief Reproduces Figure 2(b): single-source shortest paths runtime on
/// Twitter / GPlus / LiveJournal for the four systems, dispatched through
/// the `vertexica::Engine` facade with one shared `RunRequest`.
///
/// Expected shape (paper numbers at scale 1.0): GraphDB 395.6 s on Twitter
/// (and absent on larger graphs); Giraph 43.7 s on Twitter vs Vertexica
/// 10.4 s (>4x); Vertexica (SQL) fastest everywhere (2.96 s Twitter,
/// 54.4 s LiveJournal).
///
/// Timing semantics: one-time backend preparation (Engine::Prepare) is
/// outside the measured window for every backend; see bench_fig2a's note.

#include "bench_common.h"

namespace vertexica {
namespace bench {
namespace {

constexpr int64_t kSource = 0;

FigureTable& Table2b() {
  static FigureTable table("Figure 2(b): Shortest Paths");
  return table;
}

void BM_ShortestPaths(benchmark::State& state, DatasetId id,
                      const std::string& backend) {
  Engine& engine = EngineFor(id);
  RunRequest request = MakeFigureRequest(kSssp);
  request.backend = backend;
  request.source = kSource;
  double seconds = 0;
  for (auto _ : state) {
    auto result = engine.Run(request);
    VX_CHECK(result.ok()) << backend << ": " << result.status().ToString();
    benchmark::DoNotOptimize(result->values.data());
    seconds = result->stats.total_seconds;
    state.SetIterationTime(seconds);
    MaybeDumpStatsJson(std::string(DatasetName(id)) + "/" + backend,
                       result->stats);
  }
  Table2b().Record(DatasetName(id), FigureLabel(backend), seconds);
}

}  // namespace
}  // namespace bench
}  // namespace vertexica

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  vertexica::bench::RegisterFigureBenchmarks(
      "ShortestPaths", vertexica::bench::BM_ShortestPaths);
  ::benchmark::RunSpecifiedBenchmarks();
  ::vertexica::bench::Table2b().Print();
  ::vertexica::bench::Table2b().WriteJson("BENCH_fig2b_shortest_paths.json");
  return 0;
}
