/// \file bench_serving.cc
/// \brief Serving latency under concurrency: N client threads issue a mixed
/// PageRank / SSSP / relational-pipeline workload against one EngineServer
/// and we report end-to-end latency and admission queue-wait percentiles.
///
/// The mix covers all four backends; the Vertexica(SQL) requests are the
/// "relational pipeline" clients — that backend executes the algorithms as
/// plain join/aggregate operator pipelines on the morsel-parallel executor.
/// Every concurrent result is checked bit-identical against a serial
/// reference pass on the same server, so the numbers below are only ever
/// produced by correct runs (the determinism contract from
/// tests/server_test.cc, re-asserted at bench scale).
///
/// Timing semantics: graph install + backend Prepare happen outside the
/// measured window (PrepareGraph keeps the one-time load out of serving
/// latency, as a warm server would); measured seconds are wall-clock from
/// request submission to result, i.e. queue wait + run time.

#include <algorithm>
#include <cstddef>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"

#include "common/fault_injection.h"
#include "common/timer.h"
#include "server/engine_server.h"

namespace vertexica {
namespace bench {
namespace {

constexpr int kPageRankIterations = 5;
constexpr double kDamping = 0.85;
constexpr int kRequestsPerClient = 2;

FigureTable& TableServing() {
  static FigureTable table("Serving: concurrent mixed clients");
  return table;
}

/// The backend × algorithm mix each client cycles through, staggered by
/// client id so simultaneously in-flight requests differ.
std::vector<RunRequest> MixedWorkload() {
  const std::vector<std::pair<const char*, const char*>> mix = {
      {kVertexicaBackendId, kPageRank}, {kVertexicaBackendId, kSssp},
      {kSqlGraphBackendId, kPageRank},  {kSqlGraphBackendId, kSssp},
      {kGiraphBackendId, kSssp},        {kGraphDbBackendId, kPageRank},
  };
  std::vector<RunRequest> workload;
  workload.reserve(mix.size());
  for (const auto& [backend, algorithm] : mix) {
    RunRequest request = MakeFigureRequest(algorithm);
    request.backend = backend;
    request.iterations = kPageRankIterations;
    request.damping = kDamping;
    request.source = 0;
    workload.push_back(std::move(request));
  }
  return workload;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(idx, values.size() - 1)];
}

std::string ClientsRow(int clients) {
  return std::to_string(clients) + (clients == 1 ? " client" : " clients");
}

/// One shared server per binary run: Prepare cost is paid once, and every
/// client-count case exercises the same warm caches a long-lived server
/// would have.
EngineServer& Server() {
  static EngineServer* server = [] {
    auto* s = new EngineServer();
    VX_CHECK_OK(s->CreateGraph("twitter", GetDatasetShared(DatasetId::kTwitter)));
    VX_CHECK_OK(s->PrepareGraph("twitter"));
    return s;
  }();
  return *server;
}

/// Serial reference values per workload index, computed once on the warm
/// server; concurrent runs must reproduce them bit-for-bit.
const std::vector<std::vector<double>>& SerialReference() {
  static const std::vector<std::vector<double>> reference = [] {
    std::vector<std::vector<double>> values;
    for (const RunRequest& request : MixedWorkload()) {
      auto result = Server().Run("twitter", request);
      VX_CHECK(result.ok()) << request.backend << ": "
                            << result.status().ToString();
      values.push_back(result->values);
    }
    return values;
  }();
  return reference;
}

void BM_ServingMixedClients(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  EngineServer& server = Server();
  const std::vector<RunRequest> workload = MixedWorkload();
  const std::vector<std::vector<double>>& reference = SerialReference();

  std::vector<double> latencies;
  std::vector<double> queue_waits;
  double wall_seconds = 0;
  for (auto _ : state) {
    latencies.clear();
    queue_waits.clear();
    std::mutex collect_mutex;
    WallTimer wall_timer;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c]() {
        for (int r = 0; r < kRequestsPerClient; ++r) {
          const std::size_t w =
              static_cast<std::size_t>(c + r) % workload.size();
          WallTimer timer;
          auto result = server.Run("twitter", workload[w]);
          const double latency = timer.ElapsedSeconds();
          VX_CHECK(result.ok()) << workload[w].backend << ": "
                                << result.status().ToString();
          // The determinism contract: a concurrent run is bit-identical to
          // the serial reference, whatever was in flight alongside it.
          VX_CHECK(result->values == reference[w])
              << workload[w].backend << "/" << workload[w].algorithm
              << " diverged from the serial reference under " << clients
              << " concurrent clients";
          std::lock_guard<std::mutex> lock(collect_mutex);
          latencies.push_back(latency);
          queue_waits.push_back(
              result->backend_metrics["server_queue_seconds"]);
        }
      });
    }
    for (auto& t : threads) t.join();
    wall_seconds = wall_timer.ElapsedSeconds();
    state.SetIterationTime(wall_seconds);
  }

  const std::string row = ClientsRow(clients);
  TableServing().Record(row, "latency p50", Percentile(latencies, 0.50));
  TableServing().Record(row, "latency p99", Percentile(latencies, 0.99));
  TableServing().Record(row, "queue-wait p50", Percentile(queue_waits, 0.50));
  TableServing().Record(row, "queue-wait p99", Percentile(queue_waits, 0.99));
  TableServing().Record(row, "wall", wall_seconds);
}
// 1 client is the serial baseline row; 8 concurrent mixed clients is the
// acceptance configuration; 4 sits between to show the queueing knee.
BENCHMARK(BM_ServingMixedClients)->Arg(1)->Arg(4)->Arg(8)
    ->UseManualTime()->Iterations(1)->Unit(benchmark::kMillisecond);

/// Serving under a 10% deterministic transient-failure rate: every 10th
/// pass through the server.run fault point aborts, and the server's
/// bounded-backoff retry loop absorbs it. Reported: the latency the retry
/// tax costs at p50/p99, plus the retry and shed counters — all produced
/// only by runs that still match the serial reference bit-for-bit.
EngineServer& FaultServer() {
  static EngineServer* server = [] {
    // Dedicated server so the retry knob is explicit, and so arming the
    // fault can't perturb the clean-path rows above. A generous attempt
    // budget keeps the worst-case hit interleaving (every attempt of one
    // request landing on a multiple of the period) out of reach.
    ServerOptions options;
    options.max_run_attempts = 6;
    auto* s = new EngineServer(options);
    VX_CHECK_OK(s->CreateGraph("twitter", GetDatasetShared(DatasetId::kTwitter)));
    VX_CHECK_OK(s->PrepareGraph("twitter"));
    return s;
  }();
  return *server;
}

void BM_ServingTransientFaults(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  EngineServer& server = FaultServer();
  const std::vector<RunRequest> workload = MixedWorkload();
  // The reference comes from the *other* (clean) server: recovery must
  // reproduce not just a serial run, but any correct server's bits.
  const std::vector<std::vector<double>>& reference = SerialReference();

  std::vector<double> latencies;
  double wall_seconds = 0;
  uint64_t retries = 0;
  uint64_t shed = 0;
  for (auto _ : state) {
    latencies.clear();
    std::mutex collect_mutex;
    const uint64_t retries_before = server.retry_count();
    const uint64_t shed_before = server.admission_stats().shed;
    ArmFaultEvery("server.run", 10, FaultAction::kError);  // 10% failure rate
    WallTimer wall_timer;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c]() {
        for (int r = 0; r < kRequestsPerClient; ++r) {
          const std::size_t w =
              static_cast<std::size_t>(c + r) % workload.size();
          WallTimer timer;
          auto result = server.Run("twitter", workload[w]);
          const double latency = timer.ElapsedSeconds();
          VX_CHECK(result.ok())
              << workload[w].backend << " under injected faults: "
              << result.status().ToString();
          VX_CHECK(result->values == reference[w])
              << workload[w].backend << "/" << workload[w].algorithm
              << " diverged from the serial reference under injected faults";
          std::lock_guard<std::mutex> lock(collect_mutex);
          latencies.push_back(latency);
        }
      });
    }
    for (auto& t : threads) t.join();
    wall_seconds = wall_timer.ElapsedSeconds();
    DisarmAllFaults();
    retries = server.retry_count() - retries_before;
    shed = server.admission_stats().shed - shed_before;
    state.SetIterationTime(wall_seconds);
  }

  const std::string row = ClientsRow(clients) + ", 10% transient faults";
  TableServing().Record(row, "latency p50", Percentile(latencies, 0.50));
  TableServing().Record(row, "latency p99", Percentile(latencies, 0.99));
  TableServing().Record(row, "retries", static_cast<double>(retries),
                        "count");
  TableServing().Record(row, "shed", static_cast<double>(shed), "count");
  TableServing().Record(row, "wall", wall_seconds);
}
BENCHMARK(BM_ServingTransientFaults)->Arg(8)
    ->UseManualTime()->Iterations(1)->Unit(benchmark::kMillisecond);

void PrintAdmissionSummary() {
  const auto stats = Server().admission_stats();
  std::printf(
      "Admission: budget=%d admitted=%llu queued=%llu clamped=%llu "
      "max_in_use=%d queue-wait max=%.3fs\n",
      Server().admission_budget_threads(),
      static_cast<unsigned long long>(stats.admitted),
      static_cast<unsigned long long>(stats.queued),
      static_cast<unsigned long long>(stats.clamped), stats.max_in_use,
      stats.max_queue_seconds);
}

}  // namespace
}  // namespace bench
}  // namespace vertexica

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::vertexica::bench::TableServing().Print();
  ::vertexica::bench::PrintAdmissionSummary();
  ::vertexica::bench::TableServing().WriteJson("BENCH_serving.json");
  return 0;
}
