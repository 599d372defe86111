/// \file server_main.cc
/// \brief `vertexica_server` — a thin driver around EngineServer.
///
/// Generates (or will later load) a graph, installs it under a name, and
/// serves a mixed workload from N concurrent client threads, printing a
/// JSON summary (per-request latency percentiles, queue-wait, admission
/// stats) to stdout. Doubles as the smallest end-to-end smoke test of the
/// serving subsystem:
///
///   vertexica_server --vertices=2000 --edges=12000 --clients=8
///       --requests=4 --threads=2
///
/// All flags are optional; defaults give a sub-second run. Each takes a
/// decimal integer in its range: --clients and --requests in [1, 1024],
/// --vertices in [2, 2^26] (2 is the generator's minimum), --edges in
/// [1, 2^28], --seed, --threads and --budget >= 0. The graph bounds keep
/// the generator's up-front reservation (one slot per edge) within what a
/// server can allocate. A value out of range or not an integer, or an
/// unknown flag, prints a message and exits with status 2 before anything
/// is allocated.

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/run_types.h"
#include "common/env_knob.h"
#include "common/timer.h"
#include "graphgen/generators.h"
#include "server/engine_server.h"

namespace {

using vertexica::EngineServer;
using vertexica::RunRequest;

struct Flags {
  long vertices = 2000;
  long edges = 12000;
  long seed = 13;
  long clients = 8;
  long requests = 4;  // per client
  long threads = 0;   // per request; 0 = ambient
  long budget = 0;    // admission budget; 0 = pool size
};

/// One integer flag: `--name=<value>` with value in [min_value, max_value].
struct FlagSpec {
  const char* name;
  long min_value;
  long max_value;
  long* out;
};

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// Upper bounds of --vertices and --edges.
constexpr long kMaxVertices = 1L << 26;
constexpr long kMaxEdges = 1L << 28;

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  const FlagSpec specs[] = {
      {"--vertices", 2, kMaxVertices, &flags.vertices},
      {"--edges", 1, kMaxEdges, &flags.edges},
      {"--seed", 0, LONG_MAX, &flags.seed},
      {"--clients", 1, 1024, &flags.clients},
      {"--requests", 1, 1024, &flags.requests},
      {"--threads", 0, INT_MAX, &flags.threads},
      {"--budget", 0, INT_MAX, &flags.budget},
  };
  for (int i = 1; i < argc; ++i) {
    const FlagSpec* spec = nullptr;
    for (const FlagSpec& s : specs) {
      const std::size_t len = std::strlen(s.name);
      if (std::strncmp(argv[i], s.name, len) == 0 && argv[i][len] == '=') {
        spec = &s;
        break;
      }
    }
    if (spec == nullptr) {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
    bool out_of_range = false;
    const std::optional<long> v =
        vertexica::ParseKnobInt(argv[i] + std::strlen(spec->name) + 1,
                                spec->min_value, spec->max_value,
                                &out_of_range);
    if (!v.has_value() || out_of_range) {
      std::fprintf(stderr, "bad flag: %s (want an integer in [%ld, %ld])\n",
                   argv[i], spec->min_value, spec->max_value);
      return 2;
    }
    *spec->out = *v;
  }

  vertexica::Graph graph = vertexica::GenerateRmat(
      flags.vertices, flags.edges, static_cast<uint64_t>(flags.seed));
  vertexica::AssignRandomWeights(&graph, 1.0, 5.0,
                                 static_cast<uint64_t>(flags.seed));

  vertexica::ServerOptions options;
  options.admission_budget_threads = static_cast<int>(flags.budget);
  EngineServer server(options);
  if (auto s = server.CreateGraph("default", std::move(graph)); !s.ok()) {
    std::fprintf(stderr, "CreateGraph: %s\n", s.ToString().c_str());
    return 1;
  }
  if (auto s = server.PrepareGraph("default"); !s.ok()) {
    std::fprintf(stderr, "PrepareGraph: %s\n", s.ToString().c_str());
    return 1;
  }

  // The mixed workload: each client cycles through backend × algorithm
  // pairs, staggered by client id so concurrent requests differ.
  struct Work {
    const char* backend;
    const char* algorithm;
  };
  const std::vector<Work> workload = {
      {vertexica::kVertexicaBackendId, vertexica::kPageRank},
      {vertexica::kVertexicaBackendId, vertexica::kSssp},
      {vertexica::kSqlGraphBackendId, vertexica::kPageRank},
      {vertexica::kGiraphBackendId, vertexica::kSssp},
      {vertexica::kGraphDbBackendId, vertexica::kPageRank},
  };

  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(flags.clients));
  std::vector<std::vector<double>> queue_waits(
      static_cast<std::size_t>(flags.clients));
  std::vector<int> failures(static_cast<std::size_t>(flags.clients), 0);

  vertexica::WallTimer total_timer;
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(flags.clients));
  for (int c = 0; c < flags.clients; ++c) {
    clients.emplace_back([&, c]() {
      for (int r = 0; r < flags.requests; ++r) {
        const Work& w =
            workload[static_cast<std::size_t>(c + r) % workload.size()];
        RunRequest request;
        request.backend = w.backend;
        request.algorithm = w.algorithm;
        request.threads = static_cast<int>(flags.threads);
        request.source = c % 2;
        vertexica::WallTimer timer;
        auto result = server.Run("default", request);
        if (!result.ok()) {
          ++failures[static_cast<std::size_t>(c)];
          continue;
        }
        latencies[static_cast<std::size_t>(c)].push_back(
            timer.ElapsedSeconds());
        queue_waits[static_cast<std::size_t>(c)].push_back(
            result->backend_metrics["server_queue_seconds"]);
      }
    });
  }
  for (auto& t : clients) t.join();
  const double wall_seconds = total_timer.ElapsedSeconds();

  std::vector<double> all_latencies;
  std::vector<double> all_waits;
  int failed = 0;
  for (int c = 0; c < flags.clients; ++c) {
    const auto sc = static_cast<std::size_t>(c);
    all_latencies.insert(all_latencies.end(), latencies[sc].begin(),
                         latencies[sc].end());
    all_waits.insert(all_waits.end(), queue_waits[sc].begin(),
                     queue_waits[sc].end());
    failed += failures[sc];
  }
  std::sort(all_latencies.begin(), all_latencies.end());
  std::sort(all_waits.begin(), all_waits.end());

  const auto admission = server.admission_stats();
  std::printf(
      "{\n"
      "  \"clients\": %ld,\n"
      "  \"requests\": %zu,\n"
      "  \"failed\": %d,\n"
      "  \"wall_seconds\": %.6f,\n"
      "  \"latency_p50_seconds\": %.6f,\n"
      "  \"latency_p99_seconds\": %.6f,\n"
      "  \"queue_wait_p50_seconds\": %.6f,\n"
      "  \"queue_wait_p99_seconds\": %.6f,\n"
      "  \"admission_budget_threads\": %d,\n"
      "  \"admission_admitted\": %llu,\n"
      "  \"admission_queued\": %llu,\n"
      "  \"admission_clamped\": %llu,\n"
      "  \"admission_max_in_use\": %d\n"
      "}\n",
      flags.clients, all_latencies.size(), failed, wall_seconds,
      Percentile(all_latencies, 0.50), Percentile(all_latencies, 0.99),
      Percentile(all_waits, 0.50), Percentile(all_waits, 0.99),
      server.admission_budget_threads(),
      static_cast<unsigned long long>(admission.admitted),
      static_cast<unsigned long long>(admission.queued),
      static_cast<unsigned long long>(admission.clamped),
      admission.max_in_use);
  return failed == 0 ? 0 : 1;
}
