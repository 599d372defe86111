/// \file workloads.cc
/// \brief The end-to-end benchmark: four seeded, closed-loop workloads on
/// the Engine / EngineServer facades.
///
///   vx_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///                [--git-sha <sha>] [--trace-out <file>]
///
/// Workloads (README.md gives the reasons for each choice):
///   pagerank-dense  vertexica PageRank, 10 iterations, RMAT (Twitter × 0.1)
///   sssp-ring       vertexica SSSP on a Watts–Strogatz ring, frontier path
///   sql-pagerank    sqlgraph PageRank on the pagerank-dense graph
///   serve-rw        EngineServer: two SSSP reader sessions + one writer
///
/// Load shape: one process, the default exec parallelism pinned to 2 and
/// every request asking for 2 threads, closed loops only, the first request
/// untimed, inputs and reference results built before the timed window.
///
/// With --trace 0 the result line carries the end-to-end metrics; with
/// --trace 1 the run measures an untraced half-window and a traced one and
/// reports the per-layer metrics, read around public calls and from
/// RunResult, plus the tracing overhead. Every result is checked against
/// algorithms/reference.h; a mismatch counts as a failed operation.

#include <sys/resource.h>
#include <unistd.h>

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/reference.h"
#include "api/engine.h"
#include "common/random.h"
#include "exec/parallel.h"
#include "graphgen/generators.h"
#include "harness.h"
#include "server/engine_server.h"

namespace {

using namespace vertexica;
using perfbench::Metric;
using perfbench::Now;

constexpr int kThreads = 2;
/// Set-up is repeated at least kMinSetupReps times and until kSetupSeconds
/// have accumulated (at most kMaxSetupReps), and reported as a median: a
/// 5 ms set-up needs many repetitions for a steady median.
constexpr size_t kMinSetupReps = 5;
constexpr size_t kMaxSetupReps = 64;
constexpr double kSetupSeconds = 1.0;
constexpr int kPageRankIterations = 10;
constexpr double kDamping = 0.85;
/// PageRank values are compared absolutely; ranks are ~1e-4, and the
/// relational engines reproduce the reference to rounding (~1e-17).
constexpr double kPageRankTolerance = 1e-9;
/// RMAT shaped like Twitter at scale 0.1 (datasets.h: 81,306 × 1,768,149).
constexpr int64_t kRmatVertices = 8131;
constexpr int64_t kRmatEdges = 176815;
constexpr int64_t kRingVertices = 50000;
constexpr int64_t kRingK = 4;
constexpr double kRingBeta = 0.02;
/// SSSP sources per seed. Ring vertices are symmetric, so 16 cover the
/// ring; on RMAT the source set alone moved the serve-rw median by about 7 %
/// between seeds at 16 sources, so it rotates over 64.
constexpr size_t kRingSources = 16;
constexpr size_t kRmatSources = 64;
/// serve-rw: graph versions cycled by the writer, reads per write and per
/// session refresh.
constexpr int kVersions = 4;
constexpr int64_t kReadsPerWrite = 10;
constexpr int64_t kReadsPerRefresh = 10;
constexpr int kReaders = 2;
/// Timer-granularity slack for the self-time reconciliation.
constexpr double kClockSlack = 1e-6;

const char* const kGraphName = "g";

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string trace_out;
};

/// Mixes the benchmark seed with a stream id, so every generated input is a
/// function of --seed alone.
uint64_t SeedFor(uint64_t seed, uint64_t stream) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + stream);
  return rng.Next();
}

struct Usage {
  double cpu = 0.0;  // user + system seconds
  double sys = 0.0;
  double minor_faults = 0.0;
};

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(ru.ru_utime) + secs(ru.ru_stime), secs(ru.ru_stime),
          static_cast<double>(ru.ru_minflt)};
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Per-layer sums over the requests of a traced window, keyed by metric
/// name; reported per request.
struct LayerSums {
  double requests = 0.0;
  double wall = 0.0;  // window seconds
  Usage usage;        // window deltas
  std::map<std::string, double> sum;

  double Per(const std::string& key) const {
    auto it = sum.find(key);
    return (it == sum.end() || requests <= 0.0) ? 0.0 : it->second / requests;
  }
  double Total(const std::string& key) const {
    auto it = sum.find(key);
    return it == sum.end() ? 0.0 : it->second;
  }
  /// Share of the traced Run spans that is neither a phase nor
  /// api.run_other_s: coordinator time between the phases.
  double Unreconciled() const {
    return perfbench::Ratio{Total("trace.unreconciled_s"),
                            Total("trace.reconciled_run_s")}
        .value();
  }
};

double MetricOf(const RunResult& r, const char* key) {
  auto it = r.backend_metrics.find(key);
  return it == r.backend_metrics.end() ? 0.0 : it->second;
}

/// Folds one Run into the sums and returns the attributes attached to its
/// span. `run_seconds` is the Run call's wall time as the layer below the
/// client sees it (the server's run time on serve-rw).
std::map<std::string, double> AddRun(const RunResult& r, double run_seconds,
                                     LayerSums* sums) {
  auto& s = sums->sum;
  double in = 0.0, wk = 0.0, sp = 0.0, ap = 0.0;
  for (const SuperstepStats& ss : r.stats.supersteps) {
    in += ss.input_seconds;
    wk += ss.worker_seconds;
    sp += ss.split_seconds;
    ap += ss.apply_seconds;
    s["vertexica.join_s"] += ss.join_seconds;
    s["vertexica.merge_joins"] += static_cast<double>(ss.merge_joins);
    s["vertexica.hash_joins"] += static_cast<double>(ss.hash_joins);
    s["vertexica.input_rows"] += static_cast<double>(ss.input_rows);
    s["vertexica.active_vertices"] += static_cast<double>(ss.active_vertices);
    s["vertexica.vertex_updates"] += static_cast<double>(ss.vertex_updates);
    s["storage.encoded_bytes"] += static_cast<double>(ss.encoded_bytes);
    s["storage.decoded_bytes"] += static_cast<double>(ss.decoded_bytes);
  }
  s["vertexica.input_s"] += in;
  s["vertexica.worker_s"] += wk;
  s["vertexica.split_s"] += sp;
  s["vertexica.apply_s"] += ap;
  s["vertexica.supersteps"] += static_cast<double>(r.stats.supersteps.size());
  s["vertexica.frontier_supersteps"] +=
      static_cast<double>(r.stats.frontier_supersteps);
  s["vertexica.dense_supersteps"] +=
      static_cast<double>(r.stats.dense_supersteps);
  s["vertexica.messages"] += static_cast<double>(r.stats.total_messages);
  const double run_other = run_seconds - r.stats.total_seconds;
  s["api.run_other_s"] += run_other;
  for (const char* key : {"bytes_materialized", "batch_hash_rows",
                          "fused_batches", "legacy_batches", "merge_joins",
                          "hash_joins"}) {
    s[std::string("exec.") + key] += MetricOf(r, key);
  }
  if (!r.stats.supersteps.empty()) {
    // The span splits into phases, coordinator time outside them
    // (total_seconds − phases) and api.run_other_s. The phase timers run
    // inside the coordinator's total timer, which runs inside the span, so
    // neither remainder may be negative.
    const double phases = in + wk + sp + ap;
    s["trace.unreconciled_s"] += r.stats.total_seconds - phases;
    s["trace.reconciled_run_s"] += run_seconds;
    if (phases > r.stats.total_seconds + kClockSlack || run_other < -kClockSlack) {
      s["trace.unreconciled_runs"] += 1.0;
    }
  }
  std::map<std::string, double> attrs = r.backend_metrics;
  attrs["phase.input_s"] = in;
  attrs["phase.worker_s"] = wk;
  attrs["phase.split_s"] = sp;
  attrs["phase.apply_s"] = ap;
  attrs["stats.total_seconds"] = r.stats.total_seconds;
  attrs["stats.supersteps"] = static_cast<double>(r.stats.supersteps.size());
  return attrs;
}

bool MoreSetup(const std::vector<double>& setup_s) {
  double total = 0.0;
  for (double t : setup_s) total += t;
  return setup_s.size() < kMinSetupReps ||
         (total < kSetupSeconds && setup_s.size() < kMaxSetupReps);
}

/// What a run reports besides its metrics.
struct Report {
  std::vector<std::string> header;
  std::vector<Metric> metrics;
  perfbench::OpCounter ops;
  bool checks_ok = true;  // harness checks other than per-result gates
  std::string first_failure;
};

void NoteFailure(Report* report, const std::string& why) {
  if (report->first_failure.empty()) report->first_failure = why;
}

// --------------------------------------------------------------------------
// Single-client workloads on the Engine facade.

/// One closed-loop Engine workload: a prepared backend, a request per index
/// and the gate for its result.
struct EngineWorkload {
  std::shared_ptr<const Graph> graph;
  std::string backend;
  std::function<RunRequest(int64_t)> request;
  std::function<bool(int64_t, const RunResult&, std::string*)> check;
};

struct Window {
  std::vector<double> latencies;
  double elapsed = 0.0;
  LayerSums layers;
};

/// Runs requests back to back until `seconds` have passed; `next` is the
/// running request index (it picks the source on rotating workloads).
Window RunEngineWindow(Engine* engine, const EngineWorkload& w, double seconds,
                       perfbench::Tracer* tracer, Report* report,
                       int64_t* next) {
  Window win;
  const Usage u0 = ReadUsage();
  const double start = Now();
  do {
    const int64_t i = (*next)++;
    const RunRequest req = w.request(i);
    const int64_t req_span = tracer->Begin("request", -1, i);
    const int64_t run_span = tracer->Begin("Engine::Run", req_span, i);
    const Usage before = tracer->enabled() ? ReadUsage() : Usage{};
    const double t0 = Now();
    Result<RunResult> result = engine->Run(req);
    const double latency = Now() - t0;
    std::map<std::string, double> attrs;
    if (tracer->enabled()) {
      const Usage after = ReadUsage();
      if (result.ok()) attrs = AddRun(*result, latency, &win.layers);
      attrs["rusage.cpu_s"] = after.cpu - before.cpu;
      attrs["rusage.sys_s"] = after.sys - before.sys;
      attrs["rusage.minor_faults"] = after.minor_faults - before.minor_faults;
    }
    tracer->End(run_span, std::move(attrs));
    const int64_t gate_span = tracer->Begin("gate", req_span, i);
    std::string why;
    bool ok = result.ok();
    if (!ok) {
      why = result.status().ToString();
    } else {
      ok = w.check(i, *result, &why);
    }
    tracer->End(gate_span);
    tracer->End(req_span);
    report->ops.Record(ok);
    if (ok) {
      win.latencies.push_back(latency);
    } else {
      NoteFailure(report, "request " + std::to_string(i) + ": " + why);
    }
  } while (Now() - start < seconds);
  win.elapsed = Now() - start;
  const Usage u1 = ReadUsage();
  win.layers.requests = static_cast<double>(win.latencies.size());
  win.layers.wall = win.elapsed;
  win.layers.usage = {u1.cpu - u0.cpu, u1.sys - u0.sys,
                      u1.minor_faults - u0.minor_faults};
  return win;
}

/// Per-layer metrics shared by every workload, from one traced window.
void AddLayerMetrics(const LayerSums& L, double prepare_s, Report* report) {
  auto add = [&](const char* name, double v, const char* unit) {
    report->metrics.push_back({name, v, unit});
  };
  const double req = std::max(L.requests, 1.0);
  add("api.prepare_s", prepare_s, "s");
  add("api.run_other_s", L.Per("api.run_other_s"), "s");
  add("api.cpu_util", L.wall > 0 ? L.usage.cpu / L.wall : 0.0, "cores");
  add("api.sys_s", L.usage.sys / req, "s");
  add("api.minor_faults", L.usage.minor_faults / req, "count");
  for (const char* k : {"vertexica.input_s", "vertexica.worker_s",
                        "vertexica.split_s", "vertexica.apply_s",
                        "vertexica.join_s"}) {
    add(k, L.Per(k), "s");
  }
  for (const char* k :
       {"vertexica.merge_joins", "vertexica.hash_joins",
        "vertexica.supersteps", "vertexica.frontier_supersteps",
        "vertexica.dense_supersteps", "vertexica.messages",
        "vertexica.input_rows", "vertexica.active_vertices"}) {
    add(k, L.Per(k), "count");
  }
  add("vertexica.updates_per_active",
      perfbench::Ratio{L.Total("vertexica.vertex_updates"),
                       L.Total("vertexica.active_vertices")}
          .value(),
      "ratio");
  add("exec.bytes_materialized", L.Per("exec.bytes_materialized"), "bytes");
  add("exec.batch_hash_rows", L.Per("exec.batch_hash_rows"), "count");
  const perfbench::Ratio fused{
      L.Total("exec.fused_batches"),
      L.Total("exec.fused_batches") + L.Total("exec.legacy_batches")};
  add("exec.fused_ratio", fused.value(), "ratio");
  add("exec.fused_base", fused.base / req, "count");
  const perfbench::Ratio merge{
      L.Total("exec.merge_joins"),
      L.Total("exec.merge_joins") + L.Total("exec.hash_joins")};
  add("exec.merge_ratio", merge.value(), "ratio");
  add("exec.merge_base", merge.base / req, "count");
  // Stored-table footprint is reported per superstep.
  const double steps = std::max(L.Total("vertexica.supersteps"), 1.0);
  add("storage.encoded_bytes", L.Total("storage.encoded_bytes") / steps,
      "bytes");
  add("storage.decoded_bytes", L.Total("storage.decoded_bytes") / steps,
      "bytes");
  add("storage.encoded_ratio",
      perfbench::Ratio{L.Total("storage.encoded_bytes"),
                       L.Total("storage.decoded_bytes")}
          .value(),
      "ratio");
}

/// The server metrics; all 0 on the workloads that bypass the server.
struct ServerLayer {
  double queue_s = 0, run_s = 0, self_s = 0, attempts = 0;
  double admitted = 0, queued = 0;
  double update_s = 0, prepare_s = 0, update_p50_s = 0, read_p90_s = 0;
  double reads = 0;  // samples behind read_p90_s
};

void AddServerMetrics(const ServerLayer& s, Report* report) {
  auto add = [&](const char* name, double v, const char* unit) {
    report->metrics.push_back({name, v, unit});
  };
  add("server.queue_s", s.queue_s, "s");
  add("server.run_s", s.run_s, "s");
  add("server.self_s", s.self_s, "s");
  add("server.attempts", s.attempts, "count");
  add("server.admitted", s.admitted, "count");
  add("server.queued", s.queued, "count");
  add("server.update_s", s.update_s, "s");
  add("server.prepare_s", s.prepare_s, "s");
  add("server.update_p50_s", s.update_p50_s, "s");
  add("server.read_p90_s", s.read_p90_s, "s");
  add("server.reads", s.reads, "count");
}

/// The tracing report: overhead of the traced half-window over the untraced
/// one, span count, the Run spans' self time after their attached phases,
/// and the self-time reconciliation.
void AddTraceMetrics(double untraced_p50, double traced_p50,
                     const std::vector<perfbench::Span>& spans,
                     double unreconciled, Report* report) {
  const std::vector<double> self = perfbench::SelfTimes(spans);
  std::vector<double> run_self;
  for (const perfbench::Span& s : spans) {
    if (s.name != "Engine::Run" && s.name != "Session::Run") continue;
    double phases = 0.0;
    for (const char* k :
         {"phase.input_s", "phase.worker_s", "phase.split_s", "phase.apply_s"}) {
      auto it = s.attrs.find(k);
      if (it != s.attrs.end()) phases += it->second;
    }
    run_self.push_back(self[static_cast<size_t>(s.id)] - phases);
  }
  report->metrics.push_back({"trace.untraced_p50_s", untraced_p50, "s"});
  report->metrics.push_back({"trace.traced_p50_s", traced_p50, "s"});
  report->metrics.push_back(
      {"trace.overhead",
       untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1.0 : 0.0, "ratio"});
  report->metrics.push_back(
      {"trace.spans", static_cast<double>(spans.size()), "count"});
  report->metrics.push_back(
      {"trace.run_self_s", perfbench::Mean(run_self), "s"});
  report->metrics.push_back({"trace.unreconciled_share", unreconciled, "ratio"});
}

/// The self-time check: no traced Run span may be shorter than the
/// coordinator time it contains, nor that time shorter than its phases.
void CheckReconciled(const LayerSums& layers, Report* report) {
  const double bad = layers.Total("trace.unreconciled_runs");
  if (bad > 0) {
    report->checks_ok = false;
    NoteFailure(report, std::to_string(static_cast<int64_t>(bad)) +
                            " traced Run spans do not contain their phases");
  }
}

void WriteTrace(const Args& args, const perfbench::Tracer& tracer) {
  if (!args.trace_out.empty() &&
      !perfbench::WriteSpans(tracer.spans(), args.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.trace_out.c_str());
  }
}

int RunEngineWorkload(const Args& args, const EngineWorkload& w,
                      Report* report) {
  perfbench::Tracer tracer(args.trace);
  perfbench::Tracer off(false);
  std::vector<double> setup_s, prepare_s;
  std::unique_ptr<Engine> engine;
  while (MoreSetup(setup_s)) {
    engine.reset();
    const int64_t span = tracer.Begin("setup", -1, -1);
    const double t0 = Now();
    engine = std::make_unique<Engine>();
    Status st = engine->LoadGraph(w.graph);
    const double t1 = Now();
    const int64_t prep_span = tracer.Begin("Engine::PrepareBackend", span, -1);
    if (st.ok()) st = engine->PrepareBackend(w.backend);
    const double t2 = Now();
    tracer.End(prep_span);
    tracer.End(span);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: setup failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    setup_s.push_back(t2 - t0);
    prepare_s.push_back(t2 - t1);
  }

  // The first request fills lazy catalog and CSR caches; it is checked but
  // not timed.
  int64_t next = 0;
  RunEngineWindow(engine.get(), w, 0.0, &off, report, &next);

  if (!args.trace) {
    const Window win =
        RunEngineWindow(engine.get(), w, args.seconds, &off, report, &next);
    report->header.push_back(
        "# requests=" + std::to_string(win.latencies.size()) +
        " window_s=" + std::to_string(win.elapsed) +
        " setup_reps=" + std::to_string(setup_s.size()));
    report->metrics = {
        {"setup_s", perfbench::Median(setup_s), "s"},
        {"latency_p50_s", perfbench::Median(win.latencies), "s"},
        {"throughput_ops_s",
         static_cast<double>(win.latencies.size()) / win.elapsed, "1/s"},
        {"peak_rss_mb", PeakRssMb(), "MiB"},
    };
    return 0;
  }

  const Window plain =
      RunEngineWindow(engine.get(), w, args.seconds / 2, &off, report, &next);
  const Window traced = RunEngineWindow(engine.get(), w, args.seconds / 2,
                                        &tracer, report, &next);
  report->header.push_back(
      "# requests untraced=" + std::to_string(plain.latencies.size()) +
      " traced=" + std::to_string(traced.latencies.size()));
  AddLayerMetrics(traced.layers, perfbench::Median(prepare_s), report);
  AddServerMetrics(ServerLayer{}, report);
  const std::vector<perfbench::Span> spans = tracer.spans();
  AddTraceMetrics(perfbench::Median(plain.latencies),
                  perfbench::Median(traced.latencies), spans,
                  traced.layers.Unreconciled(), report);
  CheckReconciled(traced.layers, report);
  WriteTrace(args, tracer);
  return 0;
}

/// Vertices reachable from `source` along edge direction.
int64_t ForwardReach(const Csr& csr, int64_t source) {
  std::vector<char> seen(static_cast<size_t>(csr.num_vertices()), 0);
  std::vector<int64_t> stack = {source};
  seen[static_cast<size_t>(source)] = 1;
  int64_t reached = 1;
  while (!stack.empty()) {
    const int64_t v = stack.back();
    stack.pop_back();
    for (int64_t e = csr.offsets[static_cast<size_t>(v)];
         e < csr.offsets[static_cast<size_t>(v) + 1]; ++e) {
      const int64_t u = csr.neighbors[static_cast<size_t>(e)];
      if (!seen[static_cast<size_t>(u)]) {
        seen[static_cast<size_t>(u)] = 1;
        ++reached;
        stack.push_back(u);
      }
    }
  }
  return reached;
}

/// Seeded SSSP sources whose forward reach covers at least half of every
/// graph. Unfiltered RMAT sources split request times into two modes (a
/// source that reaches a handful of vertices finishes in a few supersteps);
/// on the connected ring every vertex qualifies.
std::vector<int64_t> WideReachSources(
    const std::vector<std::shared_ptr<const Graph>>& graphs, size_t count,
    uint64_t seed) {
  std::vector<Csr> csrs;
  for (const auto& g : graphs) csrs.push_back(Csr::Build(*g));
  const int64_t n = graphs.front()->num_vertices;
  Rng rng(seed);
  std::vector<int64_t> sources;
  for (int draws = 0; sources.size() < count && draws < 100000; ++draws) {
    const auto v = static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(n)));
    bool wide = true;
    for (const Csr& csr : csrs) wide = wide && 2 * ForwardReach(csr, v) >= n;
    if (wide) sources.push_back(v);
  }
  if (sources.size() < count) {
    std::fprintf(stderr, "perfbench: too few wide-reach sources\n");
    std::exit(1);
  }
  return sources;
}

std::shared_ptr<const Graph> RmatGraph(uint64_t seed, uint64_t stream) {
  return std::make_shared<const Graph>(
      GenerateRmat(kRmatVertices, kRmatEdges, SeedFor(seed, stream)));
}

void GraphHeader(const Graph& g, Report* report) {
  report->header.push_back("# graph vertices=" +
                           std::to_string(g.num_vertices) +
                           " edges=" + std::to_string(g.num_edges()) +
                           (g.directed ? " directed" : " undirected"));
}

EngineWorkload PageRankWorkload(const std::string& backend, uint64_t seed,
                                Report* report) {
  EngineWorkload w;
  w.graph = RmatGraph(seed, 1);
  GraphHeader(*w.graph, report);
  w.backend = backend;
  w.request = [backend](int64_t) {
    RunRequest req;
    req.algorithm = kPageRank;
    req.backend = backend;
    req.iterations = kPageRankIterations;
    req.damping = kDamping;
    req.threads = kThreads;
    return req;
  };
  auto expect = std::make_shared<const std::vector<double>>(
      PageRankReference(*w.graph, kPageRankIterations, kDamping));
  w.check = [expect](int64_t, const RunResult& r, std::string* why) {
    return perfbench::WithinTolerance(r.values, *expect, kPageRankTolerance,
                                      why);
  };
  return w;
}

EngineWorkload SsspRingWorkload(uint64_t seed, Report* report) {
  EngineWorkload w;
  w.graph = std::make_shared<const Graph>(GenerateWattsStrogatz(
      kRingVertices, kRingK, kRingBeta, SeedFor(seed, 2)));
  GraphHeader(*w.graph, report);
  w.backend = kVertexicaBackendId;
  const std::vector<int64_t> sources =
      WideReachSources({w.graph}, kRingSources, SeedFor(seed, 3));
  auto expect = std::make_shared<std::vector<std::vector<double>>>();
  for (int64_t s : sources) expect->push_back(DijkstraReference(*w.graph, s));
  w.request = [sources](int64_t i) {
    RunRequest req;
    req.algorithm = kSssp;
    req.backend = kVertexicaBackendId;
    req.source = sources[static_cast<size_t>(i) % sources.size()];
    req.threads = kThreads;
    return req;
  };
  w.check = [expect](int64_t i, const RunResult& r, std::string* why) {
    return perfbench::ExactlyEqual(
        r.values, (*expect)[static_cast<size_t>(i) % expect->size()], why);
  };
  return w;
}

// --------------------------------------------------------------------------
// serve-rw: two reader sessions and one writer on an EngineServer.

int RunServeRw(const Args& args, Report* report) {
  std::vector<std::shared_ptr<const Graph>> versions;
  for (int v = 0; v < kVersions; ++v) {
    versions.push_back(RmatGraph(args.seed, 10 + static_cast<uint64_t>(v)));
  }
  GraphHeader(*versions.front(), report);
  const std::vector<int64_t> sources =
      WideReachSources(versions, kRmatSources, SeedFor(args.seed, 4));
  // expect[version index][source index]
  std::vector<std::vector<std::vector<double>>> expect(kVersions);
  for (int v = 0; v < kVersions; ++v) {
    for (int64_t s : sources) {
      expect[static_cast<size_t>(v)].push_back(
          DijkstraReference(*versions[static_cast<size_t>(v)], s));
    }
  }

  perfbench::Tracer tracer(args.trace);
  perfbench::Tracer off(false);
  ServerOptions options;
  options.admission_budget_threads = kThreads;
  std::vector<double> setup_s, prepare_s;
  std::unique_ptr<EngineServer> server;
  while (MoreSetup(setup_s)) {
    server.reset();
    const int64_t span = tracer.Begin("setup", -1, -1);
    const double t0 = Now();
    server = std::make_unique<EngineServer>(options);
    Status st = server->CreateGraph(kGraphName, versions.front());
    const double t1 = Now();
    const int64_t prep_span = tracer.Begin("EngineServer::PrepareGraph", span, -1);
    if (st.ok()) st = server->PrepareGraph(kGraphName, kVertexicaBackendId);
    const double t2 = Now();
    tracer.End(prep_span);
    tracer.End(span);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: setup failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    setup_s.push_back(t2 - t0);
    prepare_s.push_back(t2 - t1);
  }

  auto make_request = [&](int64_t i) {
    RunRequest req;
    req.algorithm = kSssp;
    req.backend = kVertexicaBackendId;
    req.source = sources[static_cast<size_t>(i) % sources.size()];
    req.threads = kThreads;
    return req;
  };
  // A read is correct when it ran on the version its session pinned and
  // matches the reference for that version's graph.
  auto check = [&](const Session& session, int64_t i, const RunResult& r,
                   std::string* why) {
    const uint64_t pinned = session.graph_version();
    if (MetricOf(r, "server_graph_version") != static_cast<double>(pinned)) {
      *why = "ran on version " + std::to_string(MetricOf(r, "server_graph_version")) +
             ", session pinned " + std::to_string(pinned);
      return false;
    }
    const auto& want = expect[static_cast<size_t>((pinned - 1) % kVersions)]
                             [static_cast<size_t>(i) % sources.size()];
    return perfbench::ExactlyEqual(r.values, want, why);
  };

  // Untimed first read: fills the version's lazy caches.
  {
    Result<Session> session = server->OpenSession(kGraphName);
    if (!session.ok()) return 1;
    Result<RunResult> r = session->Run(make_request(0));
    std::string why;
    const bool ok = r.ok() && check(*session, 0, *r, &why);
    report->ops.Record(ok);
    if (!ok) NoteFailure(report, "first read: " + (r.ok() ? why : r.status().ToString()));
  }

  struct ReadSample {
    double latency, queue, run, attempts;
  };
  struct ServeWindow {
    std::vector<ReadSample> reads;
    std::vector<double> update_s, prepare_s, write_s;
    double elapsed = 0.0;
    LayerSums layers;
    AdmissionController::Stats admission_before, admission_after;
  };
  int64_t next_write = 1;  // versions installed so far, beyond the first

  auto run_window = [&](double seconds, perfbench::Tracer* tr) {
    ServeWindow win;
    std::mutex mu;  // guards win, reads_done, stop, last_read_end
    std::condition_variable cv;
    int64_t reads_done = 0;
    bool stop = false;
    double last_read_end = 0.0;
    win.admission_before = server->admission_stats();
    const Usage u0 = ReadUsage();
    const double start = Now();
    std::atomic<int64_t> request_ids{0};

    auto reader = [&](int id) {
      Result<Session> opened = server->OpenSession(kGraphName);
      if (!opened.ok()) {
        report->ops.Record(false);
        std::lock_guard<std::mutex> lock(mu);
        NoteFailure(report, opened.status().ToString());
        stop = true;
        cv.notify_all();
        return;
      }
      Session session = std::move(*opened);
      for (int64_t k = 0;; ++k) {
        const int64_t i = id + kReaders * k;
        const int64_t rid = request_ids.fetch_add(1);
        const int64_t run_span = tr->Begin("Session::Run", -1, rid);
        const double t0 = Now();
        Result<RunResult> r = session.Run(make_request(i));
        const double latency = Now() - t0;
        std::map<std::string, double> attrs;
        ReadSample sample{latency, 0, 0, 0};
        if (r.ok()) {
          sample.queue = MetricOf(*r, "server_queue_seconds");
          sample.run = MetricOf(*r, "server_run_seconds");
          sample.attempts = MetricOf(*r, "server_attempts");
        }
        std::string why;
        const bool ok = r.ok() && check(session, i, *r, &why);
        report->ops.Record(ok);
        bool done;
        {
          std::lock_guard<std::mutex> lock(mu);
          if (tr->enabled() && r.ok()) attrs = AddRun(*r, sample.run, &win.layers);
          if (ok) {
            win.reads.push_back(sample);
          } else {
            NoteFailure(report, "read " + std::to_string(rid) + ": " +
                                    (r.ok() ? why : r.status().ToString()));
          }
          ++reads_done;
          last_read_end = Now();
          if (last_read_end - start >= seconds) stop = true;
          done = stop;
        }
        tr->End(run_span, std::move(attrs));
        cv.notify_all();
        if (done) return;
        if ((k + 1) % kReadsPerRefresh == 0) {
          const int64_t span = tr->Begin("Session::Refresh", -1, rid);
          const Status st = session.Refresh();
          tr->End(span);
          report->ops.Record(st.ok());
          if (!st.ok()) {
            std::lock_guard<std::mutex> lock(mu);
            NoteFailure(report, "refresh: " + st.ToString());
          }
        }
      }
    };

    auto writer = [&]() {
      int64_t writes = 0;
      for (;;) {
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] {
            return stop || reads_done >= kReadsPerWrite * (writes + 1);
          });
          if (stop) return;
        }
        const auto& g = versions[static_cast<size_t>(next_write % kVersions)];
        const int64_t span = tr->Begin("write", -1, -1);
        const int64_t up_span = tr->Begin("EngineServer::UpdateGraph", span, -1);
        const double t0 = Now();
        Status st = server->UpdateGraph(kGraphName, g);
        const double t1 = Now();
        tr->End(up_span);
        const int64_t prep_span = tr->Begin("EngineServer::PrepareGraph", span, -1);
        if (st.ok()) st = server->PrepareGraph(kGraphName, kVertexicaBackendId);
        const double t2 = Now();
        tr->End(prep_span);
        tr->End(span);
        report->ops.Record(st.ok());
        ++writes;
        ++next_write;
        std::lock_guard<std::mutex> lock(mu);
        if (!st.ok()) NoteFailure(report, "write: " + st.ToString());
        win.update_s.push_back(t1 - t0);
        win.prepare_s.push_back(t2 - t1);
        win.write_s.push_back(t2 - t0);
      }
    };

    std::vector<std::thread> threads;
    for (int id = 0; id < kReaders; ++id) threads.emplace_back(reader, id);
    threads.emplace_back(writer);
    for (auto& t : threads) t.join();
    win.elapsed = last_read_end - start;
    const Usage u1 = ReadUsage();
    win.admission_after = server->admission_stats();
    win.layers.requests = static_cast<double>(win.reads.size());
    win.layers.wall = win.elapsed;
    win.layers.usage = {u1.cpu - u0.cpu, u1.sys - u0.sys,
                        u1.minor_faults - u0.minor_faults};
    return win;
  };

  auto latencies = [](const ServeWindow& w) {
    std::vector<double> v;
    for (const ReadSample& s : w.reads) v.push_back(s.latency);
    return v;
  };

  if (!args.trace) {
    const ServeWindow win = run_window(args.seconds, &off);
    report->header.push_back("# reads=" + std::to_string(win.reads.size()) +
                             " writes=" + std::to_string(win.write_s.size()) +
                             " window_s=" + std::to_string(win.elapsed) +
                             " setup_reps=" + std::to_string(setup_s.size()));
    report->metrics = {
        {"setup_s", perfbench::Median(setup_s), "s"},
        {"latency_p50_s", perfbench::Median(latencies(win)), "s"},
        {"throughput_ops_s",
         static_cast<double>(win.reads.size()) / win.elapsed, "1/s"},
        {"peak_rss_mb", PeakRssMb(), "MiB"},
    };
    return 0;
  }

  const ServeWindow plain = run_window(args.seconds / 2, &off);
  const ServeWindow traced = run_window(args.seconds / 2, &tracer);
  report->header.push_back(
      "# reads untraced=" + std::to_string(plain.reads.size()) +
      " traced=" + std::to_string(traced.reads.size()) +
      " writes traced=" + std::to_string(traced.write_s.size()));
  AddLayerMetrics(traced.layers, perfbench::Median(prepare_s), report);
  ServerLayer s;
  std::vector<double> queue, run, self, attempts;
  for (const ReadSample& r : traced.reads) {
    queue.push_back(r.queue);
    run.push_back(r.run);
    self.push_back(r.latency - r.queue - r.run);
    attempts.push_back(r.attempts);
  }
  s.queue_s = perfbench::Mean(queue);
  s.run_s = perfbench::Mean(run);
  s.self_s = perfbench::Mean(self);
  s.attempts = perfbench::Mean(attempts);
  s.admitted = static_cast<double>(traced.admission_after.admitted -
                                   traced.admission_before.admitted);
  s.queued = static_cast<double>(traced.admission_after.queued -
                                 traced.admission_before.queued);
  s.update_s = perfbench::Mean(traced.update_s);
  s.prepare_s = perfbench::Mean(traced.prepare_s);
  s.update_p50_s = perfbench::Median(traced.write_s);
  // The p90 pools both half-windows (spans do not touch the read path's
  // timing) so that a run holds enough reads to support it.
  std::vector<double> pooled = latencies(plain);
  for (double l : latencies(traced)) pooled.push_back(l);
  const perfbench::Percentile p90 =
      perfbench::PercentileWithSupport(pooled, 0.9);
  s.reads = static_cast<double>(pooled.size());
  s.read_p90_s = p90.supported ? p90.value : 0.0;
  AddServerMetrics(s, report);
  AddTraceMetrics(perfbench::Median(latencies(plain)),
                  perfbench::Median(latencies(traced)), tracer.spans(),
                  traced.layers.Unreconciled(), report);
  CheckReconciled(traced.layers, report);
  WriteTrace(args, tracer);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args->seconds > 0;
    } else if (key == "--trace") {
      args->trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (key == "--git-sha") {
      args->git_sha = value;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && have_seed &&
         have_seconds && have_trace;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: vx_perfbench --workload <pagerank-dense|sssp-ring|"
                 "sql-pagerank|serve-rw> --seed <n> --seconds <s> "
                 "--trace <0|1> [--git-sha <sha>] [--trace-out <file>]\n");
    return 2;
  }
  // No ambient fan-out to every core: the process default is pinned, and
  // every request asks for the same count explicitly.
  SetDefaultExecThreads(kThreads);

  Report report;
  report.header.push_back(
      "# perfbench workload=" + args.workload +
      " seed=" + std::to_string(args.seed) +
      " seconds=" + std::to_string(args.seconds) +
      " trace=" + (args.trace ? "1" : "0") +
      " threads=" + std::to_string(kThreads) +
      " nproc=" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
      " build=" PERFBENCH_BUILD_TYPE " git=" + args.git_sha);

  int rc = 2;
  if (args.workload == "pagerank-dense") {
    rc = RunEngineWorkload(
        args, PageRankWorkload(kVertexicaBackendId, args.seed, &report),
        &report);
  } else if (args.workload == "sssp-ring") {
    rc = RunEngineWorkload(args, SsspRingWorkload(args.seed, &report),
                           &report);
  } else if (args.workload == "sql-pagerank") {
    rc = RunEngineWorkload(
        args, PageRankWorkload(kSqlGraphBackendId, args.seed, &report),
        &report);
  } else if (args.workload == "serve-rw") {
    rc = RunServeRw(args, &report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
  }
  if (rc != 0) return rc;

  for (const std::string& line : report.header) std::printf("%s\n", line.c_str());
  if (!report.first_failure.empty()) {
    std::printf("# first failure: %s\n", report.first_failure.c_str());
  }
  const bool correct = report.checks_ok && report.ops.failed() == 0;
  std::printf("%s\n", perfbench::ResultLine(correct, report.ops.attempted(),
                                            report.ops.failed(),
                                            report.metrics)
                          .c_str());
  return 0;
}
