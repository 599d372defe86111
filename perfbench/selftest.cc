/// \file selftest.cc
/// \brief Checks the benchmark's own logic (harness.h): the percentile rule,
/// ratio bases, failure counting, self times, the result line, and that the
/// correctness gate counts a perturbed engine result as failed.
///
///   vx_perfbench_selftest    (exit 0 when every check holds)

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/reference.h"
#include "api/engine.h"
#include "graphgen/generators.h"
#include "harness.h"

namespace {

int failures = 0;

void Expect(bool cond, const char* what, int line) {
  if (!cond) {
    std::fprintf(stderr, "selftest.cc:%d: FAILED %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(...) Expect((__VA_ARGS__), #__VA_ARGS__, __LINE__)

std::vector<double> Iota(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void PercentileRule() {
  // p90 needs ten samples ranked above it: 100 samples do, 99 do not.
  const perfbench::Percentile p100 =
      perfbench::PercentileWithSupport(Iota(100), 0.9);
  EXPECT(p100.supported);
  EXPECT(p100.beyond == 10);
  EXPECT(p100.value == 90.0);
  const perfbench::Percentile p99 =
      perfbench::PercentileWithSupport(Iota(99), 0.9);
  EXPECT(!p99.supported);
  EXPECT(p99.beyond == 9);
  // A batch run of ~20 requests supports a median but not a p90.
  EXPECT(perfbench::PercentileWithSupport(Iota(20), 0.5).supported);
  EXPECT(!perfbench::PercentileWithSupport(Iota(20), 0.9).supported);
  EXPECT(!perfbench::PercentileWithSupport({}, 0.5).supported);
  EXPECT(perfbench::Median(Iota(4)) == 2.5);
  EXPECT(perfbench::Median(Iota(5)) == 3.0);
  EXPECT(perfbench::Median({}) == 0.0);
}

void RatioBases() {
  const perfbench::Ratio r{3.0, 4.0};
  EXPECT(r.value() == 0.75);
  EXPECT(r.base == 4.0);
  // An empty base (the layer did no such work) reads 0, never NaN.
  const perfbench::Ratio empty{0.0, 0.0};
  EXPECT(empty.value() == 0.0);
  EXPECT(perfbench::Ratio{5.0, 0.0}.value() == 0.0);
}

void FailureCounting() {
  perfbench::OpCounter ops;
  ops.Record(true);
  ops.Record(false);
  ops.Record(true);
  EXPECT(ops.attempted() == 3);
  EXPECT(ops.failed() == 1);
  // Shared by concurrent clients.
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&ops, t] {
      for (int i = 0; i < 1000; ++i) ops.Record(i % 10 != t);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT(ops.attempted() == 4003);
  EXPECT(ops.failed() == 1 + 4 * 100);
}

void SelfTimes() {
  std::vector<perfbench::Span> spans(4);
  spans[0] = {"request", 0, -1, 7, 0.0, 10.0, {}};
  spans[1] = {"Engine::Run", 1, 0, 7, 1.0, 3.0, {}};
  spans[2] = {"overlapping", 2, 0, 7, 2.0, 5.0, {}};
  spans[3] = {"gate", 3, 0, 7, 7.0, 8.0, {}};
  const std::vector<double> self = perfbench::SelfTimes(spans);
  EXPECT(self[0] == 10.0 - 4.0 - 1.0);
  EXPECT(self[1] == 2.0);
  EXPECT(self[3] == 1.0);
}

void ResultLine() {
  const std::string ok = perfbench::ResultLine(
      true, 5, 0, {{"latency_p50_s", 0.125, "s"}, {"setup_s", 2.0, "s"}});
  EXPECT(ok ==
         "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": "
         "{\"latency_p50_s\": {\"value\": 0.125, \"unit\": \"s\"}, "
         "\"setup_s\": {\"value\": 2, \"unit\": \"s\"}}}");
  const std::string nan = perfbench::ResultLine(
      true, 1, 0, {{"x", std::numeric_limits<double>::quiet_NaN(), "s"}});
  EXPECT(nan.find("\"correct\": false") != std::string::npos);
}

/// Runs the gate the way workloads.cc does and counts the outcome.
void Gate() {
  using namespace vertexica;
  const Graph g = GenerateRmat(300, 2400, 11);
  Engine engine;
  EXPECT(engine.LoadGraph(g).ok());

  const std::vector<double> ranks = PageRankReference(g, 10, 0.85);
  for (const char* backend : {kVertexicaBackendId, kSqlGraphBackendId}) {
    RunRequest req;
    req.algorithm = kPageRank;
    req.backend = backend;
    req.iterations = 10;
    req.threads = 2;
    Result<RunResult> r = engine.Run(req);
    EXPECT(r.ok());
    if (!r.ok()) continue;
    perfbench::OpCounter ops;
    std::string why;
    ops.Record(perfbench::WithinTolerance(r->values, ranks, 1e-9, &why));
    std::vector<double> perturbed = r->values;
    perturbed[17] += 1e-6;
    ops.Record(perfbench::WithinTolerance(perturbed, ranks, 1e-9, &why));
    EXPECT(ops.attempted() == 2);
    EXPECT(ops.failed() == 1);
    EXPECT(why.find("vertex 17") != std::string::npos);
  }

  RunRequest req;
  req.algorithm = kSssp;
  req.backend = kVertexicaBackendId;
  req.source = 0;
  req.threads = 2;
  Result<RunResult> r = engine.Run(req);
  EXPECT(r.ok());
  if (!r.ok()) return;
  const std::vector<double> dist = DijkstraReference(g, 0);
  std::string why;
  EXPECT(perfbench::ExactlyEqual(r->values, dist, &why));
  std::vector<double> off_by_one = r->values;
  off_by_one[1] += 1.0;
  EXPECT(!perfbench::ExactlyEqual(off_by_one, dist, &why));
  // Unreachable vertices compare equal as +inf, and only as +inf.
  std::vector<double> want = {0.0, std::numeric_limits<double>::infinity()};
  EXPECT(perfbench::ExactlyEqual(want, want, &why));
  EXPECT(!perfbench::ExactlyEqual({0.0, 1e300}, want, &why));
  EXPECT(!perfbench::ExactlyEqual(want, {0.0, 5.0}, &why));
  EXPECT(!perfbench::ExactlyEqual({0.0}, want, &why));
}

}  // namespace

int main() {
  PercentileRule();
  RatioBases();
  FailureCounting();
  SelfTimes();
  ResultLine();
  Gate();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
