// Tests for the serving subsystem: env-knob hardening, ExecKnobs
// resolution and install, admission control, catalog snapshots, and —
// the acceptance bar — N concurrent mixed clients on one EngineServer
// producing bit-identical results to the same requests run serially.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "api/exec_context.h"
#include "catalog/catalog.h"
#include "common/cancel.h"
#include "common/exec_knobs.h"
#include "common/env_knob.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "graphgen/generators.h"
#include "server/admission.h"
#include "server/engine_server.h"
#include "storage/table.h"

namespace vertexica {
namespace {

Graph ParityGraph() {
  Graph g = GenerateRmat(120, 700, 13);
  AssignRandomWeights(&g, 1.0, 5.0, 13);
  return g;
}

// A second, structurally different graph for update/snapshot tests.
Graph OtherGraph() {
  Graph g = GenerateRmat(80, 400, 29);
  AssignRandomWeights(&g, 1.0, 5.0, 29);
  return g;
}

// ------------------------------------------------------------ env knobs

TEST(EnvKnobTest, ParseKnobIntAcceptsStrictIntegers) {
  bool clamped = true;
  auto v = ParseKnobInt("8", 1, 256, &clamped);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 8);
  EXPECT_FALSE(clamped);

  v = ParseKnobInt("  42  ", 1, 256);  // surrounding whitespace is fine
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 42);
}

TEST(EnvKnobTest, ParseKnobIntRejectsGarbage) {
  EXPECT_FALSE(ParseKnobInt("8abc", 1, 256).has_value());  // trailing junk
  EXPECT_FALSE(ParseKnobInt("abc", 1, 256).has_value());
  EXPECT_FALSE(ParseKnobInt("", 1, 256).has_value());
  EXPECT_FALSE(ParseKnobInt("   ", 1, 256).has_value());
  EXPECT_FALSE(ParseKnobInt(nullptr, 1, 256).has_value());
  EXPECT_FALSE(ParseKnobInt("1.5", 1, 256).has_value());
}

TEST(EnvKnobTest, ParseKnobIntClampsOutOfRange) {
  bool clamped = false;
  auto v = ParseKnobInt("100000", 1, 256, &clamped);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 256);
  EXPECT_TRUE(clamped);

  v = ParseKnobInt("-3", 1, 256, &clamped);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 1);
  EXPECT_TRUE(clamped);
}

TEST(EnvKnobTest, EnvIntKnobFallsBackAndClamps) {
  ::setenv("VERTEXICA_TEST_KNOB", "junk", 1);
  EXPECT_EQ(EnvIntKnob("VERTEXICA_TEST_KNOB", 1, 64, 7), 7);
  ::setenv("VERTEXICA_TEST_KNOB", "9999", 1);
  EXPECT_EQ(EnvIntKnob("VERTEXICA_TEST_KNOB", 1, 64, 7), 64);
  ::setenv("VERTEXICA_TEST_KNOB", "12", 1);
  EXPECT_EQ(EnvIntKnob("VERTEXICA_TEST_KNOB", 1, 64, 7), 12);
  ::unsetenv("VERTEXICA_TEST_KNOB");
  EXPECT_EQ(EnvIntKnob("VERTEXICA_TEST_KNOB", 1, 64, 7), 7);
}

TEST(EnvKnobTest, EnvTokenKnobMatchesCaseInsensitively) {
  constexpr KnobToken<int> kTokens[] = {{"off", 0}, {"auto", 1}, {"force", 2}};
  ::setenv("VERTEXICA_TEST_TOKEN", "FORCE", 1);
  EXPECT_EQ(EnvTokenKnob("VERTEXICA_TEST_TOKEN", kTokens, 1), 2);
  ::setenv("VERTEXICA_TEST_TOKEN", "bogus", 1);
  EXPECT_EQ(EnvTokenKnob("VERTEXICA_TEST_TOKEN", kTokens, 1), 1);
  ::unsetenv("VERTEXICA_TEST_TOKEN");
}

// ------------------------------------------------ ExecKnobs / FromRequest

TEST(ExecKnobsTest, InstallRoundTripsAcrossThreads) {
  ExecKnobs knobs = ExecKnobs::Current();
  knobs.threads = 3;
  knobs.encoding = EncodingMode::kForce;
  knobs.vectorized = false;
  knobs.frontier = FrontierMode::kOn;

  // A fresh thread runs under the process defaults; installing the knobs
  // there reproduces them exactly.
  ExecKnobs fresh;
  ExecKnobs seen;
  std::thread worker([&]() {
    fresh = ExecKnobs::Current();
    ScopedExecKnobs install(knobs);
    seen = ExecKnobs::Current();
  });
  worker.join();
  EXPECT_TRUE(fresh != knobs);
  EXPECT_TRUE(seen == knobs);
  EXPECT_EQ(seen.threads, 3);
  EXPECT_EQ(seen.encoding, EncodingMode::kForce);
  EXPECT_FALSE(seen.vectorized);
  EXPECT_EQ(seen.frontier, FrontierMode::kOn);
}

TEST(ExecContextTest, FromRequestResolvesOverrides) {
  RunRequest request;
  request.threads = 5;
  request.encoding = "force";
  request.vectorized = "off";
  request.frontier = "on";
  const ExecKnobs knobs = *ExecKnobsFromRequest(request);
  EXPECT_EQ(knobs.threads, 5);
  EXPECT_EQ(knobs.encoding, EncodingMode::kForce);
  EXPECT_FALSE(knobs.vectorized);
  EXPECT_EQ(knobs.frontier, FrontierMode::kOn);

  // Unset fields inherit the current context.
  ExecKnobs current = ExecKnobs::Current();
  current.threads = 2;
  current.frontier = FrontierMode::kOff;
  ScopedExecKnobs scope(current);
  RunRequest ambient;
  const ExecKnobs inherited = *ExecKnobsFromRequest(ambient);
  EXPECT_EQ(inherited.threads, 2);
  EXPECT_EQ(inherited.vectorized, current.vectorized);
  EXPECT_EQ(inherited.frontier, FrontierMode::kOff);

  // An explicit request field beats the current context, like threads.
  RunRequest explicit_frontier;
  explicit_frontier.frontier = "auto";
  const ExecKnobs resolved = *ExecKnobsFromRequest(explicit_frontier);
  EXPECT_EQ(resolved.frontier, FrontierMode::kAuto);
}

TEST(ExecContextTest, NumericFieldsOutOfRangeAreRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  RunRequest negative_threads;
  negative_threads.threads = -5;
  RunRequest negative_deadline;
  negative_deadline.deadline_ms = -1;
  RunRequest nan_deadline;
  nan_deadline.deadline_ms = nan;
  for (const auto& [request, field] :
       {std::make_tuple(negative_threads, "threads"),
        std::make_tuple(negative_deadline, "deadline_ms"),
        std::make_tuple(nan_deadline, "deadline_ms")}) {
    const auto knobs = ExecKnobsFromRequest(request);
    ASSERT_FALSE(knobs.ok()) << field;
    EXPECT_TRUE(knobs.status().IsInvalidArgument())
        << knobs.status().ToString();
    EXPECT_NE(knobs.status().message().find(field), std::string::npos)
        << knobs.status().ToString();
  }

  // 0 keeps its meaning: the current threads, no deadline.
  const auto zero = ExecKnobsFromRequest(RunRequest());
  ASSERT_TRUE(zero.ok()) << zero.status().ToString();
  EXPECT_EQ(zero->threads, ExecKnobs::Current().threads);
  EXPECT_TRUE(zero->cancel.null());

  // The server rejects them before admission, like a malformed knob
  // string: nothing is queued or counted.
  EngineServer server;
  ASSERT_TRUE(server.CreateGraph("g", ParityGraph()).ok());
  for (RunRequest request : {negative_threads, negative_deadline,
                             nan_deadline}) {
    request.algorithm = kPageRank;
    request.backend = kVertexicaBackendId;
    const auto result = server.Run("g", request);
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsInvalidArgument())
        << result.status().ToString();
  }
  EXPECT_EQ(server.admission_stats().admitted, 0u);
}

TEST(ExecKnobsTest, CancelTokenRidesTheKnobPlumbing) {
  CancelToken token = CancelToken::Make();
  ExecKnobs knobs = ExecKnobs::Current();
  knobs.cancel = token;

  // Installing the knobs on a fresh thread installs the token — a pool
  // task polls the submitter's stop button, not a null one.
  token.Cancel();
  Status seen;
  std::thread worker([&]() {
    ScopedExecKnobs install(knobs);
    seen = ExecKnobs::Current().cancel.Check();
  });
  worker.join();
  EXPECT_TRUE(seen.IsCancelled()) << seen.ToString();
}

TEST(ExecContextTest, FromRequestResolvesDeadline) {
  RunRequest no_deadline;
  EXPECT_TRUE(ExecKnobsFromRequest(no_deadline)->cancel.null());

  RunRequest with_deadline;
  with_deadline.deadline_ms = 3600 * 1e3;  // one hour: resolves, never fires
  const ExecKnobs ctx = *ExecKnobsFromRequest(with_deadline);
  ASSERT_FALSE(ctx.cancel.null());
  std::chrono::steady_clock::time_point deadline;
  EXPECT_TRUE(ctx.cancel.deadline(&deadline));
  EXPECT_TRUE(ctx.cancel.Check().ok());

  RunRequest expired;
  expired.deadline_ms = 1e-9;  // resolved against arrival: already past
  EXPECT_TRUE(ExecKnobsFromRequest(expired)
                  ->cancel.Check()
                  .IsDeadlineExceeded());
}

TEST(ExecContextTest, InfiniteDeadlineRunsToCompletion) {
  // deadline_ms past the clock's range (1e13 ms ≈ 317 years, +inf) means
  // no deadline: the run completes instead of failing at once.
  Engine engine;
  ASSERT_TRUE(engine.LoadGraph(ParityGraph()).ok());
  for (const double deadline_ms :
       {1e13, 1e300, std::numeric_limits<double>::infinity()}) {
    RunRequest request;
    request.algorithm = kPageRank;
    request.backend = kVertexicaBackendId;
    request.deadline_ms = deadline_ms;
    const auto result = engine.Run(request);
    EXPECT_TRUE(result.ok()) << deadline_ms << ": "
                             << result.status().ToString();
  }
}

TEST(ExecContextTest, KnobStringsTakeTheEnvVocabulary) {
  // Every spelling the environment variables accept, in any case, means
  // the same in a request.
  const struct {
    const char* text;
    EncodingMode mode;
  } encodings[] = {
      {"Off", EncodingMode::kOff},   {"none", EncodingMode::kOff},
      {"FALSE", EncodingMode::kOff}, {"0", EncodingMode::kOff},
      {"Auto", EncodingMode::kAuto}, {"on", EncodingMode::kAuto},
      {"True", EncodingMode::kAuto}, {"FORCE", EncodingMode::kForce}};
  for (const auto& e : encodings) {
    RunRequest request;
    request.encoding = e.text;
    const auto ctx = ExecKnobsFromRequest(request);
    ASSERT_TRUE(ctx.ok()) << e.text << ": " << ctx.status().ToString();
    EXPECT_EQ(ctx->encoding, e.mode) << e.text;
  }
  for (const char* off : {"Off", "no", "NO", "false", "0"}) {
    RunRequest request;
    request.vectorized = off;
    const auto ctx = ExecKnobsFromRequest(request);
    ASSERT_TRUE(ctx.ok()) << off << ": " << ctx.status().ToString();
    EXPECT_FALSE(ctx->vectorized) << off;
  }
  for (const char* on : {"On", "yes", "TRUE", "1"}) {
    ExecKnobs knobs = ExecKnobs::Current();
    knobs.vectorized = false;
    ScopedExecKnobs ambient_off(knobs);
    RunRequest request;
    request.vectorized = on;
    const auto ctx = ExecKnobsFromRequest(request);
    ASSERT_TRUE(ctx.ok()) << on << ": " << ctx.status().ToString();
    EXPECT_TRUE(ctx->vectorized) << on;
  }
  const struct {
    const char* text;
    FrontierMode mode;
  } frontiers[] = {{"OFF", FrontierMode::kOff}, {"None", FrontierMode::kOff},
                   {"AUTO", FrontierMode::kAuto}, {"Force", FrontierMode::kOn},
                   {"1", FrontierMode::kOn}};
  for (const auto& f : frontiers) {
    RunRequest request;
    request.frontier = f.text;
    const auto ctx = ExecKnobsFromRequest(request);
    ASSERT_TRUE(ctx.ok()) << f.text << ": " << ctx.status().ToString();
    EXPECT_EQ(ctx->frontier, f.mode) << f.text;
  }
  // The environment side parses through the same vocabulary.
  EXPECT_EQ(ParseEncodingMode("NONE"), EncodingMode::kOff);
  EXPECT_EQ(ParseFrontierMode("None"), FrontierMode::kOff);
  EXPECT_EQ(ParseOnOff("No"), false);
}

TEST(ExecContextTest, UnknownKnobStringIsRejected) {
  RunRequest bad_encoding;
  bad_encoding.encoding = "offf";
  RunRequest bad_frontier;
  bad_frontier.frontier = "banana";
  RunRequest bad_vectorized;
  bad_vectorized.vectorized = "maybe";
  for (const auto& [request, field, value] :
       {std::make_tuple(bad_encoding, "encoding", "offf"),
        std::make_tuple(bad_frontier, "frontier", "banana"),
        std::make_tuple(bad_vectorized, "vectorized", "maybe")}) {
    const auto ctx = ExecKnobsFromRequest(request);
    ASSERT_FALSE(ctx.ok()) << field;
    EXPECT_TRUE(ctx.status().IsInvalidArgument()) << ctx.status().ToString();
    EXPECT_NE(ctx.status().message().find(field), std::string::npos)
        << ctx.status().ToString();
    EXPECT_NE(ctx.status().message().find(value), std::string::npos)
        << ctx.status().ToString();
  }
  EXPECT_FALSE(ParseEncodingMode("offf").has_value());
  EXPECT_FALSE(ParseFrontierMode("banana").has_value());
  EXPECT_FALSE(ParseOnOff("maybe").has_value());
}

// --------------------------------------------------------- admission

TEST(AdmissionTest, ClampsDemandToBudget) {
  AdmissionController admission(4);
  auto ticket = admission.Admit(16);
  EXPECT_EQ(ticket.granted_threads(), 4);
  EXPECT_TRUE(ticket.clamped());
  EXPECT_EQ(admission.in_use(), 4);
  ticket.Release();
  EXPECT_EQ(admission.in_use(), 0);
  EXPECT_EQ(admission.stats().clamped, 1u);
}

TEST(AdmissionTest, TicketReleasesOnDestruction) {
  AdmissionController admission(2);
  {
    auto ticket = admission.Admit(2);
    EXPECT_EQ(admission.in_use(), 2);
  }
  EXPECT_EQ(admission.in_use(), 0);
}

TEST(AdmissionTest, QueuesInFifoOrder) {
  AdmissionController admission(2);
  auto first = admission.Admit(2);  // exhausts the budget

  std::atomic<int> order{0};
  int second_pos = 0, third_pos = 0;
  std::thread second([&]() {
    auto t = admission.Admit(2);
    second_pos = ++order;
  });
  // Give `second` time to enqueue before `third` — FIFO is by arrival.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread third([&]() {
    auto t = admission.Admit(1);  // would fit sooner, must not overtake
    third_pos = ++order;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(order.load(), 0);  // both still queued behind `first`
  first.Release();
  second.join();
  third.join();
  EXPECT_EQ(second_pos, 1);
  EXPECT_EQ(third_pos, 2);
  const auto stats = admission.stats();
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.queued, 2u);
  EXPECT_GT(stats.total_queue_seconds, 0.0);
}

TEST(AdmissionTest, NeverOversubscribesUnderStress) {
  AdmissionController admission(3);
  std::vector<std::thread> workers;
  for (int w = 0; w < 12; ++w) {
    workers.emplace_back([&admission, w]() {
      for (int i = 0; i < 20; ++i) {
        auto ticket = admission.Admit(1 + (w + i) % 3);
        // in_use includes this ticket; the invariant is the budget cap.
        EXPECT_LE(admission.in_use(), 3);
      }
    });
  }
  for (auto& t : workers) t.join();
  const auto stats = admission.stats();
  EXPECT_EQ(stats.admitted, 12u * 20u);
  EXPECT_LE(stats.max_in_use, 3);
}

TEST(AdmissionTest, QueueWaitDeadlineShedsWithDeadlineExceeded) {
  AdmissionController admission(2);
  auto hog = admission.Admit(2);  // exhausts the budget

  const CancelToken deadline = CancelToken().WithDeadlineAfter(0.05);
  auto shed = admission.Admit(1, deadline);
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsDeadlineExceeded()) << shed.status().ToString();
  EXPECT_EQ(admission.stats().shed, 1u);

  // The abandoned serial must not wedge the FIFO: the next waiter admits
  // as soon as the budget frees up.
  hog.Release();
  auto next = admission.Admit(2, CancelToken());
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->granted_threads(), 2);
}

TEST(AdmissionTest, CancelledTokenShedsImmediately) {
  AdmissionController admission(1);
  auto hog = admission.Admit(1);
  CancelToken token = CancelToken::Make();
  token.Cancel();
  auto shed = admission.Admit(1, token);
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsCancelled());
  EXPECT_EQ(admission.stats().shed, 1u);
  EXPECT_EQ(admission.in_use(), 1);  // nothing was reserved for the shed
}

TEST(AdmissionTest, ShedWaiterDoesNotBlockLaterWaiters) {
  AdmissionController admission(2);
  auto hog = admission.Admit(2);

  // Waiter A holds the FIFO head with a cancellable token; waiter B queues
  // behind it with no token at all.
  CancelToken a_token = CancelToken::Make();
  std::atomic<bool> a_shed{false};
  std::thread a([&]() {
    auto t = admission.Admit(1, a_token);
    a_shed = !t.ok() && t.status().IsCancelled();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::atomic<bool> b_admitted{false};
  std::thread b([&]() {
    auto t = admission.Admit(2, CancelToken());
    b_admitted = t.ok();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  a_token.Cancel();  // A abandons its place at the head of the line
  a.join();
  EXPECT_TRUE(a_shed.load());
  hog.Release();  // B — behind the abandoned serial — must still admit
  b.join();
  EXPECT_TRUE(b_admitted.load());
  EXPECT_EQ(admission.stats().shed, 1u);
  EXPECT_EQ(admission.in_use(), 0);
}

TEST(AdmissionTest, InjectedAdmissionFaultDoesNotLeakBudget) {
  AdmissionController admission(2);

  // The fault fires before any reservation, so a failed Admit must leave
  // the budget untouched and the FIFO unwedged.
  ArmFault("admission.admit", 1, FaultAction::kError);
  auto shed = admission.Admit(1, CancelToken());
  DisarmAllFaults();
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsAborted()) << shed.status().ToString();
  EXPECT_EQ(admission.in_use(), 0);

  auto next = admission.Admit(2, CancelToken());
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->granted_threads(), 2);
}

// ------------------------------------------------------ catalog snapshots

Table OneColumnTable(int64_t rows, int64_t value) {
  std::vector<int64_t> data(static_cast<size_t>(rows), value);
  auto made = Table::Make(Schema({{"x", DataType::kInt64}}),
                          {Column::FromInts(std::move(data))});
  VX_CHECK(made.ok());
  return std::move(made).MoveValueUnsafe();
}

TEST(CatalogSnapshotTest, SnapshotIgnoresLaterMutations) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("t", OneColumnTable(3, 1)).ok());
  EXPECT_EQ(catalog.version(), 1u);

  const CatalogSnapshot snapshot = catalog.Snapshot();
  EXPECT_EQ(snapshot.version(), 1u);

  ASSERT_TRUE(catalog.ReplaceTable("t", OneColumnTable(7, 2)).ok());
  ASSERT_TRUE(catalog.CreateTable("u", OneColumnTable(1, 3)).ok());
  EXPECT_EQ(catalog.version(), 3u);

  // The snapshot still sees the original table set and versions.
  auto old_t = snapshot.GetTable("t");
  ASSERT_TRUE(old_t.ok());
  EXPECT_EQ((*old_t)->num_rows(), 3);
  EXPECT_FALSE(snapshot.HasTable("u"));

  auto new_t = catalog.GetTable("t");
  ASSERT_TRUE(new_t.ok());
  EXPECT_EQ((*new_t)->num_rows(), 7);
}

TEST(CatalogSnapshotTest, SeededCatalogSharesTablesZeroCopy) {
  Catalog base;
  ASSERT_TRUE(base.CreateTable("edge", OneColumnTable(5, 9)).ok());
  const CatalogSnapshot snapshot = base.Snapshot();

  Catalog seeded(snapshot);
  EXPECT_EQ(seeded.version(), snapshot.version());
  auto from_base = base.GetTable("edge");
  auto from_seeded = seeded.GetTable("edge");
  ASSERT_TRUE(from_base.ok() && from_seeded.ok());
  // Same physical table, not a copy.
  EXPECT_EQ(from_base->get(), from_seeded->get());

  // Writes to the seeded catalog stay private.
  ASSERT_TRUE(seeded.ReplaceTable("edge", OneColumnTable(1, 0)).ok());
  auto base_after = base.GetTable("edge");
  ASSERT_TRUE(base_after.ok());
  EXPECT_EQ((*base_after)->num_rows(), 5);
}

// ------------------------------------------------------------ the server

TEST(EngineServerTest, GraphLifecycleAndVersions) {
  EngineServer server;
  EXPECT_TRUE(server.CreateGraph("g", ParityGraph()).ok());
  EXPECT_FALSE(server.CreateGraph("g", ParityGraph()).ok());  // duplicate
  auto version = server.GraphVersion("g");
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 1u);

  EXPECT_TRUE(server.UpdateGraph("g", OtherGraph()).ok());
  version = server.GraphVersion("g");
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 2u);

  EXPECT_EQ(server.GraphNames(), std::vector<std::string>{"g"});
  EXPECT_TRUE(server.DropGraph("g").ok());
  EXPECT_FALSE(server.DropGraph("g").ok());
  EXPECT_FALSE(server.Run("g", RunRequest{}).ok());
}

TEST(EngineServerTest, RunReportsServingMetrics) {
  // Explicit budget: the default resolves to the pool size, which on a
  // small machine could clamp the granted threads below the request.
  ServerOptions options;
  options.admission_budget_threads = 4;
  EngineServer server(options);
  ASSERT_TRUE(server.CreateGraph("g", ParityGraph()).ok());
  RunRequest request;
  request.algorithm = kPageRank;
  request.backend = kVertexicaBackendId;
  request.threads = 2;
  auto result = server.Run("g", request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->backend_metrics.count("server_queue_seconds"), 1u);
  EXPECT_EQ(result->backend_metrics.count("server_run_seconds"), 1u);
  EXPECT_EQ(result->backend_metrics["server_granted_threads"], 2.0);
  EXPECT_EQ(result->backend_metrics["server_graph_version"], 1.0);
  EXPECT_EQ(server.in_flight(), 0);
  EXPECT_EQ(server.admission_stats().admitted, 1u);
}

TEST(EngineServerTest, MalformedKnobIsRejectedBeforeAdmission) {
  EngineServer server;
  ASSERT_TRUE(server.CreateGraph("g", ParityGraph()).ok());
  RunRequest request;
  request.algorithm = kPageRank;
  request.backend = kVertexicaBackendId;
  request.frontier = "banana";
  const auto result = server.Run("g", request);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument())
      << result.status().ToString();
  EXPECT_EQ(server.admission_stats().admitted, 0u);
}

// The tentpole acceptance test: concurrent mixed requests with differing
// knobs on ONE shared EngineServer are bit-identical to the same requests
// run serially — all four backends, pagerank + sssp.
TEST(EngineServerTest, ConcurrentMixedClientsBitIdenticalToSerial) {
  const Graph g = ParityGraph();

  // The request mix: backends × algorithms × knob variants. 16 requests,
  // run by 16 concurrent clients (≥ 8 per the acceptance bar).
  std::vector<RunRequest> requests;
  for (const char* backend :
       {kVertexicaBackendId, kSqlGraphBackendId, kGiraphBackendId,
        kGraphDbBackendId}) {
    for (const char* algorithm : {kPageRank, kSssp}) {
      for (int variant = 0; variant < 2; ++variant) {
        RunRequest request;
        request.backend = backend;
        request.algorithm = algorithm;
        request.source = 1;
        request.threads = 1 + variant * 2;        // 1 or 3
        request.encoding = variant == 0 ? "off" : "force";
        request.vectorized = variant == 0 ? "off" : "on";
        requests.push_back(request);
      }
    }
  }
  ASSERT_GE(requests.size(), 8u);

  // Serial reference: each request on its own fresh engine.
  std::vector<RunResult> serial;
  for (const RunRequest& request : requests) {
    Engine engine;
    ASSERT_TRUE(engine.LoadGraph(g).ok());
    auto result = engine.Run(request);
    ASSERT_TRUE(result.ok()) << request.backend << "/" << request.algorithm
                             << ": " << result.status().ToString();
    serial.push_back(*std::move(result));
  }

  // Concurrent: all requests at once against one shared server.
  EngineServer server;
  ASSERT_TRUE(server.CreateGraph("g", g).ok());
  std::vector<Result<RunResult>> concurrent;
  concurrent.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    concurrent.push_back(Status::Internal("not run"));
  }
  std::vector<std::thread> clients;
  for (size_t i = 0; i < requests.size(); ++i) {
    clients.emplace_back([&, i]() {
      concurrent[i] = server.Run("g", requests[i]);
    });
  }
  for (auto& t : clients) t.join();

  for (size_t i = 0; i < requests.size(); ++i) {
    const std::string label = requests[i].backend + std::string("/") +
                              requests[i].algorithm + "/variant" +
                              std::to_string(i % 2);
    ASSERT_TRUE(concurrent[i].ok())
        << label << ": " << concurrent[i].status().ToString();
    const RunResult& c = *concurrent[i];
    const RunResult& s = serial[i];
    ASSERT_EQ(c.values.size(), s.values.size()) << label;
    for (size_t v = 0; v < s.values.size(); ++v) {
      // Bit-identical, not approximately equal.
      EXPECT_EQ(c.values[v], s.values[v]) << label << ": vertex " << v;
    }
    EXPECT_EQ(c.aggregates, s.aggregates) << label;
  }

  const auto stats = server.admission_stats();
  EXPECT_EQ(stats.admitted, requests.size());
  EXPECT_LE(stats.max_in_use, server.admission_budget_threads());
}

// Snapshot isolation: an update installed mid-session does not affect the
// session's pinned version — no timing dependence, the pin is explicit.
TEST(EngineServerTest, SessionsAreSnapshotIsolated) {
  EngineServer server;
  ASSERT_TRUE(server.CreateGraph("g", ParityGraph()).ok());

  auto session = server.OpenSession("g");
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session->graph_version(), 1u);

  RunRequest request;
  request.algorithm = kPageRank;
  request.backend = kVertexicaBackendId;
  auto before = session->Run(request);
  ASSERT_TRUE(before.ok());

  // Install a structurally different graph mid-session.
  ASSERT_TRUE(server.UpdateGraph("g", OtherGraph()).ok());

  // The session still reads version 1: bit-identical to the run before
  // the update.
  auto pinned = session->Run(request);
  ASSERT_TRUE(pinned.ok());
  ASSERT_EQ(pinned->values.size(), before->values.size());
  for (size_t v = 0; v < before->values.size(); ++v) {
    EXPECT_EQ(pinned->values[v], before->values[v]) << "vertex " << v;
  }
  EXPECT_EQ(pinned->backend_metrics["server_graph_version"], 1.0);

  // A fresh server-level run sees version 2 (a different graph).
  auto latest = server.Run("g", request);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->backend_metrics["server_graph_version"], 2.0);
  EXPECT_NE(latest->values.size(), before->values.size());

  // Refresh re-pins the session to the latest version.
  ASSERT_TRUE(session->Refresh().ok());
  EXPECT_EQ(session->graph_version(), 2u);
  auto refreshed = session->Run(request);
  ASSERT_TRUE(refreshed.ok());
  EXPECT_EQ(refreshed->values.size(), latest->values.size());
}

// Concurrent runs against a session must keep their pinned engine alive
// even when the server drops the graph underneath them.
TEST(EngineServerTest, DroppedGraphStaysAliveForPinnedSessions) {
  EngineServer server;
  ASSERT_TRUE(server.CreateGraph("g", ParityGraph()).ok());
  auto session = server.OpenSession("g");
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(server.DropGraph("g").ok());

  RunRequest request;
  request.algorithm = kSssp;
  request.backend = kSqlGraphBackendId;
  request.source = 1;
  auto result = session->Run(request);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(server.Run("g", request).ok());
}

// ----------------------------------------- deadlines, cancel, retries

TEST(EngineServerTest, ExpiredDeadlineReturnsDeadlineExceeded) {
  EngineServer server;
  ASSERT_TRUE(server.CreateGraph("g", ParityGraph()).ok());
  RunRequest request;
  request.algorithm = kPageRank;
  request.backend = kVertexicaBackendId;
  request.deadline_ms = 1e-9;  // expires on arrival
  const auto result = server.Run("g", request);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
  // The failed run released its reservation (if it was ever admitted).
  EXPECT_EQ(server.in_flight(), 0);
}

// Saturation: 8 concurrent clients against a 1-thread admission budget,
// half with an already-expired deadline. The deadline requests shed (or
// stop at the first superstep boundary) with DeadlineExceeded; the
// survivors are unaffected and bit-identical to a serial reference run.
TEST(EngineServerTest, SaturatedServerShedsDeadlinedRequestsOnly) {
  const Graph g = ParityGraph();
  RunRequest request;
  request.algorithm = kPageRank;
  request.backend = kVertexicaBackendId;
  request.threads = 1;

  Engine reference_engine;
  ASSERT_TRUE(reference_engine.LoadGraph(g).ok());
  auto reference = reference_engine.Run(request);
  ASSERT_TRUE(reference.ok());

  ServerOptions options;
  options.admission_budget_threads = 1;  // fully serialized admission
  EngineServer server(options);
  ASSERT_TRUE(server.CreateGraph("g", g).ok());

  constexpr int kClients = 8;
  std::vector<Result<RunResult>> results;
  for (int i = 0; i < kClients; ++i) {
    results.push_back(Status::Internal("not run"));
  }
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i]() {
      RunRequest mine = request;
      if (i % 2 == 1) mine.deadline_ms = 1e-9;
      results[static_cast<size_t>(i)] = server.Run("g", mine);
    });
  }
  for (auto& t : clients) t.join();

  for (int i = 0; i < kClients; ++i) {
    const auto& result = results[static_cast<size_t>(i)];
    if (i % 2 == 1) {
      ASSERT_FALSE(result.ok()) << "client " << i;
      EXPECT_TRUE(result.status().IsDeadlineExceeded())
          << "client " << i << ": " << result.status().ToString();
    } else {
      ASSERT_TRUE(result.ok())
          << "client " << i << ": " << result.status().ToString();
      EXPECT_EQ(result->values, reference->values) << "client " << i;
    }
  }
  EXPECT_EQ(server.in_flight(), 0);
  // Shed requests released (or never took) their tickets: a full-budget
  // request admits immediately afterwards.
  auto after = server.Run("g", request);
  EXPECT_TRUE(after.ok()) << after.status().ToString();
}

TEST(EngineServerTest, CancelledSessionsReleaseTicketsSurvivorsUnaffected) {
  const Graph g = ParityGraph();
  RunRequest request;
  request.algorithm = kPageRank;
  request.backend = kVertexicaBackendId;
  request.threads = 1;

  Engine reference_engine;
  ASSERT_TRUE(reference_engine.LoadGraph(g).ok());
  auto reference = reference_engine.Run(request);
  ASSERT_TRUE(reference.ok());

  ServerOptions options;
  options.admission_budget_threads = 2;
  EngineServer server(options);
  ASSERT_TRUE(server.CreateGraph("g", g).ok());

  constexpr int kClients = 8;
  std::vector<Session> sessions;
  for (int i = 0; i < kClients; ++i) {
    auto session = server.OpenSession("g");
    ASSERT_TRUE(session.ok());
    sessions.push_back(*std::move(session));
  }
  // Cancel is sticky, so cancelling before the run makes the outcome
  // deterministic: the run stops at its first cooperative boundary
  // whether it was queued or already admitted.
  for (int i = 0; i < kClients; i += 2) sessions[i].Cancel();

  std::vector<Result<RunResult>> results;
  for (int i = 0; i < kClients; ++i) {
    results.push_back(Status::Internal("not run"));
  }
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i]() {
      results[static_cast<size_t>(i)] =
          sessions[static_cast<size_t>(i)].Run(request);
    });
  }
  for (auto& t : clients) t.join();

  for (int i = 0; i < kClients; ++i) {
    const auto& result = results[static_cast<size_t>(i)];
    if (i % 2 == 0) {
      ASSERT_FALSE(result.ok()) << "session " << i;
      EXPECT_TRUE(result.status().IsCancelled())
          << "session " << i << ": " << result.status().ToString();
    } else {
      ASSERT_TRUE(result.ok())
          << "session " << i << ": " << result.status().ToString();
      EXPECT_EQ(result->values, reference->values) << "session " << i;
    }
  }
  EXPECT_EQ(server.in_flight(), 0);

  // A cancelled session stays cancelled; its ticket is long gone, so the
  // budget is fully available to a fresh full-budget request.
  auto again = sessions[0].Run(request);
  ASSERT_FALSE(again.ok());
  EXPECT_TRUE(again.status().IsCancelled());
  RunRequest full = request;
  full.threads = 2;
  auto after = server.Run("g", full);
  EXPECT_TRUE(after.ok()) << after.status().ToString();
}

TEST(EngineServerTest, TransientFailuresRetryWithBoundedBackoff) {
  EngineServer server;
  ASSERT_TRUE(server.CreateGraph("g", ParityGraph()).ok());
  RunRequest request;
  request.algorithm = kPageRank;
  request.backend = kVertexicaBackendId;

  // One injected transient failure: the retry absorbs it.
  ArmFault("server.run", 1, FaultAction::kError);
  auto result = server.Run("g", request);
  DisarmAllFaults();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(server.retry_count(), 1u);
  EXPECT_EQ(result->backend_metrics["server_attempts"], 2.0);

  // A run with no faults armed reports one attempt and no new retries.
  auto clean = server.Run("g", request);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->backend_metrics["server_attempts"], 1.0);
  EXPECT_EQ(server.retry_count(), 1u);
}

TEST(EngineServerTest, PersistentTransientFailureExhaustsAttempts) {
  ServerOptions options;
  options.max_run_attempts = 3;
  options.retry_backoff_seconds = 1e-4;
  EngineServer server(options);
  ASSERT_TRUE(server.CreateGraph("g", ParityGraph()).ok());
  RunRequest request;
  request.algorithm = kPageRank;
  request.backend = kVertexicaBackendId;

  ArmFaultEvery("server.run", 1);  // every attempt fails
  auto result = server.Run("g", request);
  DisarmAllFaults();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsAborted()) << result.status().ToString();
  EXPECT_EQ(server.retry_count(), 2u);  // 3 attempts = 2 retries
  EXPECT_EQ(server.in_flight(), 0);
}

}  // namespace
}  // namespace vertexica
