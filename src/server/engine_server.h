/// \file engine_server.h
/// \brief The in-process serving layer: named graphs, concurrent runs,
/// copy-on-write graph versions, and admission control.
///
/// Everything below the Engine facade is one-shot: load a graph, run an
/// algorithm, exit. The ROADMAP's north star is an always-on analytic
/// engine where many clients share immutable cached storage (encoded
/// columns, zone maps, pre-encoded join sides). EngineServer is that layer:
///
///  - **Named graphs, versioned copy-on-write.** Each name maps to an
///    immutable `(Engine, version)` pair behind a `shared_ptr`. A run pins
///    the pair for its whole duration; `UpdateGraph` builds a fresh Engine
///    and swaps the pointer atomically. In-flight runs keep reading the
///    version they pinned — snapshot isolation without locks on the run
///    path. (Within a version, VertexicaBackend gives each run a private
///    catalog seeded from the shared base snapshot; see api/backends.h.)
///  - **Sessions.** A `Session` pins one graph version at open, so a
///    sequence of runs sees one consistent graph even while the server
///    installs updates; `Refresh()` re-pins the latest.
///  - **Admission control.** Each request's resolved thread demand (the
///    `threads` of its ExecKnobs) is reserved against one global budget
///    before the run starts (server/admission.h): concurrent requests
///    queue in FIFO order instead of oversubscribing the shared ThreadPool.
///
/// Per-request serving metrics are reported in-band via
/// `RunResult::backend_metrics`: `server_queue_seconds`,
/// `server_run_seconds`, `server_granted_threads`, `server_graph_version`.

#ifndef VERTEXICA_SERVER_ENGINE_SERVER_H_
#define VERTEXICA_SERVER_ENGINE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.h"
#include "common/cancel.h"
#include "common/result.h"
#include "server/admission.h"

namespace vertexica {

/// \brief Server construction knobs.
struct ServerOptions {
  /// Global thread budget for admission control; <= 0 uses the shared
  /// ThreadPool's size.
  int admission_budget_threads = 0;

  /// Total attempts per request when the engine reports a *transient*
  /// failure (`Status::Aborted` — the code injected faults and retryable
  /// conditions use). 1 disables retries; other status codes never retry.
  int max_run_attempts = 3;

  /// Base of the bounded exponential backoff between attempts
  /// (base * 2^(attempt-1), capped at 50 ms). Retries also stop early when
  /// the request's deadline or cancellation fires.
  double retry_backoff_seconds = 0.001;
};

class EngineServer;

/// \brief A client handle pinned to one version of one named graph.
///
/// Copyable-by-move, cheap, and safe to use from its owning thread while
/// other sessions/threads run concurrently. All runs through a session see
/// the graph version that was current at OpenSession (or the last
/// Refresh), regardless of server-side updates.
class Session {
 public:
  /// \brief Runs one request against the pinned graph version.
  Result<RunResult> Run(const RunRequest& request);

  /// \brief Cancels this session's in-flight and future runs: the current
  /// Run stops cooperatively (superstep / ParallelFor grain boundaries)
  /// with `Status::Cancelled`, releasing its admission reservation; a
  /// queued Run sheds without ever being admitted. Sticky — a cancelled
  /// session stays cancelled; open a new session to continue. The one
  /// method safe to call from another thread while Run is in flight.
  void Cancel() { cancel_.Cancel(); }

  /// \brief The pinned version (bumped by every server-side update).
  uint64_t graph_version() const { return version_; }

  const std::string& graph_name() const { return graph_; }

  /// \brief Re-pins the latest installed version of the graph.
  Status Refresh();

 private:
  friend class EngineServer;
  Session(EngineServer* server, std::string graph,
          std::shared_ptr<Engine> engine, uint64_t version)
      : server_(server),
        graph_(std::move(graph)),
        engine_(std::move(engine)),
        version_(version) {}

  EngineServer* server_ = nullptr;
  std::string graph_;
  std::shared_ptr<Engine> engine_;  // pins the version
  uint64_t version_ = 0;
  CancelToken cancel_ = CancelToken::Make();  // session-wide stop button
};

/// \brief The long-lived, concurrently-callable serving facade.
///
/// Thread-safe: every public method may be called from any thread at any
/// time. Run calls execute concurrently (subject to admission control);
/// graph management is atomic per name.
class EngineServer {
 public:
  explicit EngineServer(ServerOptions options = {});

  /// \name Graph management (copy-on-write)
  /// @{

  /// \brief Installs a new named graph at version 1; fails if the name
  /// exists. The graph's backends prepare lazily on first use (or call
  /// PrepareGraph).
  Status CreateGraph(const std::string& name, Graph graph);
  Status CreateGraph(const std::string& name,
                     std::shared_ptr<const Graph> graph);

  /// \brief Atomically replaces `name` with a new version (creates at
  /// version 1 if absent). In-flight runs and open sessions continue
  /// reading the version they pinned.
  Status UpdateGraph(const std::string& name, Graph graph);
  Status UpdateGraph(const std::string& name,
                     std::shared_ptr<const Graph> graph);

  /// \brief Removes a name. Pinned sessions keep working on their version.
  Status DropGraph(const std::string& name);

  /// \brief Eagerly prepares one backend (empty id: all backends) of the
  /// current version, keeping the one-time load cost out of serving
  /// latency.
  Status PrepareGraph(const std::string& name,
                      const std::string& backend_id = "");

  std::vector<std::string> GraphNames() const;
  Result<uint64_t> GraphVersion(const std::string& name) const;
  /// @}

  /// \brief Runs one request against the current version of `graph`.
  /// Safe to call concurrently from many threads; queues under admission
  /// control when the aggregate thread demand exceeds the budget.
  Result<RunResult> Run(const std::string& graph, const RunRequest& request);

  /// \brief Opens a session pinned to the current version of `graph`.
  Result<Session> OpenSession(const std::string& graph);

  /// \brief Requests currently executing (admitted, not yet finished).
  int in_flight() const { return in_flight_.load(std::memory_order_acquire); }

  AdmissionController::Stats admission_stats() const {
    return admission_.stats();
  }
  int admission_budget_threads() const {
    return admission_.budget_threads();
  }

  /// \brief Transient-failure retries performed across all requests.
  uint64_t retry_count() const {
    return retries_.load(std::memory_order_acquire);
  }

 private:
  friend class Session;

  struct GraphEntry {
    std::shared_ptr<Engine> engine;
    uint64_t version = 0;
  };

  Result<GraphEntry> Lookup(const std::string& name) const;
  Status Install(const std::string& name, std::shared_ptr<const Graph> graph,
                 bool allow_replace);

  /// The run path shared by EngineServer::Run and Session::Run: deadline
  /// resolution, admission (with queue-wait shedding), execution on the
  /// pinned engine with bounded-backoff retry of transient failures,
  /// serving metrics. `session_cancel` layers a session's stop button
  /// under the request deadline; a null token means no session.
  Result<RunResult> RunOnEngine(Engine* engine, uint64_t version,
                                const RunRequest& request,
                                const CancelToken& session_cancel);

  ServerOptions options_;
  AdmissionController admission_;
  std::atomic<int> in_flight_{0};
  std::atomic<uint64_t> retries_{0};

  mutable std::mutex mutex_;
  std::map<std::string, GraphEntry> graphs_;
};

}  // namespace vertexica

#endif  // VERTEXICA_SERVER_ENGINE_SERVER_H_
