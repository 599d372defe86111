#include "server/engine_server.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "api/exec_context.h"
#include "common/fault_injection.h"
#include "common/timer.h"

namespace vertexica {

Result<RunResult> Session::Run(const RunRequest& request) {
  if (server_ == nullptr || engine_ == nullptr) {
    return Status::InvalidArgument("session is not open");
  }
  return server_->RunOnEngine(engine_.get(), version_, request, cancel_);
}

Status Session::Refresh() {
  if (server_ == nullptr) {
    return Status::InvalidArgument("session is not open");
  }
  VX_ASSIGN_OR_RETURN(EngineServer::GraphEntry entry,
                      server_->Lookup(graph_));
  engine_ = std::move(entry.engine);
  version_ = entry.version;
  return Status::OK();
}

EngineServer::EngineServer(ServerOptions options)
    : options_(options), admission_(options.admission_budget_threads) {}

Status EngineServer::CreateGraph(const std::string& name, Graph graph) {
  return CreateGraph(name, std::make_shared<const Graph>(std::move(graph)));
}

Status EngineServer::CreateGraph(const std::string& name,
                                 std::shared_ptr<const Graph> graph) {
  return Install(name, std::move(graph), /*allow_replace=*/false);
}

Status EngineServer::UpdateGraph(const std::string& name, Graph graph) {
  return UpdateGraph(name, std::make_shared<const Graph>(std::move(graph)));
}

Status EngineServer::UpdateGraph(const std::string& name,
                                 std::shared_ptr<const Graph> graph) {
  return Install(name, std::move(graph), /*allow_replace=*/true);
}

Status EngineServer::Install(const std::string& name,
                             std::shared_ptr<const Graph> graph,
                             bool allow_replace) {
  // Build the new version entirely outside the lock: an expensive load
  // must not block concurrent Run/OpenSession lookups.
  auto engine = std::make_shared<Engine>();
  VX_RETURN_NOT_OK(engine->LoadGraph(std::move(graph)));

  std::lock_guard<std::mutex> lock(mutex_);
  auto it = graphs_.find(name);
  if (it == graphs_.end()) {
    graphs_[name] = GraphEntry{std::move(engine), 1};
    return Status::OK();
  }
  if (!allow_replace) {
    return Status::AlreadyExists("graph '" + name + "' already exists");
  }
  // The atomic copy-on-write swap: in-flight runs hold the old engine via
  // shared_ptr and finish on the version they pinned.
  it->second = GraphEntry{std::move(engine), it->second.version + 1};
  return Status::OK();
}

Status EngineServer::DropGraph(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (graphs_.erase(name) == 0) {
    return Status::NotFound("graph '" + name + "' does not exist");
  }
  return Status::OK();
}

Status EngineServer::PrepareGraph(const std::string& name,
                                  const std::string& backend_id) {
  VX_ASSIGN_OR_RETURN(GraphEntry entry, Lookup(name));
  if (!backend_id.empty()) {
    return entry.engine->PrepareBackend(backend_id);
  }
  for (const std::string& id : entry.engine->backends()) {
    VX_RETURN_NOT_OK(entry.engine->PrepareBackend(id));
  }
  return Status::OK();
}

std::vector<std::string> EngineServer::GraphNames() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(graphs_.size());
  for (const auto& [name, _] : graphs_) names.push_back(name);
  return names;
}

Result<uint64_t> EngineServer::GraphVersion(const std::string& name) const {
  VX_ASSIGN_OR_RETURN(GraphEntry entry, Lookup(name));
  return entry.version;
}

Result<EngineServer::GraphEntry> EngineServer::Lookup(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = graphs_.find(name);
  if (it == graphs_.end()) {
    return Status::NotFound("graph '" + name + "' does not exist");
  }
  return it->second;
}

Result<RunResult> EngineServer::Run(const std::string& graph,
                                    const RunRequest& request) {
  VX_ASSIGN_OR_RETURN(GraphEntry entry, Lookup(graph));
  // `entry.engine` (a shared_ptr copy) pins this version for the whole
  // run; a concurrent UpdateGraph swaps the map entry without touching it.
  return RunOnEngine(entry.engine.get(), entry.version, request,
                     CancelToken());
}

Result<Session> EngineServer::OpenSession(const std::string& graph) {
  VX_ASSIGN_OR_RETURN(GraphEntry entry, Lookup(graph));
  return Session(this, graph, std::move(entry.engine), entry.version);
}

Result<RunResult> EngineServer::RunOnEngine(
    Engine* engine, uint64_t version, const RunRequest& request,
    const CancelToken& session_cancel) {
  // Resolve the request's execution configuration up front — its thread
  // demand is what admission charges against the budget, and its deadline
  // (resolved against arrival time, layered over the session's stop
  // button) is what admission sheds on. The token covers queue wait plus
  // execution: time spent queued is time the run no longer has.
  ExecKnobs session = ExecKnobs::Current();
  session.cancel = session_cancel;
  const ScopedExecKnobs session_scope(session);
  // A malformed knob string or out-of-range numeric field is rejected
  // here, before admission. Every fan-out of the run is capped at the
  // thread knob, so `threads` is the run's whole demand.
  VX_ASSIGN_OR_RETURN(const ExecKnobs knobs, ExecKnobsFromRequest(request));

  VX_ASSIGN_OR_RETURN(AdmissionController::Ticket ticket,
                      admission_.Admit(knobs.threads, knobs.cancel));

  // The resolved context is installed for the engine dispatch, so the
  // request copy drops deadline_ms — re-deriving it after the queue wait
  // would silently grant a fresh budget.
  const ScopedExecKnobs run_scope(knobs);
  RunRequest run_request = request;
  run_request.deadline_ms = 0;

  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  WallTimer run_timer;
  const int max_attempts = std::max(1, options_.max_run_attempts);
  int attempts = 0;
  Result<RunResult> result = Status::Internal("no run attempt was made");
  for (;;) {
    ++attempts;
    // An injected transient failure ("server.run", FaultAction::kError)
    // surfaces exactly like an engine-reported Aborted — the retry loop
    // below must not be able to tell the difference.
    Status injected = FaultInjectionArmed() ? FaultPointHit("server.run")
                                            : Status::OK();
    result = injected.ok() ? engine->Run(run_request)
                           : Result<RunResult>(injected);
    if (result.ok() || !result.status().IsAborted() ||
        attempts >= max_attempts || knobs.cancel.ShouldStop()) {
      break;
    }
    retries_.fetch_add(1, std::memory_order_acq_rel);
    const double backoff =
        std::min(options_.retry_backoff_seconds * (1 << (attempts - 1)),
                 0.050);
    std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
  }
  const double run_seconds = run_timer.ElapsedSeconds();
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);

  const double queue_seconds = ticket.queue_seconds();
  const int granted = ticket.granted_threads();
  ticket.Release();

  if (result.ok()) {
    result->backend_metrics["server_queue_seconds"] = queue_seconds;
    result->backend_metrics["server_run_seconds"] = run_seconds;
    result->backend_metrics["server_granted_threads"] =
        static_cast<double>(granted);
    result->backend_metrics["server_graph_version"] =
        static_cast<double>(version);
    result->backend_metrics["server_attempts"] =
        static_cast<double>(attempts);
  }
  return result;
}

}  // namespace vertexica
