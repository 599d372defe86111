/// \file exec_context.h
/// \brief Per-request execution context: the resolved knob set one run
/// carries, replacing ambient thread-local installation at the API layer.
///
/// Historically `RegistryBackend::Run` installed each RunRequest knob as a
/// separate thread-local scope and every layer re-resolved the ambient
/// value on demand. That works for one run at a time but leaves "what is
/// this run's configuration?" implicit — nothing a server can inspect for
/// admission control, log per request, or hand to a remote worker
/// (ROADMAP #2). ExecContext makes it explicit: `FromRequest` resolves the
/// request's overrides against the ambient defaults *once*, producing a
/// plain value (an ExecKnobs) that can be inspected, queued, shipped, and
/// finally installed around the dispatch via `Scope`.

#ifndef VERTEXICA_API_EXEC_CONTEXT_H_
#define VERTEXICA_API_EXEC_CONTEXT_H_

#include "api/run_types.h"
#include "common/result.h"
#include "exec/exec_knobs.h"

namespace vertexica {

/// \brief The fully-resolved execution configuration of one run.
struct ExecContext {
  ExecKnobs knobs;

  /// \brief Resolves `request`'s explicit overrides (threads/shards > 0,
  /// non-empty encoding/frontier/vectorized) against the calling thread's
  /// ambient defaults. The result is self-contained: installing it on any
  /// thread reproduces the configuration the request would have seen here.
  /// A knob string outside its vocabulary (the same one its VERTEXICA_*
  /// environment variable accepts) is InvalidArgument naming the field.
  static Result<ExecContext> FromRequest(const RunRequest& request);

  /// \brief Worker threads this run will occupy at peak — what admission
  /// control charges against the global pool budget. The coordinator caps
  /// shard fan-out at the thread knob, so shards never raise the demand.
  int DemandThreads() const { return knobs.threads; }

  /// \brief RAII: installs the context on the current thread for the
  /// lifetime of the scope (the ExecKnobs installer, named for call sites
  /// that think in terms of contexts rather than knobs).
  using Scope = ScopedExecKnobs;
};

}  // namespace vertexica

#endif  // VERTEXICA_API_EXEC_CONTEXT_H_
