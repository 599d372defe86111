/// \file exec_context.h
/// \brief Resolves a RunRequest into the request context its run executes
/// under.
///
/// `ExecKnobsFromRequest` resolves the request's overrides against the
/// calling thread's context *once*, producing a plain ExecKnobs value
/// (common/exec_knobs.h) that can be inspected (admission charges its
/// `threads`), queued, and finally installed around the dispatch with
/// ScopedExecKnobs. From there the thread pool carries it into every task.

#ifndef VERTEXICA_API_EXEC_CONTEXT_H_
#define VERTEXICA_API_EXEC_CONTEXT_H_

#include "api/run_types.h"
#include "common/exec_knobs.h"
#include "common/result.h"

namespace vertexica {

/// \brief Resolves `request`'s explicit overrides (threads > 0,
/// non-empty encoding/frontier/vectorized, deadline_ms > 0) against
/// `ExecKnobs::Current()`. The result is self-contained: installing it on
/// any thread reproduces the configuration the request would have seen
/// here. A deadline is derived from the current token, so a session-level
/// cancellation still reaches the run.
///
/// InvalidArgument, naming the field, for a knob string outside its
/// vocabulary (the one its VERTEXICA_* environment variable accepts), a
/// negative `threads`, or a negative or NaN `deadline_ms`.
Result<ExecKnobs> ExecKnobsFromRequest(const RunRequest& request);

}  // namespace vertexica

#endif  // VERTEXICA_API_EXEC_CONTEXT_H_
