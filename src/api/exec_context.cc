#include "api/exec_context.h"

#include "common/env_knob.h"

namespace vertexica {

namespace {

/// Parses one knob string with the knob's own parser (the vocabulary its
/// environment variable uses); an unknown token names the field.
template <typename T>
Status ParseField(const char* field, const std::string& text,
                  std::optional<T> (*parse)(const std::string&), T* out) {
  if (text.empty()) return Status::OK();
  const std::optional<T> parsed = parse(text);
  if (!parsed.has_value()) {
    return Status::InvalidArgument(std::string("RunRequest::") + field +
                                   ": unknown value '" + text + "'");
  }
  *out = *parsed;
  return Status::OK();
}

}  // namespace

Result<ExecContext> ExecContext::FromRequest(const RunRequest& request) {
  ExecContext ctx;
  ctx.knobs = ExecKnobs::Capture();
  if (request.threads > 0) ctx.knobs.threads = request.threads;
  if (request.shards > 0) ctx.knobs.shards = request.shards;
  VX_RETURN_NOT_OK(ParseField("encoding", request.encoding,
                              &ParseEncodingMode, &ctx.knobs.encoding));
  VX_RETURN_NOT_OK(ParseField("frontier", request.frontier,
                              &ParseFrontierMode, &ctx.knobs.frontier));
  VX_RETURN_NOT_OK(ParseField("vectorized", request.vectorized, &ParseOnOff,
                              &ctx.knobs.vectorized));
  if (request.deadline_ms > 0) {
    // Derive rather than replace: the child token enforces the request
    // deadline while still observing an ambient (e.g. session-level)
    // cancellation installed by the serving layer.
    ctx.knobs.cancel =
        ctx.knobs.cancel.WithDeadlineAfter(request.deadline_ms / 1e3);
  }
  // Resolution audit: the contract above — "installing it on any thread
  // reproduces the configuration" — needs strictly positive counts, since
  // the scoped installers treat <= 0 as a no-op scope and would silently
  // fall through to that thread's ambient values instead.
  VX_DCHECK(ctx.knobs.threads >= 1 && ctx.knobs.shards >= 1)
      << "ExecContext resolved non-installable knobs: threads="
      << ctx.knobs.threads << " shards=" << ctx.knobs.shards;
  return ctx;
}

}  // namespace vertexica
