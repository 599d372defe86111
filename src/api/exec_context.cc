#include "api/exec_context.h"

#include <cmath>

#include "common/env_knob.h"

namespace vertexica {

namespace {

Status InvalidField(const char* field, const std::string& what) {
  return Status::InvalidArgument(std::string("RunRequest::") + field + ": " +
                                 what);
}

/// Parses one knob string with the knob's own parser (the vocabulary its
/// environment variable uses); an unknown token names the field.
template <typename T>
Status ParseField(const char* field, const std::string& text,
                  std::optional<T> (*parse)(const std::string&), T* out) {
  if (text.empty()) return Status::OK();
  const std::optional<T> parsed = parse(text);
  if (!parsed.has_value()) {
    return InvalidField(field, "unknown value '" + text + "'");
  }
  *out = *parsed;
  return Status::OK();
}

/// A count field: 0 keeps the current value, a negative one is rejected.
Status CountField(const char* field, int value, int* out) {
  if (value < 0) {
    return InvalidField(field, "must be >= 0, got " + std::to_string(value));
  }
  if (value > 0) *out = value;
  return Status::OK();
}

}  // namespace

Result<ExecKnobs> ExecKnobsFromRequest(const RunRequest& request) {
  ExecKnobs knobs = ExecKnobs::Current();
  VX_RETURN_NOT_OK(CountField("threads", request.threads, &knobs.threads));
  VX_RETURN_NOT_OK(ParseField("encoding", request.encoding,
                              &ParseEncodingMode, &knobs.encoding));
  VX_RETURN_NOT_OK(ParseField("frontier", request.frontier,
                              &ParseFrontierMode, &knobs.frontier));
  VX_RETURN_NOT_OK(ParseField("vectorized", request.vectorized, &ParseOnOff,
                              &knobs.vectorized));
  if (std::isnan(request.deadline_ms) || request.deadline_ms < 0) {
    return InvalidField("deadline_ms", "must be >= 0, got " +
                                           std::to_string(request.deadline_ms));
  }
  if (request.deadline_ms > 0) {
    // Derive rather than replace: the child token enforces the request
    // deadline while still observing the current (e.g. session-level)
    // cancellation installed by the serving layer.
    knobs.cancel = knobs.cancel.WithDeadlineAfter(request.deadline_ms / 1e3);
  }
  return knobs;
}

}  // namespace vertexica
