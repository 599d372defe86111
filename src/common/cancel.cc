#include "common/cancel.h"

#include <utility>

namespace vertexica {

CancelToken CancelToken::WithDeadlineAfter(double seconds) const {
  using Clock = std::chrono::steady_clock;
  auto state = std::make_shared<cancel_internal::CancelState>();
  const Clock::time_point now = Clock::now();
  // A deadline the clock cannot represent from now (or NaN) means no
  // deadline: converting it to ticks would overflow, which is UB. The one
  // second of margin covers the rounding of the range to double.
  const std::chrono::duration<double> room =
      std::chrono::duration<double>(Clock::time_point::max() - now) -
      std::chrono::seconds(1);
  if (seconds <= 0) {
    state->has_deadline = true;
    state->deadline = now;
  } else if (std::chrono::duration<double>(seconds) < room) {
    state->has_deadline = true;
    state->deadline = now + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
  }
  state->parent = state_;
  return CancelToken(std::move(state));
}

Status CancelToken::Check() const {
  bool expired = false;
  for (const cancel_internal::CancelState* s = state_.get(); s != nullptr;
       s = s->parent.get()) {
    if (s->cancelled.load(std::memory_order_acquire)) {
      return Status::Cancelled("run cancelled");
    }
    if (s->has_deadline && std::chrono::steady_clock::now() >= s->deadline) {
      expired = true;  // keep walking: an ancestor's Cancel() wins
    }
  }
  if (expired) return Status::DeadlineExceeded("run deadline exceeded");
  return Status::OK();
}

bool CancelToken::deadline(
    std::chrono::steady_clock::time_point* out) const {
  bool found = false;
  for (const cancel_internal::CancelState* s = state_.get(); s != nullptr;
       s = s->parent.get()) {
    if (s->has_deadline && (!found || s->deadline < *out)) {
      *out = s->deadline;
      found = true;
    }
  }
  return found;
}

}  // namespace vertexica
