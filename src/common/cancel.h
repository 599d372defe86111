/// \file cancel.h
/// \brief Cooperative cancellation and deadlines for long-running work.
///
/// Nothing in the engine blocks forever by design, but a superstep loop or
/// a morsel-parallel scan can run for minutes — and a serving layer needs
/// both a client-side stop button (`Session::Cancel`) and per-request
/// deadlines (`RunRequest::deadline_ms`). `CancelToken` is the carrier:
/// a cheap, copyable handle on shared cancellation state that work loops
/// poll at their natural boundaries (`ParallelFor` grain boundaries,
/// coordinator superstep/phase boundaries, admission queue waits).
///
/// Tokens chain: `WithDeadlineAfter` derives a child that additionally
/// enforces a deadline while still observing every ancestor's
/// cancellation, so a session-wide Cancel() reaches a run whose token was
/// narrowed with a per-request deadline.
///
/// A run's token travels in its request context (`ExecKnobs::cancel`,
/// common/exec_knobs.h), which the thread pool installs in every task.
/// Checks are wait-free loads; a default (null) token never cancels and
/// never expires.

#ifndef VERTEXICA_COMMON_CANCEL_H_
#define VERTEXICA_COMMON_CANCEL_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <string>

#include "common/status.h"

namespace vertexica {

namespace cancel_internal {

struct CancelState {
  std::atomic<bool> cancelled{false};
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};
  std::shared_ptr<CancelState> parent;
};

}  // namespace cancel_internal

/// \brief A copyable handle on shared cancellation/deadline state.
class CancelToken {
 public:
  /// A null token: never cancelled, no deadline. The default everywhere a
  /// caller does not opt into cancellation.
  CancelToken() = default;

  /// \brief A fresh, independent cancellable token.
  static CancelToken Make() {
    return CancelToken(std::make_shared<cancel_internal::CancelState>());
  }

  /// \brief Derives a child enforcing `seconds` from now in addition to
  /// this token's (and its ancestors') cancellation and deadlines. Works
  /// on a null token too — the child then only carries the deadline.
  /// `seconds` <= 0 is already expired; a deadline beyond the clock's
  /// range (+inf, NaN) adds none.
  CancelToken WithDeadlineAfter(double seconds) const;

  /// \brief Requests cancellation; every copy and child observes it.
  /// No-op on a null token.
  void Cancel() const {
    if (state_ != nullptr) {
      state_->cancelled.store(true, std::memory_order_release);
    }
  }

  /// \brief True when cancelled or past any deadline in the chain.
  bool ShouldStop() const { return !Check().ok(); }

  /// \brief OK, or the Status work loops propagate: `Cancelled` when
  /// cancellation was requested, `DeadlineExceeded` when a deadline in the
  /// chain has passed. Cancellation wins when both hold.
  Status Check() const;

  /// \brief The tightest deadline in the chain, if any (for queue waits
  /// that need a wait_until time point).
  bool deadline(std::chrono::steady_clock::time_point* out) const;

  /// \brief True for tokens that can never fire (the default state).
  bool null() const { return state_ == nullptr; }

  /// Identity comparison: two tokens are equal when they share state.
  bool operator==(const CancelToken& other) const {
    return state_ == other.state_;
  }
  bool operator!=(const CancelToken& other) const {
    return !(*this == other);
  }

 private:
  explicit CancelToken(std::shared_ptr<cancel_internal::CancelState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<cancel_internal::CancelState> state_;
};

}  // namespace vertexica

#endif  // VERTEXICA_COMMON_CANCEL_H_
