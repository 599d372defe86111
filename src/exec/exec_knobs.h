/// \file exec_knobs.h
/// \brief Capture/install of the ambient execution knobs as one value.
///
/// The executor's tuning state (thread count, shard count, encoding mode,
/// frontier mode and vectorized toggle) lives in per-knob thread-locals so
/// it can be scoped per request. That design has one sharp edge: a task
/// handed to a ThreadPool worker runs on a thread whose locals are all
/// unset, so every fan-out site has to re-install each knob by hand — the
/// coordinator once did this in two places, and the serving layer would
/// have added more.
/// ExecKnobs packages the capture (on the submitting thread) and the
/// install (inside the pool task) so a knob added later has exactly one
/// place to be threaded through.

#ifndef VERTEXICA_EXEC_EXEC_KNOBS_H_
#define VERTEXICA_EXEC_EXEC_KNOBS_H_

#include "common/cancel.h"
#include "common/logging.h"
#include "exec/frontier.h"
#include "exec/kernel_stats.h"
#include "exec/parallel.h"
#include "exec/vectorized.h"
#include "storage/encoding.h"
#include "storage/partition.h"

namespace vertexica {

/// \brief A value snapshot of the ambient execution knobs (plus the run's
/// cancellation token).
///
/// Plain copyable data: capture once on the coordinating thread, then copy
/// into each pool task and install there. Also the payload of the serving
/// layer's ExecContext (api/exec_context.h), which resolves a RunRequest's
/// explicit overrides against ambient defaults into one of these.
struct ExecKnobs {
  int threads = 1;
  int shards = 1;
  EncodingMode encoding = EncodingMode::kAuto;
  FrontierMode frontier = FrontierMode::kAuto;
  bool vectorized = true;
  /// The run's cancellation/deadline token (common/cancel.h). Not a tuning
  /// knob, but it rides the same capture/install plumbing so pool tasks
  /// observe the submitting request's cancellation — a null token (the
  /// default) never fires.
  CancelToken cancel;
  /// The run's kernel-counter block (exec/kernel_stats.h); nullptr disables
  /// counting. Rides the knob plumbing so morsel workers report into the
  /// submitting run's block — safe to share across pool threads because the
  /// block is all relaxed atomics (unlike JoinPathStats, which is installed
  /// per dispatching thread only; see api/backends.cc).
  KernelStats* kernel_stats = nullptr;

  /// Resolves the calling thread's ambient knobs (thread-local override →
  /// process default → environment → fallback, per knob).
  static ExecKnobs Capture();

  bool operator==(const ExecKnobs& other) const {
    return threads == other.threads && shards == other.shards &&
           encoding == other.encoding && frontier == other.frontier &&
           vectorized == other.vectorized &&
           cancel == other.cancel && kernel_stats == other.kernel_stats;
  }
  bool operator!=(const ExecKnobs& other) const { return !(*this == other); }
};

/// \brief RAII installer: pins every captured knob (and the cancel token)
/// on the current thread for the lifetime of the scope. Use inside pool
/// tasks with a captured ExecKnobs.
///
/// After construction the thread's ambient knobs re-Capture() to exactly
/// the installed value — audited under VX_DCHECK, so a knob added to
/// ExecKnobs but not threaded through the scoped installers is caught the
/// first time any pool task runs in a debug-audit build.
class ScopedExecKnobs {
 public:
  explicit ScopedExecKnobs(const ExecKnobs& knobs)
      : threads_(knobs.threads),
        shards_(knobs.shards),
        encoding_(knobs.encoding),
        frontier_(knobs.frontier),
        vectorized_(knobs.vectorized),
        cancel_(knobs.cancel),
        kernel_stats_(knobs.kernel_stats) {
    VX_DCHECK(ExecKnobs::Capture() == knobs)
        << "ScopedExecKnobs: installed knobs do not round-trip through "
           "Capture (a knob is missing from the scoped installers?)";
  }

  ScopedExecKnobs(const ScopedExecKnobs&) = delete;
  ScopedExecKnobs& operator=(const ScopedExecKnobs&) = delete;

 private:
  ScopedExecThreads threads_;
  ScopedExecShards shards_;
  ScopedEncodingMode encoding_;
  ScopedFrontierMode frontier_;
  ScopedVectorized vectorized_;
  ScopedCancelToken cancel_;
  ScopedKernelStats kernel_stats_;
};

}  // namespace vertexica

#endif  // VERTEXICA_EXEC_EXEC_KNOBS_H_
