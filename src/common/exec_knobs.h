/// \file exec_knobs.h
/// \brief The request context: one thread-local slot holding the knobs,
/// cancel token and counter block of the run the thread works for.
///
/// A request's configuration is four physical-plan knobs (threads,
/// encoding, frontier, vectorized — every one value-neutral), its
/// cancellation/deadline token and its kernel-counter block. All of it
/// travels as one plain `ExecKnobs` value in one slot:
///
///  - `ExecKnobs::Current()` reads the slot: the innermost installed
///    snapshot, else the process defaults (`SetDefaultExecThreads`, the
///    VERTEXICA_* environment variables read once, else built-ins);
///  - `ScopedExecKnobs` is the one installer. The API layer installs a
///    request's resolved knobs around the backend dispatch
///    (api/exec_context.h);
///  - `ThreadPool::ParallelFor` (common/threadpool.h) captures the
///    submitter's `Current()` and installs it in every helper task, so a
///    pool task — at any nesting depth — runs under the request that
///    submitted it. No call site re-installs anything by hand.
///
/// The slot holds a whole snapshot: a knob is changed by copying
/// `Current()`, editing the copy and installing it.

#ifndef VERTEXICA_COMMON_EXEC_KNOBS_H_
#define VERTEXICA_COMMON_EXEC_KNOBS_H_

#include <optional>
#include <string>

#include "common/cancel.h"

namespace vertexica {

struct KernelStats;  // exec/kernel_stats.h

/// \brief Column-encoding policy of the storage-owning layers (graph
/// tables, coordinator). Encode/decode never changes query results, only
/// the physical representation.
enum class EncodingMode {
  kAuto,   ///< encode a column only when the encoded footprint is smaller
  kOff,    ///< never encode (columns stay plain)
  kForce,  ///< encode every eligible column regardless of footprint
};

const char* EncodingModeName(EncodingMode m);

/// \brief Parses an encoding mode, case-insensitively: "off"/"0"/"false"/
/// "none", "auto"/"on"/"1"/"true" or "force". nullopt for any other token.
/// The one vocabulary of VERTEXICA_ENCODING and RunRequest::encoding.
std::optional<EncodingMode> ParseEncodingMode(const std::string& text);

/// \brief Frontier-path policy, resolved per superstep by the coordinator. The frontier path restricts a superstep's worker input to
/// the active vertices; it is bit-identical to the dense path.
enum class FrontierMode {
  kAuto,  ///< frontier when the active fraction is below the threshold
  kOn,    ///< frontier whenever structurally possible
  kOff,   ///< always dense
};

const char* FrontierModeName(FrontierMode m);

/// \brief Parses a frontier mode, case-insensitively: "off"/"0"/"false"/
/// "none", "auto", or "on"/"1"/"true"/"force". nullopt for any other
/// token. The one vocabulary of VERTEXICA_FRONTIER and
/// RunRequest::frontier.
std::optional<FrontierMode> ParseFrontierMode(const std::string& text);

/// \brief The execution context of one request, as plain copyable data.
struct ExecKnobs {
  /// Parallelism of every fan-out (exec kernels, worker UDFs, BSP compute
  /// threads, pipeline waves). Default: VERTEXICA_THREADS, else hardware
  /// cores.
  int threads = 1;
  /// Default: VERTEXICA_ENCODING, else auto.
  EncodingMode encoding = EncodingMode::kAuto;
  /// Default: VERTEXICA_FRONTIER, else auto.
  FrontierMode frontier = FrontierMode::kAuto;
  /// Fused selection-vector σ/π path (exec/vectorized.h) on or off.
  /// Default: VERTEXICA_VECTORIZED, else on.
  bool vectorized = true;
  /// The run's cancellation/deadline token; a null token never fires.
  CancelToken cancel;
  /// The run's kernel-counter block (relaxed atomics, shared by every pool
  /// task of the run); nullptr disables counting.
  KernelStats* kernel_stats = nullptr;

  /// \brief The calling thread's context: the innermost ScopedExecKnobs,
  /// else the process defaults. The reference stays valid until that
  /// scope ends.
  static const ExecKnobs& Current();

  bool operator==(const ExecKnobs& other) const {
    return threads == other.threads && encoding == other.encoding && frontier == other.frontier &&
           vectorized == other.vectorized && cancel == other.cancel &&
           kernel_stats == other.kernel_stats;
  }
  bool operator!=(const ExecKnobs& other) const { return !(*this == other); }
};

/// \brief `ExecKnobs::Current().threads`. Always >= 1.
int ExecThreads();

/// \brief Sets the process default thread count; n <= 0 restores
/// VERTEXICA_THREADS, else hardware cores. Installed scopes are unaffected.
void SetDefaultExecThreads(int n);

/// \brief RAII: installs `knobs` as the current thread's context for the
/// lifetime of the scope, restoring the previous one after. `knobs` is
/// referenced, not copied, so it must outlive the scope.
class ScopedExecKnobs {
 public:
  explicit ScopedExecKnobs(const ExecKnobs& knobs);
  explicit ScopedExecKnobs(const ExecKnobs&& knobs) = delete;
  ~ScopedExecKnobs();

  ScopedExecKnobs(const ScopedExecKnobs&) = delete;
  ScopedExecKnobs& operator=(const ScopedExecKnobs&) = delete;

 private:
  const ExecKnobs* previous_;
};

}  // namespace vertexica

#endif  // VERTEXICA_COMMON_EXEC_KNOBS_H_
