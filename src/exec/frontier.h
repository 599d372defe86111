/// \file frontier.h
/// \brief The ambient frontier-mode knob: sparse active-vertex supersteps
/// on/off/auto.
///
/// The coordinator's frontier path (vertexica/coordinator.cc) restricts
/// each superstep's worker input to the active vertices — non-halted ones
/// plus message receivers — gathered via a bitvector and CSR edge slices
/// instead of scanning the full tables. It is bit-identical to the dense
/// path by construction, so like the vectorized toggle it is a pure
/// physical-plan knob: thread-local ScopedFrontierMode override, else the
/// process default (SetDefaultFrontierMode), else the VERTEXICA_FRONTIER
/// environment variable, else auto.
///
/// - `auto`: take the frontier path when the active fraction is below the
///   coordinator's threshold (VertexicaOptions::frontier_threshold) and
///   the structural preconditions hold (id-ordered vertex table, grouped
///   edge keys).
/// - `on`: take it whenever the structural preconditions hold, regardless
///   of the active fraction (the ablation/forcing setting).
/// - `off`: always run the dense path.

#ifndef VERTEXICA_EXEC_FRONTIER_H_
#define VERTEXICA_EXEC_FRONTIER_H_

#include <optional>
#include <string>

namespace vertexica {

/// \brief Frontier-path policy, resolved per superstep by the coordinator.
enum class FrontierMode {
  kAuto,  ///< frontier when the active fraction is below the threshold
  kOn,    ///< frontier whenever structurally possible
  kOff,   ///< always dense
};

const char* FrontierModeName(FrontierMode m);

/// \brief Effective mode for the calling thread (innermost scoped override,
/// else process default, else VERTEXICA_FRONTIER env, else kAuto).
FrontierMode AmbientFrontierMode();

/// \brief Sets the process-wide default; kAuto is the unset sentinel and
/// restores automatic resolution from the environment (use
/// ScopedFrontierMode to pin kAuto over a non-auto environment).
void SetDefaultFrontierMode(FrontierMode m);

/// \brief RAII thread-local override (how RunRequest::frontier reaches the
/// coordinator).
class ScopedFrontierMode {
 public:
  explicit ScopedFrontierMode(FrontierMode m);
  ~ScopedFrontierMode();
  ScopedFrontierMode(const ScopedFrontierMode&) = delete;
  ScopedFrontierMode& operator=(const ScopedFrontierMode&) = delete;

 private:
  bool active_;
  FrontierMode prev_;
  bool prev_active_;
};

/// \brief Parses a frontier mode, case-insensitively: "off"/"0"/"false"/
/// "none", "auto", or "on"/"1"/"true"/"force". nullopt for any other
/// token. The one vocabulary of VERTEXICA_FRONTIER and
/// RunRequest::frontier.
std::optional<FrontierMode> ParseFrontierMode(const std::string& text);

}  // namespace vertexica

#endif  // VERTEXICA_EXEC_FRONTIER_H_
