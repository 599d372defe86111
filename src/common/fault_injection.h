/// \file fault_injection.h
/// \brief Deterministic fault injection: named sites, armed on demand.
///
/// Failure paths that are never exercised do not work. This registry lets
/// the durability layer place named fault points at the moments that
/// matter — checkpoint phase boundaries, catalog IO, admission, the
/// superstep's message exchange — and lets a test (or the `VERTEXICA_FAULTS` environment knob)
/// arm any of them to fire on a *specific* hit, deterministically, so
/// every failure scenario is reproducible bit-for-bit.
///
/// A site is one line:
///
///     VX_FAULT_POINT("checkpoint.after_manifest");
///
/// Disarmed (the default, and the only state production ever sees) the
/// macro is a single branch on a relaxed atomic flag — no registry lookup,
/// no allocation, no measurable overhead. Armed, the Nth hit of the named
/// site either returns an injected `Status::Aborted` (which propagates
/// through the normal error path, modeling a transient failure) or
/// terminates the process immediately via `std::_Exit` (no destructors, no
/// flushing — indistinguishable from SIGKILL to everything on disk).
///
/// Arming syntax, shared by `VERTEXICA_FAULTS` and `ArmFaultsFromSpec`:
///
///     site=N[:action][,site=N[:action]...]
///
/// where `N` is the 1-based hit to fire on (`%N` instead fires on *every*
/// Nth hit — a deterministic failure rate for retry/shed benchmarks) and
/// `action` is `error` (default) or `crash`. Example:
///
///     VERTEXICA_FAULTS="checkpoint.after_manifest=1:crash,server.run=%10"
///
/// Fault-point naming: `<subsystem>.<moment>`, lower-case, dot-separated
/// (`checkpoint.after_rename`, `admission.admit`, `coordinator.superstep`).
/// The determinism lint (rule R5) requires every site named in src/ to be
/// referenced by at least one test or tooling script, so no failure path
/// ships unexercised.

#ifndef VERTEXICA_COMMON_FAULT_INJECTION_H_
#define VERTEXICA_COMMON_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace vertexica {

/// \brief What an armed fault point does when it fires.
enum class FaultAction {
  kError,  ///< return Status::Aborted("injected fault at '<site>'")
  kCrash,  ///< std::_Exit(kFaultCrashExitCode): a simulated SIGKILL
};

/// Process exit code of a `crash` action; death tests and the crash-
/// recovery smoke assert on it to distinguish an injected crash from a
/// genuine one.
inline constexpr int kFaultCrashExitCode = 113;

namespace fault_internal {
extern std::atomic<bool> g_armed;
}  // namespace fault_internal

/// \brief True when any fault point is armed — the macro's fast path.
inline bool FaultInjectionArmed() {
  return fault_internal::g_armed.load(std::memory_order_relaxed);
}

/// \brief Slow path of VX_FAULT_POINT: counts the hit and fires the site's
/// armed action if this is the configured hit. OK when the site is not
/// armed. Thread-safe; hit counts are only maintained while armed.
Status FaultPointHit(const char* site);

/// \brief Arms `site` to fire `action` on its `nth` hit (1-based).
/// Re-arming a site resets its hit count.
void ArmFault(const std::string& site, int64_t nth,
              FaultAction action = FaultAction::kError);

/// \brief Arms `site` to fire `action` on every `period`-th hit — a
/// deterministic 1/period failure rate.
void ArmFaultEvery(const std::string& site, int64_t period,
                   FaultAction action = FaultAction::kError);

/// \brief Parses and arms a `site=N[:action],...` spec (the
/// `VERTEXICA_FAULTS` syntax above). Rejects malformed specs without
/// arming anything.
Status ArmFaultsFromSpec(const std::string& spec);

/// \brief Disarms every site and clears all hit counts.
void DisarmAllFaults();

/// \brief Hits recorded for `site` since it was last armed (0 when never
/// armed). For tests asserting a site is actually reached.
int64_t FaultHits(const std::string& site);

/// \brief Currently armed site names, sorted.
std::vector<std::string> ArmedFaultSites();

}  // namespace vertexica

/// \brief Names this statement as an injectable fault site. Expands to a
/// branch on a disabled flag unless faults are armed; when the site fires
/// in `error` mode the injected Status propagates out of the enclosing
/// function (which must return Status / Result).
#define VX_FAULT_POINT(site)                                  \
  do {                                                        \
    if (::vertexica::FaultInjectionArmed()) {                 \
      VX_RETURN_NOT_OK(::vertexica::FaultPointHit(site));     \
    }                                                         \
  } while (0)

#endif  // VERTEXICA_COMMON_FAULT_INJECTION_H_
