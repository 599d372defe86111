#include "exec/frontier.h"

#include <atomic>

#include "common/env_knob.h"

namespace vertexica {

const char* FrontierModeName(FrontierMode m) {
  switch (m) {
    case FrontierMode::kAuto:
      return "auto";
    case FrontierMode::kOn:
      return "on";
    case FrontierMode::kOff:
      return "off";
  }
  return "?";
}

namespace {

constexpr KnobToken<FrontierMode> kFrontierTokens[] = {
    {"off", FrontierMode::kOff},   {"0", FrontierMode::kOff},
    {"false", FrontierMode::kOff}, {"none", FrontierMode::kOff},
    {"auto", FrontierMode::kAuto}, {"on", FrontierMode::kOn},
    {"1", FrontierMode::kOn},      {"true", FrontierMode::kOn},
    {"force", FrontierMode::kOn}};

// -1 = unset (resolve from env); otherwise a cast FrontierMode.
std::atomic<int> g_default_frontier{-1};
thread_local bool tl_frontier_active = false;
thread_local FrontierMode tl_frontier_override = FrontierMode::kAuto;

FrontierMode EnvFrontierMode() {
  // A typoed value warns once and keeps the default (auto).
  static const FrontierMode env =
      EnvTokenKnob("VERTEXICA_FRONTIER", kFrontierTokens, FrontierMode::kAuto);
  return env;
}

}  // namespace

std::optional<FrontierMode> ParseFrontierMode(const std::string& text) {
  return ParseKnobToken(text, kFrontierTokens);
}

FrontierMode AmbientFrontierMode() {
  if (tl_frontier_active) return tl_frontier_override;
  const int configured = g_default_frontier.load(std::memory_order_relaxed);
  if (configured >= 0) return static_cast<FrontierMode>(configured);
  return EnvFrontierMode();
}

void SetDefaultFrontierMode(FrontierMode m) {
  // kAuto is the unset sentinel (like SetDefaultEncodingMode): it restores
  // resolution from the VERTEXICA_FRONTIER environment variable, whose own
  // default is kAuto anyway. Use ScopedFrontierMode to pin kAuto over a
  // non-auto environment.
  g_default_frontier.store(m == FrontierMode::kAuto ? -1 : static_cast<int>(m),
                           std::memory_order_relaxed);
}

ScopedFrontierMode::ScopedFrontierMode(FrontierMode m)
    : active_(true),
      prev_(tl_frontier_override),
      prev_active_(tl_frontier_active) {
  tl_frontier_override = m;
  tl_frontier_active = true;
}

ScopedFrontierMode::~ScopedFrontierMode() {
  if (active_) {
    tl_frontier_override = prev_;
    tl_frontier_active = prev_active_;
  }
}

}  // namespace vertexica
