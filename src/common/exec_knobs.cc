#include "common/exec_knobs.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <mutex>
#include <thread>

#include "common/env_knob.h"
#include "common/threadpool.h"

namespace vertexica {

namespace {

constexpr KnobToken<EncodingMode> kEncodingTokens[] = {
    {"off", EncodingMode::kOff},    {"0", EncodingMode::kOff},
    {"false", EncodingMode::kOff},  {"none", EncodingMode::kOff},
    {"auto", EncodingMode::kAuto},  {"on", EncodingMode::kAuto},
    {"1", EncodingMode::kAuto},     {"true", EncodingMode::kAuto},
    {"force", EncodingMode::kForce}};

constexpr KnobToken<FrontierMode> kFrontierTokens[] = {
    {"off", FrontierMode::kOff},   {"0", FrontierMode::kOff},
    {"false", FrontierMode::kOff}, {"none", FrontierMode::kOff},
    {"auto", FrontierMode::kAuto}, {"on", FrontierMode::kOn},
    {"1", FrontierMode::kOn},      {"true", FrontierMode::kOn},
    {"force", FrontierMode::kOn}};

/// The context slot: the innermost installed snapshot, or nullptr.
thread_local const ExecKnobs* tl_knobs = nullptr;

/// The environment's defaults, read once. A rejected value warns once and
/// keeps the built-in default (common/env_knob.h).
const ExecKnobs& EnvDefaults() {
  static const ExecKnobs defaults = [] {
    ExecKnobs knobs;
    const auto env_threads = static_cast<int>(EnvThreadCount());
    const auto cores = std::max(1u, std::thread::hardware_concurrency());
    knobs.threads = env_threads > 0 ? env_threads : static_cast<int>(cores);
    knobs.encoding = EnvTokenKnob("VERTEXICA_ENCODING", kEncodingTokens,
                                  EncodingMode::kAuto);
    knobs.frontier = EnvTokenKnob("VERTEXICA_FRONTIER", kFrontierTokens,
                                  FrontierMode::kAuto);
    knobs.vectorized =
        EnvTokenKnob("VERTEXICA_VECTORIZED", kOnOffTokens, true);
    return knobs;
  }();
  return defaults;
}

/// The defaults under a SetDefaultExecThreads override; nullptr when none.
std::atomic<const ExecKnobs*> g_defaults{nullptr};

}  // namespace

const char* EncodingModeName(EncodingMode m) {
  switch (m) {
    case EncodingMode::kAuto:
      return "auto";
    case EncodingMode::kOff:
      return "off";
    case EncodingMode::kForce:
      return "force";
  }
  return "?";
}

std::optional<EncodingMode> ParseEncodingMode(const std::string& text) {
  return ParseKnobToken(text, kEncodingTokens);
}

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

std::optional<FrontierMode> ParseFrontierMode(const std::string& text) {
  return ParseKnobToken(text, kFrontierTokens);
}

const ExecKnobs& ExecKnobs::Current() {
  if (tl_knobs != nullptr) return *tl_knobs;
  const ExecKnobs* defaults = g_defaults.load(std::memory_order_acquire);
  return defaults != nullptr ? *defaults : EnvDefaults();
}

int ExecThreads() { return ExecKnobs::Current().threads; }

void SetDefaultExecThreads(int n) {
  // Every published default stays alive, since another thread may still
  // hold a reference from Current(); the call is rare (process setup,
  // tests), so the list stays short.
  static std::mutex mutex;
  static auto* published = new std::deque<ExecKnobs>();
  std::lock_guard<std::mutex> lock(mutex);
  if (n <= 0) {
    g_defaults.store(nullptr, std::memory_order_release);
    return;
  }
  published->push_back(EnvDefaults());
  published->back().threads = n;
  g_defaults.store(&published->back(), std::memory_order_release);
}

ScopedExecKnobs::ScopedExecKnobs(const ExecKnobs& knobs)
    : previous_(tl_knobs) {
  tl_knobs = &knobs;
}

ScopedExecKnobs::~ScopedExecKnobs() { tl_knobs = previous_; }

}  // namespace vertexica
