/// \file env_knob.h
/// \brief One validated parsing point for the VERTEXICA_* environment
/// knobs (threads, encoding, frontier, vectorized).
///
/// Before this header each knob parsed its own environment variable with
/// its own tolerance for garbage: VERTEXICA_THREADS was clamped in the
/// thread pool but unclamped in ExecThreads, and a typoed
/// VERTEXICA_ENCODING fell back to the default without a word. These helpers give every knob the same
/// contract: strict integer / token parsing, explicit ranges, and one
/// warning per variable per process when a value is rejected or clamped —
/// a misconfigured server logs what it ignored instead of silently running
/// with defaults.

#ifndef VERTEXICA_COMMON_ENV_KNOB_H_
#define VERTEXICA_COMMON_ENV_KNOB_H_

#include <cstddef>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

namespace vertexica {

/// \brief Strictly parses `text` as a decimal integer (optional sign,
/// surrounding whitespace allowed, no trailing junk). Returns nullopt for
/// garbage; out-of-range values are clamped to [min_value, max_value] with
/// `clamped` (when non-null) set so callers can report it.
std::optional<long> ParseKnobInt(const char* text, long min_value,
                                 long max_value, bool* clamped = nullptr);

/// \brief Reads environment variable `name` as an integer knob.
///
/// Unset (or empty) returns `fallback` silently. A valid value is clamped
/// into [min_value, max_value]; clamping and outright garbage each log one
/// kWarn line per variable per process (garbage additionally falls back to
/// `fallback`).
long EnvIntKnob(const char* name, long min_value, long max_value,
                long fallback);

/// \brief One spelling a token knob accepts and the value it selects.
template <typename T>
struct KnobToken {
  const char* token;
  T value;
};

/// \brief ASCII lower-casing, the case folding every token knob uses.
std::string ToLowerAscii(const std::string& text);

/// \brief Case-insensitive lookup of `text` in a knob's vocabulary;
/// nullopt when no spelling matches. The one parser behind both a knob's
/// environment variable and its request field, so the two agree.
template <typename T, size_t N>
std::optional<T> ParseKnobToken(const std::string& text,
                                const KnobToken<T> (&vocabulary)[N]) {
  const std::string lower = ToLowerAscii(text);
  for (const KnobToken<T>& t : vocabulary) {
    if (lower == t.token) return t.value;
  }
  return std::nullopt;
}

/// \brief Logs the one kWarn line per variable per process for a value
/// outside `tokens` (EnvTokenKnob's rejection path).
void WarnUnknownKnobToken(const char* name, const char* value,
                          const std::vector<const char*>& tokens,
                          const char* fallback_token);

/// \brief Reads environment variable `name` as a token knob.
///
/// Unset (or empty) returns `fallback` silently. A value in `vocabulary`
/// (case-insensitively) returns its value; anything else logs one kWarn
/// line per variable per process and returns `fallback`.
template <typename T, size_t N>
T EnvTokenKnob(const char* name, const KnobToken<T> (&vocabulary)[N],
               T fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0') return fallback;
  if (std::optional<T> parsed = ParseKnobToken(value, vocabulary)) {
    return *parsed;
  }
  std::vector<const char*> tokens;
  const char* fallback_token = "";
  for (const KnobToken<T>& t : vocabulary) {
    tokens.push_back(t.token);
    if (fallback_token[0] == '\0' && t.value == fallback) {
      fallback_token = t.token;
    }
  }
  WarnUnknownKnobToken(name, value, tokens, fallback_token);
  return fallback;
}

/// \brief The vocabulary of the on/off knobs (VERTEXICA_VECTORIZED and
/// the request's `vectorized` field).
inline constexpr KnobToken<bool> kOnOffTokens[] = {
    {"0", false}, {"off", false}, {"false", false}, {"no", false},
    {"1", true},  {"on", true},   {"true", true},   {"yes", true}};

/// \brief Parses an on/off knob value; nullopt for an unknown token.
inline std::optional<bool> ParseOnOff(const std::string& text) {
  return ParseKnobToken(text, kOnOffTokens);
}

}  // namespace vertexica

#endif  // VERTEXICA_COMMON_ENV_KNOB_H_
