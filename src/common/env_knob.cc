#include "common/env_knob.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <set>

#include "common/logging.h"

namespace vertexica {

namespace {

/// Returns true the first time it is called for `name` (so each knob logs
/// at most one rejection per process, however often it is re-read).
bool FirstWarningFor(const std::string& name) {
  static std::mutex mutex;
  static std::set<std::string>* warned = new std::set<std::string>();
  std::lock_guard<std::mutex> lock(mutex);
  return warned->insert(name).second;
}

bool IsBlank(const char* text) {
  for (const char* p = text; *p != '\0'; ++p) {
    if (!std::isspace(static_cast<unsigned char>(*p))) return false;
  }
  return true;
}

}  // namespace

std::string ToLowerAscii(const std::string& text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::optional<long> ParseKnobInt(const char* text, long min_value,
                                 long max_value, bool* clamped) {
  if (clamped != nullptr) *clamped = false;
  if (text == nullptr || IsBlank(text)) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(text, &end, 10);
  if (end == text) return std::nullopt;  // no digits at all
  while (*end != '\0' && std::isspace(static_cast<unsigned char>(*end))) {
    ++end;
  }
  if (*end != '\0') return std::nullopt;  // trailing junk ("8abc")
  if (errno == ERANGE || parsed < min_value || parsed > max_value) {
    if (clamped != nullptr) *clamped = true;
    return std::min(std::max(parsed, min_value), max_value);
  }
  return parsed;
}

long EnvIntKnob(const char* name, long min_value, long max_value,
                long fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0') return fallback;
  bool clamped = false;
  const std::optional<long> parsed =
      ParseKnobInt(value, min_value, max_value, &clamped);
  if (!parsed.has_value()) {
    if (FirstWarningFor(name)) {
      VX_LOG(kWarn) << name << "='" << value
                    << "' is not an integer; using default " << fallback;
    }
    return fallback;
  }
  if (clamped && FirstWarningFor(name)) {
    VX_LOG(kWarn) << name << "='" << value << "' outside [" << min_value
                  << ", " << max_value << "]; clamped to " << *parsed;
  }
  return *parsed;
}

void WarnUnknownKnobToken(const char* name, const char* value,
                          const std::vector<const char*>& tokens,
                          const char* fallback_token) {
  if (!FirstWarningFor(name)) return;
  std::string list;
  for (const char* token : tokens) {
    if (!list.empty()) list += "|";
    list += token;
  }
  VX_LOG(kWarn) << name << "='" << value << "' not one of {" << list
                << "}; using default '" << fallback_token << "'";
}

}  // namespace vertexica
