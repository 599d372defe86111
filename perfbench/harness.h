/// \file harness.h
/// \brief The benchmark's own logic, kept apart from the workloads so that
/// selftest.cc can check it: the percentile rule, ratios with their bases,
/// failure counting, the correctness gate, span tracing with self times, and
/// the result line.

#ifndef VERTEXICA_PERFBENCH_HARNESS_H_
#define VERTEXICA_PERFBENCH_HARNESS_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in the process.
inline double Now() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

/// The middle value (mean of the two middle values for an even count); 0
/// for no samples.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// A nearest-rank percentile and whether the samples support it.
struct Percentile {
  bool supported = false;
  double value = 0.0;   ///< the ceil(q·n)-th smallest sample
  int64_t beyond = 0;   ///< samples ranked above it
};

/// The percentile rule: a percentile is reported only when at least
/// `min_beyond` samples lie beyond it, so a p90 needs 100 samples.
inline Percentile PercentileWithSupport(std::vector<double> v, double q,
                                        int64_t min_beyond = 10) {
  Percentile p;
  const int64_t n = static_cast<int64_t>(v.size());
  if (n == 0) return p;
  std::sort(v.begin(), v.end());
  int64_t rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::min<int64_t>(std::max<int64_t>(rank, 1), n);
  p.value = v[static_cast<size_t>(rank - 1)];
  p.beyond = n - rank;
  p.supported = p.beyond >= min_beyond;
  return p;
}

/// A ratio reported together with its base; an empty base reads as 0.
struct Ratio {
  double num = 0.0;
  double base = 0.0;
  double value() const { return base > 0.0 ? num / base : 0.0; }
};

/// Attempted and failed operations of one workload; safe to share between
/// client threads.
class OpCounter {
 public:
  /// Counts one operation; `ok` is false for an error status or a result
  /// the gate rejected.
  void Record(bool ok) {
    attempted_.fetch_add(1, std::memory_order_relaxed);
    if (!ok) failed_.fetch_add(1, std::memory_order_relaxed);
  }
  int64_t attempted() const {
    return attempted_.load(std::memory_order_relaxed);
  }
  int64_t failed() const { return failed_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> attempted_{0};
  std::atomic<int64_t> failed_{0};
};

/// \name Correctness gate
/// Both return false and describe the first mismatch in `why`.
/// @{

/// Every value within `abs_tol` of the reference (PageRank).
inline bool WithinTolerance(const std::vector<double>& got,
                            const std::vector<double>& want, double abs_tol,
                            std::string* why) {
  if (got.size() != want.size()) {
    *why = "size " + std::to_string(got.size()) + " != " +
           std::to_string(want.size());
    return false;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (!(std::fabs(got[i] - want[i]) <= abs_tol)) {
      *why = "vertex " + std::to_string(i) + ": " + std::to_string(got[i]) +
             " vs " + std::to_string(want[i]);
      return false;
    }
  }
  return true;
}

/// Every value equal to the reference, +inf included (SSSP distances).
inline bool ExactlyEqual(const std::vector<double>& got,
                         const std::vector<double>& want, std::string* why) {
  if (got.size() != want.size()) {
    *why = "size " + std::to_string(got.size()) + " != " +
           std::to_string(want.size());
    return false;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (!(got[i] == want[i])) {
      *why = "vertex " + std::to_string(i) + ": " + std::to_string(got[i]) +
             " vs " + std::to_string(want[i]);
      return false;
    }
  }
  return true;
}
/// @}

/// One traced interval around a call the harness makes.
struct Span {
  std::string name;
  int64_t id = 0;
  int64_t parent = -1;   ///< -1 for a root span
  int64_t request = -1;  ///< request id shared by the spans of one request
  double start = 0.0;
  double end = 0.0;
  std::map<std::string, double> attrs;  ///< phase seconds, backend metrics
};

/// Spans kept in memory and written out when the benchmark ends. A disabled
/// tracer records nothing, so the untraced windows pay one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id, or -1 when disabled.
  int64_t Begin(const std::string& name, int64_t parent, int64_t request) {
    if (!enabled_) return -1;
    const double t = Now();
    std::lock_guard<std::mutex> lock(mutex_);
    Span s;
    s.name = name;
    s.id = static_cast<int64_t>(spans_.size());
    s.parent = parent;
    s.request = request;
    s.start = t;
    s.end = t;
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  void End(int64_t id, std::map<std::string, double> attrs = {}) {
    if (id < 0) return;
    const double t = Now();
    std::lock_guard<std::mutex> lock(mutex_);
    Span& s = spans_[static_cast<size_t>(id)];
    s.end = t;
    for (auto& [k, v] : attrs) s.attrs[k] = v;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  const bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // indexed by span id
};

/// Self time of every span (indexed by id): its duration minus the part of
/// its interval that its children cover.
inline std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].push_back({s.start, s.end});
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cursor = spans[i].start;
    for (auto [b, e] : iv) {
      b = std::max(b, cursor);
      e = std::min(e, spans[i].end);
      if (e > b) {
        covered += e - b;
        cursor = e;
      }
    }
    self[i] = (spans[i].end - spans[i].start) - covered;
  }
  return self;
}

/// Writes the spans as one JSON array; returns false on an I/O error.
inline bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<double> self = SelfTimes(spans);
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%lld,\"parent\":%lld,\"request\":%lld,"
                 "\"start\":%.9f,\"end\":%.9f,\"self\":%.9f,\"attrs\":{",
                 s.name.c_str(), static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request), s.start, s.end, self[i]);
    bool first = true;
    for (const auto& [k, v] : s.attrs) {
      std::fprintf(f, "%s\"%s\":%.17g", first ? "" : ",", k.c_str(),
                   std::isfinite(v) ? v : 0.0);
      first = false;
    }
    std::fprintf(f, "}}%s\n", i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: one JSON object with exactly correct, attempted, failed
/// and metrics. A non-finite value makes the run incorrect (JSON has no
/// spelling for it) and is printed as 0.
inline std::string ResultLine(bool correct, int64_t attempted, int64_t failed,
                              const std::vector<Metric>& metrics) {
  std::string body;
  char buf[128];
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) correct = false;
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (!body.empty()) body += ", ";
    body += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
         body + "}}";
}

}  // namespace perfbench

#endif  // VERTEXICA_PERFBENCH_HARNESS_H_
