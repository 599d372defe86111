/// \file bench_common.h
/// \brief Shared infrastructure for the paper-reproduction benches: dataset
/// cache, scale handling, the modeled Giraph startup constant, and a
/// paper-style results table printed after each bench binary.

#ifndef VERTEXICA_BENCH_BENCH_COMMON_H_
#define VERTEXICA_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "api/engine.h"
#include "common/logging.h"
#include "graphgen/datasets.h"
#include "graphgen/generators.h"

namespace vertexica {
namespace bench {

/// \brief Benchmark scale factor (fraction of the paper's dataset sizes).
/// Controlled by VERTEXICA_BENCH_SCALE; default 0.05 keeps the whole suite
/// in the minutes range. Use 1.0 to run paper-size graphs.
inline double Scale() {
  static const double scale = BenchScaleFromEnv();
  return scale;
}

/// \brief The paper reports ~44-47s Giraph runs on the small Twitter graph,
/// dominated by Hadoop job launch + JVM start; we model that fixed cost as
/// 45 s at scale 1.0, scaled linearly with the bench scale so its magnitude
/// relative to the (also scaled) compute stays faithful. See DESIGN.md §2.
inline double GiraphStartupMs() { return 45000.0 * Scale(); }

/// \brief Modeled per-message JVM cost of real Giraph (object allocation,
/// Writable serialization, netty RPC). Calibrated from the paper's
/// LiveJournal PageRank number: (321s - 45s startup) over 10 iterations of
/// 68.9M messages ≈ 0.4 µs per message, of which our native engine
/// measures ~0.03 µs — the modeled remainder is ~300 ns. Applied uniformly
/// (not scaled: it is a per-message constant).
inline double GiraphPerMessageNs() { return 300.0; }

/// \brief Modeled record-access latency of the 2014-era disk-backed graph
/// database (page-cache misses on random node/relationship/property
/// records). Calibrated so the Twitter PageRank ratio GraphDB/Vertexica
/// lands near the paper's 589s/10.9s ≈ 54x and GraphDB stays the slowest
/// system on both figures. One logical access ≈ 2 µs amortized
/// (mostly-warm page cache with periodic misses on spinning disks).
inline double GdbAccessLatencyNs() { return 2000.0; }

/// \brief Cached scaled dataset instances (generation is deterministic).
/// Shared pointers so the Engine facade references the cached instance
/// instead of copying LiveJournal-scale edge lists.
inline std::shared_ptr<const Graph> GetDatasetShared(DatasetId id) {
  static std::mutex mutex;
  static std::map<DatasetId, std::shared_ptr<const Graph>> cache;
  std::lock_guard<std::mutex> lock(mutex);
  auto it = cache.find(id);
  if (it == cache.end()) {
    it = cache
             .emplace(id,
                      std::make_shared<const Graph>(MakeDataset(id, Scale())))
             .first;
  }
  return it->second;
}

inline const Graph& GetDataset(DatasetId id) { return *GetDatasetShared(id); }

/// \brief Engine with dataset `id` loaded. Backends prepare lazily, so
/// e.g. the record-store bulk load is only paid by benches that actually
/// target graphdb. Only the most recent dataset's engine is kept: figure
/// benches run grouped by dataset, and retaining every prepared engine
/// (catalog tables, record stores) would accumulate across datasets. The
/// returned reference is valid until the next EngineFor with another id.
inline Engine& EngineFor(DatasetId id) {
  static std::mutex mutex;
  static std::map<DatasetId, Engine> engines;
  std::lock_guard<std::mutex> lock(mutex);
  auto it = engines.find(id);
  if (it == engines.end()) {
    engines.clear();
    it = engines.try_emplace(id).first;
    VX_CHECK_OK(it->second.LoadGraph(GetDatasetShared(id)));
  }
  return it->second;
}

/// \brief Request preloaded with the modeled-cost constants above, so every
/// figure bench states its workload once and loops over backends.
inline RunRequest MakeFigureRequest(std::string algorithm) {
  RunRequest request;
  request.algorithm = std::move(algorithm);
  request.giraph.startup_overhead_ms = GiraphStartupMs();
  request.giraph.per_message_overhead_ns = GiraphPerMessageNs();
  request.gdb_access_latency_ns = GdbAccessLatencyNs();
  return request;
}

/// \brief Series label used in the paper's figures for a backend id.
inline std::string FigureLabel(const std::string& backend) {
  if (backend == kVertexicaBackendId) return "Vertexica";
  if (backend == kSqlGraphBackendId) return "Vertexica(SQL)";
  if (backend == kGiraphBackendId) return "Giraph";
  if (backend == kGraphDbBackendId) return "GraphDatabase";
  return backend;
}

/// \brief Registers one dataset × backend benchmark grid for a Figure-2
/// style comparison, encoding the paper's policy that the graph database
/// runs only the smallest graph. Shared by bench_fig2a / bench_fig2b.
inline void RegisterFigureBenchmarks(
    const std::string& prefix,
    void (*fn)(benchmark::State&, DatasetId, const std::string&)) {
  Engine probe;
  for (DatasetId id : AllDatasets()) {
    for (const std::string& backend : probe.backends()) {
      // The paper: "the graph database runs only for the smallest graph".
      if (backend == kGraphDbBackendId && id != DatasetId::kTwitter) {
        continue;
      }
      const std::string name =
          prefix + "/" + DatasetName(id) + "/" + backend;
      ::benchmark::RegisterBenchmark(
          name.c_str(),
          [fn, id, backend](benchmark::State& state) {
            fn(state, id, backend);
          })
          ->UseManualTime()
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
}

/// \brief Prints the unified per-superstep phase breakdown as one JSON line
/// when VERTEXICA_BENCH_JSON is set (machine-readable bench output).
inline void MaybeDumpStatsJson(const std::string& label,
                               const RunStats& stats) {
  const char* env = std::getenv("VERTEXICA_BENCH_JSON");
  if (env == nullptr || env[0] == '\0' || env[0] == '0') return;
  std::printf("STATS_JSON %s %s\n", label.c_str(), stats.ToJson().c_str());
}

/// \brief Collects (row, column) -> value results, each with its unit
/// (seconds unless stated), and renders the same table the paper's figure
/// reports.
class FigureTable {
 public:
  explicit FigureTable(std::string title) : title_(std::move(title)) {}

  void Record(const std::string& row, const std::string& column, double value,
              const std::string& unit = "s") {
    std::lock_guard<std::mutex> lock(mutex_);
    cells_[row][column] = Cell{value, unit};
    if (std::find(columns_.begin(), columns_.end(), column) ==
        columns_.end()) {
      columns_.push_back(column);
    }
    if (std::find(rows_.begin(), rows_.end(), row) == rows_.end()) {
      rows_.push_back(row);
    }
  }

  /// \brief Minimal JSON string escaping for labels (quotes, backslashes,
  /// control characters).
  static std::string JsonEscape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char ch : s) {
      if (ch == '"' || ch == '\\') {
        out += '\\';
        out += ch;
      } else if (static_cast<unsigned char>(ch) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
        out += buf;
      } else {
        out += ch;
      }
    }
    return out;
  }

  /// \brief Writes the collected cells as a BENCH_*.json file (one object
  /// with a flat results array), so figure data is machine-readable
  /// alongside the printed table. Returns false on I/O failure.
  bool WriteJson(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"title\":\"" << JsonEscape(title_) << "\",\"scale\":" << Scale()
        << ",\"results\":[";
    bool first = true;
    for (const auto& r : rows_) {
      auto row_it = cells_.find(r);
      for (const auto& c : columns_) {
        auto cell_it = row_it->second.find(c);
        if (cell_it == row_it->second.end()) continue;
        if (!first) out << ",";
        first = false;
        out << "{\"row\":\"" << JsonEscape(r) << "\",\"column\":\""
            << JsonEscape(c) << "\",\"value\":" << cell_it->second.value
            << ",\"unit\":\"" << JsonEscape(cell_it->second.unit) << "\"}";
      }
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

  /// \brief Value recorded for (row, column), or a negative sentinel.
  double Lookup(const std::string& row, const std::string& column) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto row_it = cells_.find(row);
    if (row_it == cells_.end()) return -1.0;
    auto cell_it = row_it->second.find(column);
    return cell_it == row_it->second.end() ? -1.0 : cell_it->second.value;
  }

  void Print() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::printf("\n=== %s (scale=%.3f; seconds unless marked) ===\n",
                title_.c_str(), Scale());
    std::printf("%-14s", "Dataset");
    for (const auto& c : columns_) std::printf(" %16s", c.c_str());
    std::printf("\n");
    for (const auto& r : rows_) {
      std::printf("%-14s", r.c_str());
      for (const auto& c : columns_) {
        auto row_it = cells_.find(r);
        auto cell_it = row_it->second.find(c);
        if (cell_it == row_it->second.end()) {
          std::printf(" %16s", "n/a");
        } else if (cell_it->second.unit == "s") {
          std::printf(" %16.3f", cell_it->second.value);
        } else {
          char buf[64];
          std::snprintf(buf, sizeof(buf), "%.0f %s", cell_it->second.value,
                        cell_it->second.unit.c_str());
          std::printf(" %16s", buf);
        }
      }
      std::printf("\n");
    }
    std::printf("\n");
  }

 private:
  std::string title_;
  mutable std::mutex mutex_;
  std::vector<std::string> rows_;
  std::vector<std::string> columns_;
  struct Cell {
    double value;
    std::string unit;
  };
  std::map<std::string, std::map<std::string, Cell>> cells_;
};

}  // namespace bench
}  // namespace vertexica

#endif  // VERTEXICA_BENCH_BENCH_COMMON_H_
