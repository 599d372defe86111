#include "catalog/catalog_io.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "common/crc32.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "storage/csv.h"

namespace vertexica {

namespace {

namespace fs = std::filesystem;

// Checkpoint format v2 (docs/DEVELOPING.md, "Fault injection & recovery"):
//
//   <root>/CURRENT            one line naming the good generation dir
//   <root>/gen-NNNNNN/        MANIFEST + one CSV per table
//   <root>/.tmp-gen-NNNNNN/   in-progress write, never read
//
// MANIFEST first line: "VERTEXICA_CHECKPOINT 2". Table lines:
//   file \t crc32:XXXXXXXX \t bytes:N \t table-name \t col:TYPE \t ...
// The unverified v1 layout (a bare MANIFEST straight in <root>, no header,
// no checksums) is no longer read.
constexpr const char* kManifestHeader = "VERTEXICA_CHECKPOINT 2";
constexpr const char* kCurrentFile = "CURRENT";
constexpr const char* kGenPrefix = "gen-";
constexpr const char* kTmpPrefix = ".tmp-";

const char* TypeToken(DataType t) { return DataTypeName(t); }

Result<DataType> TokenToType(const std::string& token) {
  if (token == "BOOL") return DataType::kBool;
  if (token == "INT64") return DataType::kInt64;
  if (token == "DOUBLE") return DataType::kDouble;
  if (token == "STRING") return DataType::kString;
  return Status::IoError("manifest: unknown type '" + token + "'");
}

/// Durability barrier on a file or directory; a no-op where POSIX fsync is
/// unavailable. Failure to sync is an error — a checkpoint that might not
/// survive power loss must not claim success.
Status FsyncPath(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open '" + path + "' for fsync");
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::IoError("fsync failed for '" + path + "'");
#else
  (void)path;
#endif
  return Status::OK();
}

Status WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::IoError("cannot write '" + path + "'");
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out.good()) return Status::IoError("write failed for '" + path + "'");
  out.close();
  return FsyncPath(path);
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IoError("cannot read '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Parses "gen-NNNNNN" into NNNNNN; nullopt for anything else.
std::optional<uint64_t> GenNumber(const std::string& name) {
  const std::string prefix = kGenPrefix;
  if (name.rfind(prefix, 0) != 0) return std::nullopt;
  const std::string digits = name.substr(prefix.size());
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  return std::strtoull(digits.c_str(), nullptr, 10);
}

std::string GenName(uint64_t n) {
  return StringFormat("%s%06llu", kGenPrefix,
                      static_cast<unsigned long long>(n));
}

/// Generation numbers present under `root`, unsorted.
std::vector<uint64_t> ListGenerations(const std::string& root) {
  std::vector<uint64_t> gens;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(root, ec)) {
    if (!entry.is_directory()) continue;
    if (auto n = GenNumber(entry.path().filename().string())) {
      gens.push_back(*n);
    }
  }
  return gens;
}

/// One table staged for installation into the caller's catalog.
struct StagedTable {
  std::string name;
  Table table;
  StagedTable(std::string n, Table t)
      : name(std::move(n)), table(std::move(t)) {}
};

/// Loads and verifies (checksums and sizes against the manifest) one
/// generation directory into `staged` without touching any catalog.
Status LoadTablesFrom(const std::string& dir,
                      std::vector<StagedTable>* staged) {
  const std::string manifest_path = dir + "/MANIFEST";
  std::error_code ec;
  if (!fs::exists(manifest_path, ec)) {
    return Status::IoError("checkpoint '" + dir + "' has no MANIFEST");
  }
  VX_ASSIGN_OR_RETURN(std::string manifest_bytes,
                      ReadFileBytes(manifest_path));
  if (Trim(manifest_bytes).empty()) {
    return Status::IoError("MANIFEST in '" + dir + "' is empty");
  }

  std::istringstream manifest(manifest_bytes);
  std::string line;
  std::getline(manifest, line);
  if (Trim(line) != kManifestHeader) {
    return Status::IoError("MANIFEST in '" + dir +
                           "' has an unsupported format header: '" +
                           Trim(line) + "' (expected '" + kManifestHeader +
                           "')");
  }

  while (std::getline(manifest, line)) {
    if (Trim(line).empty()) continue;
    const auto parts = Split(line, '\t');
    if (parts.size() < 4) {
      return Status::IoError("bad manifest line in '" + dir + "': '" + line +
                             "'");
    }

    const std::string& file = parts[0];
    if (parts[1].rfind("crc32:", 0) != 0 ||
        parts[2].rfind("bytes:", 0) != 0) {
      return Status::IoError("bad manifest line in '" + dir + "': '" + line +
                             "' (missing crc32:/bytes: fields)");
    }
    const auto expect_crc = static_cast<uint32_t>(
        std::strtoul(parts[1].substr(6).c_str(), nullptr, 16));
    const uint64_t expect_bytes =
        std::strtoull(parts[2].substr(6).c_str(), nullptr, 10);
    const std::string& name = parts[3];

    Schema schema;
    for (size_t i = 4; i < parts.size(); ++i) {
      const auto colon = parts[i].rfind(':');
      if (colon == std::string::npos) {
        return Status::IoError("bad manifest column in '" + dir + "': '" +
                               parts[i] + "'");
      }
      VX_ASSIGN_OR_RETURN(DataType type,
                          TokenToType(parts[i].substr(colon + 1)));
      schema.AddField({parts[i].substr(0, colon), type});
    }

    const std::string file_path = dir + "/" + file;
    if (!fs::exists(file_path, ec)) {
      return Status::IoError("MANIFEST names table file '" + file +
                             "' but '" + dir + "' lacks it");
    }
    VX_ASSIGN_OR_RETURN(std::string bytes, ReadFileBytes(file_path));
    if (bytes.size() != expect_bytes) {
      return Status::IoError(StringFormat(
          "table file '%s' in '%s' is torn: MANIFEST records %llu bytes, "
          "file has %llu",
          file.c_str(), dir.c_str(),
          static_cast<unsigned long long>(expect_bytes),
          static_cast<unsigned long long>(bytes.size())));
    }
    const uint32_t got_crc = Crc32(bytes);
    if (got_crc != expect_crc) {
      return Status::IoError(StringFormat(
          "checksum mismatch for '%s' in '%s': MANIFEST records "
          "crc32:%08x, file has crc32:%08x",
          file.c_str(), dir.c_str(), expect_crc, got_crc));
    }
    VX_ASSIGN_OR_RETURN(Table table, ParseCsvWithSchema(bytes, schema));
    staged->emplace_back(name, std::move(table));
  }
  return Status::OK();
}

Status InstallStaged(std::vector<StagedTable> staged, Catalog* catalog) {
  for (auto& entry : staged) {
    VX_RETURN_NOT_OK(
        catalog->ReplaceTable(entry.name, std::move(entry.table)));
  }
  return Status::OK();
}

/// Best-effort cleanup after a successful publish: drop generations older
/// than the previous one (keep current + one fallback) and any leftover
/// temp dirs. Failures only warn — the checkpoint itself is already
/// durable.
void PruneGenerations(const std::string& root, uint64_t current_gen) {
  std::error_code ec;
  std::vector<uint64_t> gens = ListGenerations(root);
  uint64_t keep_floor = 0;
  for (uint64_t g : gens) {
    if (g < current_gen && g > keep_floor) keep_floor = g;
  }
  for (uint64_t g : gens) {
    if (g >= keep_floor) continue;
    fs::remove_all(root + "/" + GenName(g), ec);
    if (ec) {
      VX_LOG(kWarn) << "checkpoint prune: cannot remove '"
                              << GenName(g) << "': " << ec.message();
    }
  }
  for (const auto& entry : fs::directory_iterator(root, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(kTmpPrefix, 0) == 0) {
      std::error_code rm_ec;
      fs::remove_all(entry.path(), rm_ec);
    }
  }
}

}  // namespace

Status SaveCatalog(const Catalog& catalog, const std::string& directory) {
  VX_FAULT_POINT("checkpoint.begin");

  std::error_code ec;
  fs::create_directories(directory, ec);
  if (ec) {
    return Status::IoError("cannot create '" + directory +
                           "': " + ec.message());
  }

  uint64_t next_gen = 1;
  for (uint64_t g : ListGenerations(directory)) {
    if (g >= next_gen) next_gen = g + 1;
  }
  const std::string gen_name = GenName(next_gen);
  const std::string tmp_dir = directory + "/" + kTmpPrefix + gen_name;
  const std::string final_dir = directory + "/" + gen_name;

  fs::remove_all(tmp_dir, ec);
  fs::create_directories(tmp_dir, ec);
  if (ec) {
    return Status::IoError("cannot create '" + tmp_dir +
                           "': " + ec.message());
  }

  // Stage every table file in the temp dir, accumulating manifest lines
  // with the CRC32/byte count of the exact bytes written.
  std::ostringstream manifest;
  manifest << kManifestHeader << '\n';
  const auto names = catalog.TableNames();
  int file_index = 0;
  for (const auto& name : names) {
    VX_ASSIGN_OR_RETURN(auto table, catalog.GetTable(name));
    const std::string file = StringFormat("t%04d.csv", file_index++);
    const std::string bytes = ToCsv(*table);
    VX_RETURN_NOT_OK(WriteFileBytes(tmp_dir + "/" + file, bytes));
    manifest << file << '\t'
             << StringFormat("crc32:%08x", Crc32(bytes)) << '\t'
             << "bytes:" << bytes.size() << '\t' << name;
    for (const auto& field : table->schema().fields()) {
      manifest << '\t' << field.name << ':' << TypeToken(field.type);
    }
    manifest << '\n';
  }
  VX_FAULT_POINT("checkpoint.after_tables");

  VX_RETURN_NOT_OK(WriteFileBytes(tmp_dir + "/MANIFEST", manifest.str()));
  VX_RETURN_NOT_OK(FsyncPath(tmp_dir));
  VX_FAULT_POINT("checkpoint.after_manifest");

  // The commit point for the generation's *content*: after this rename the
  // directory is complete and durable, but invisible to readers until
  // CURRENT flips.
  fs::rename(tmp_dir, final_dir, ec);
  if (ec) {
    return Status::IoError("cannot rename '" + tmp_dir + "' to '" +
                           final_dir + "': " + ec.message());
  }
  VX_RETURN_NOT_OK(FsyncPath(directory));
  VX_FAULT_POINT("checkpoint.after_rename");

  // The commit point for *visibility*: CURRENT is replaced via the same
  // write-temp / fsync / rename dance, so readers see either the old
  // pointer or the new one, never a torn line.
  const std::string current_tmp =
      directory + "/" + kTmpPrefix + kCurrentFile;
  VX_RETURN_NOT_OK(WriteFileBytes(current_tmp, gen_name + "\n"));
  fs::rename(current_tmp, directory + "/" + kCurrentFile, ec);
  if (ec) {
    return Status::IoError("cannot publish CURRENT in '" + directory +
                           "': " + ec.message());
  }
  VX_RETURN_NOT_OK(FsyncPath(directory));
  VX_FAULT_POINT("checkpoint.after_current");

  PruneGenerations(directory, next_gen);
  return Status::OK();
}

Status LoadCatalog(const std::string& directory, Catalog* catalog) {
  std::error_code ec;
  const std::string current_path =
      std::string(directory) + "/" + kCurrentFile;

  if (!fs::exists(current_path, ec)) {
    return Status::IoError("no checkpoint in '" + directory +
                           "' (no CURRENT pointer)");
  }

  // Candidate order: the generation CURRENT names first, then every other
  // generation newest-first — the fallback chain for a corrupted current
  // generation.
  VX_ASSIGN_OR_RETURN(std::string current_bytes,
                      ReadFileBytes(current_path));
  const std::string current_name = Trim(current_bytes);
  std::vector<std::string> candidates;
  if (GenNumber(current_name)) {
    candidates.push_back(current_name);
  }
  std::vector<uint64_t> gens = ListGenerations(directory);
  std::sort(gens.rbegin(), gens.rend());
  for (uint64_t g : gens) {
    const std::string name = GenName(g);
    if (name != current_name) candidates.push_back(name);
  }
  if (candidates.empty()) {
    return Status::IoError("CURRENT in '" + directory + "' names '" +
                           current_name +
                           "' and no generation directories exist");
  }

  Status first_error;
  for (size_t i = 0; i < candidates.size(); ++i) {
    std::vector<StagedTable> staged;
    const Status st =
        LoadTablesFrom(directory + "/" + candidates[i], &staged);
    if (st.ok()) {
      if (i > 0) {
        VX_LOG(kWarn)
            << "LoadCatalog: generation '" << candidates[0]
            << "' rejected (" << first_error.ToString()
            << "); restored fallback generation '" << candidates[i] << "'";
      }
      return InstallStaged(std::move(staged), catalog);
    }
    if (first_error.ok()) first_error = st;
  }
  return Status::IoError("no verifiable checkpoint generation in '" +
                         directory +
                         "'; newest rejected with: " + first_error.ToString());
}

}  // namespace vertexica
