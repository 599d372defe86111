/// \file catalog_io.h
/// \brief Catalog persistence: crash-atomic checkpoint and verified
/// recovery.
///
/// §1 lists "transactions, checkpointing and recovery, fault tolerance,
/// durability" among the relational features users are reluctant to
/// forego. This module provides the checkpoint/recover pair with the
/// crash-atomicity those words imply (checkpoint format v2; see
/// docs/DEVELOPING.md, "Fault injection & recovery"):
///
///  - `SaveCatalog` writes one CSV per table plus a MANIFEST (per-file
///    CRC32 and byte counts, format version header) into a temp
///    directory, fsyncs everything, atomically renames it into place as a
///    new numbered *generation*, and only then swaps the `CURRENT`
///    pointer file. A crash — real or injected via the
///    `checkpoint.*` fault points (common/fault_injection.h) — at any
///    moment leaves either the previous generation or the new one fully
///    intact, never a torn mixture.
///  - `LoadCatalog` follows `CURRENT`, verifies every file against the
///    MANIFEST's checksums and sizes, rejects torn or partial generations
///    with precise diagnostics, and falls back to the newest older
///    generation that verifies. The unverified pre-v2 layout (a bare
///    MANIFEST, no checksums) is rejected with `IoError`.
///
/// Types come from the manifest, not from CSV inference, so restores are
/// lossless.

#ifndef VERTEXICA_CATALOG_CATALOG_IO_H_
#define VERTEXICA_CATALOG_CATALOG_IO_H_

#include <string>

#include "catalog/catalog.h"
#include "common/status.h"

namespace vertexica {

/// \brief Writes every table of `catalog` into a new checkpoint generation
/// under `directory` (created if missing) and atomically publishes it via
/// the `CURRENT` pointer. The two newest generations are retained; older
/// ones are pruned.
Status SaveCatalog(const Catalog& catalog, const std::string& directory);

/// \brief Restores the newest verifiable checkpoint generation under
/// `directory` into `catalog` (existing tables with the same names are
/// replaced; on any error `catalog` is left untouched).
Status LoadCatalog(const std::string& directory, Catalog* catalog);

}  // namespace vertexica

#endif  // VERTEXICA_CATALOG_CATALOG_IO_H_
