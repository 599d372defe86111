/// \file compression.h
/// \brief Column footprint accounting over the segment encodings.
///
/// The encodings themselves (RleRun, DictEncoded, ColumnEncoding, zone
/// maps) live in storage/encoding.h and are first-class column
/// representations via `Column::Encode()`. This header
/// keeps the byte-accounting helpers used by the coordinator's
/// SuperstepStats counters, benches and tests. All sizes include the
/// validity bitmap when one is materialized and a `sizeof(std::string)`
/// header per string — omitting those systematically underreported
/// footprints.

#ifndef VERTEXICA_STORAGE_COMPRESSION_H_
#define VERTEXICA_STORAGE_COMPRESSION_H_

#include <cstdint>

#include "storage/column.h"
#include "storage/encoding.h"

namespace vertexica {

/// \brief Plain (decoded) footprint of a column in bytes: typed values,
/// string headers + characters, and the validity bitmap when present.
int64_t UncompressedByteSize(const Column& column);

/// \brief Best-effort compressed footprint: RLE for INT64/BOOL columns,
/// dictionary for STRING columns, raw for DOUBLE; plus validity. This is
/// the hypothetical "what would encoding save" number and does not depend
/// on the column's current representation.
int64_t CompressedByteSize(const Column& column);

/// \brief Actual footprint of the column's *current* representation:
/// encoded bytes (runs / dictionary + codes) when encoded, plain bytes
/// otherwise; plus validity either way.
int64_t EncodedByteSize(const Column& column);

}  // namespace vertexica

#endif  // VERTEXICA_STORAGE_COMPRESSION_H_
