/// \file encoding.h
/// \brief Column segment encodings (RLE, dictionary) and per-segment zone
/// maps.
///
/// Vertexica "sits on top of an industry strength column-oriented database
/// system"; RLE and dictionary encoding are the two workhorse encodings of
/// such systems (the sorted edge table's source ids RLE-compress; the §4
/// metadata's low-cardinality and zipfian attributes dictionary-compress).
/// This header holds the storage-layer primitives shared by `Column` (which
/// stores encoded segments), `compression.{h,cc}` (footprint accounting)
/// and the exec layer (zone-map scan pruning). It deliberately depends only
/// on Value/DataType (and the EncodingMode enum of common/exec_knobs.h) so
/// Column can include it without cycles. The encoding policy knob is
/// `ExecKnobs::encoding`: the storage-owning layers (graph tables,
/// coordinator) consult it before encoding.

#ifndef VERTEXICA_STORAGE_ENCODING_H_
#define VERTEXICA_STORAGE_ENCODING_H_

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/exec_knobs.h"
#include "storage/data_type.h"
#include "storage/value.h"

namespace vertexica {

/// \brief One RLE run: `length` repetitions of `value`.
struct RleRun {
  int64_t value;
  int64_t length;
};

/// \brief Run-length encodes an int64 sequence.
std::vector<RleRun> RleEncode(const std::vector<int64_t>& values);

/// \brief Inverse of RleEncode.
std::vector<int64_t> RleDecode(const std::vector<RleRun>& runs);

/// \brief Dictionary-encoded string vector: distinct values (in first-
/// appearance order) plus one code per row.
struct DictEncoded {
  std::vector<std::string> dictionary;
  std::vector<int32_t> codes;

  /// \brief Approximate encoded footprint in bytes: codes, dictionary
  /// characters, and a `sizeof(std::string)` header per dictionary entry.
  int64_t ByteSize() const;
};

/// \brief Dictionary-encodes a string sequence.
DictEncoded DictionaryEncode(const std::vector<std::string>& values);

/// \brief Inverse of DictionaryEncode.
std::vector<std::string> DictionaryDecode(const DictEncoded& encoded);

/// \brief Physical representation of a column's value vector.
enum class ColumnEncoding {
  kPlain,  ///< decoded typed vector
  kRle,    ///< run-length (INT64, BOOL)
  kDict,   ///< dictionary (STRING)
};

const char* ColumnEncodingName(ColumnEncoding e);

/// \name Zone maps
///
/// Per-column min/max/null-count statistics over fixed-size row ranges
/// ("zones"). A scan consults them to prove that no row of a morsel can
/// satisfy a pushed-down comparison predicate and skips the morsel without
/// touching (or decoding) its values. The may-match logic is deliberately
/// conservative and mirrors `Column::CompareRows` semantics exactly —
/// including the double total order in which NaN sorts after every number
/// and compares equal to itself — so pruning can never change results.
/// @{

/// \brief Rows per zone. Fixed (not derived from morsel size or thread
/// count) so zone boundaries are reproducible; a morsel check combines the
/// zones overlapping its row range.
inline constexpr int64_t kZoneRows = 4096;

/// \brief Comparison operators a zone map understands (the pushdown subset
/// of BinaryOp, restated here so storage does not depend on expr/).
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CompareOpName(CompareOp op);

/// \brief Statistics of one zone (rows [row_begin, row_end)).
struct ZoneStats {
  int64_t row_begin = 0;
  int64_t row_end = 0;
  int64_t null_count = 0;
  bool has_value = false;  ///< any non-null row
  /// kDouble only: any non-null NaN (NaN is excluded from min_d/max_d and
  /// sorts after every number in the CompareRows total order).
  bool has_nan = false;
  bool has_finite = false;  ///< kDouble: any non-null non-NaN row
  int64_t min_i = 0;        ///< kInt64 / kBool (0 or 1)
  int64_t max_i = 0;
  double min_d = 0.0;  ///< kDouble, over non-NaN values
  double max_d = 0.0;
  std::string min_s;  ///< kString
  std::string max_s;
};

/// \brief A column's zone map: one ZoneStats per kZoneRows rows.
class ZoneMapIndex {
 public:
  ZoneMapIndex(DataType type, std::vector<ZoneStats> zones)
      : type_(type), zones_(std::move(zones)) {}

  DataType type() const { return type_; }
  const std::vector<ZoneStats>& zones() const { return zones_; }

  /// \brief Could any row of `zone` satisfy `value_at_row <op> literal`?
  /// NULL rows never satisfy a comparison (SQL), so an all-null zone is
  /// always prunable. Returns true (may match) whenever the literal's type
  /// does not exactly match the column type — mixed-type comparisons are
  /// not pruned.
  bool ZoneMayMatch(const ZoneStats& zone, CompareOp op,
                    const Value& literal) const;

  /// \brief Conservative check over rows [row_begin, row_end): false only
  /// when *no* zone overlapping the range may match.
  bool RangeMayMatch(CompareOp op, const Value& literal, int64_t row_begin,
                     int64_t row_end) const;

 private:
  DataType type_;
  std::vector<ZoneStats> zones_;
};

/// \brief One pushed-down comparison `column <op> literal`, the unit the
/// scan layer prunes with (extracted from expression trees by
/// `ExtractPushdownPredicates` in exec/filter.h).
struct ColumnPredicate {
  std::string column;
  CompareOp op;
  Value literal;
};
/// @}

/// \brief The storage total order for doubles: NaN sorts after every number
/// and compares equal to itself (a strict weak order, unlike raw `<`).
/// The single definition shared by Column::CompareRows, the filter kernels
/// and the zone-map logic — these three must agree exactly or pruning
/// could change results.
inline int TotalOrderCompareDoubles(double a, double b) {
  const bool an = std::isnan(a);
  const bool bn = std::isnan(b);
  if (an || bn) return an == bn ? 0 : (an ? 1 : -1);
  return a < b ? -1 : (a > b ? 1 : 0);
}

}  // namespace vertexica

#endif  // VERTEXICA_STORAGE_ENCODING_H_
