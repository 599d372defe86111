#include "storage/encoding.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <unordered_map>

namespace vertexica {

std::vector<RleRun> RleEncode(const std::vector<int64_t>& values) {
  std::vector<RleRun> runs;
  for (int64_t v : values) {
    if (!runs.empty() && runs.back().value == v) {
      ++runs.back().length;
    } else {
      runs.push_back(RleRun{v, 1});
    }
  }
  return runs;
}

std::vector<int64_t> RleDecode(const std::vector<RleRun>& runs) {
  std::vector<int64_t> values;
  for (const auto& run : runs) {
    values.insert(values.end(), static_cast<size_t>(run.length), run.value);
  }
  return values;
}

int64_t DictEncoded::ByteSize() const {
  // Codes plus the dictionary: per-entry string header (the std::string
  // object itself) and the character payload. Omitting the headers made
  // wide dictionaries look free and systematically underreported the
  // footprint counters built on top of this.
  int64_t bytes = static_cast<int64_t>(codes.size() * sizeof(int32_t));
  for (const auto& s : dictionary) {
    bytes += static_cast<int64_t>(sizeof(std::string) + s.size());
  }
  return bytes;
}

DictEncoded DictionaryEncode(const std::vector<std::string>& values) {
  DictEncoded out;
  out.codes.reserve(values.size());
  // order-insensitive: keyed lookups only; dictionary entries land in
  // first-appearance order, never in map-iteration order.
  std::unordered_map<std::string, int32_t> index;
  for (const auto& v : values) {
    auto [it, inserted] =
        index.emplace(v, static_cast<int32_t>(out.dictionary.size()));
    if (inserted) out.dictionary.push_back(v);
    out.codes.push_back(it->second);
  }
  return out;
}

std::vector<std::string> DictionaryDecode(const DictEncoded& encoded) {
  std::vector<std::string> values;
  values.reserve(encoded.codes.size());
  for (int32_t code : encoded.codes) {
    values.push_back(encoded.dictionary[static_cast<size_t>(code)]);
  }
  return values;
}

const char* ColumnEncodingName(ColumnEncoding e) {
  switch (e) {
    case ColumnEncoding::kPlain:
      return "PLAIN";
    case ColumnEncoding::kRle:
      return "RLE";
    case ColumnEncoding::kDict:
      return "DICT";
  }
  return "?";
}

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

namespace {

/// Interval may-match for a totally ordered domain: could any value in
/// [min, max] (with `only` = min==max==the single value case handled by the
/// caller through min/max themselves) satisfy `x <op> lit`?
template <typename T>
bool OrderedMayMatch(CompareOp op, const T& min_v, const T& max_v,
                     const T& lit) {
  switch (op) {
    case CompareOp::kEq:
      return !(lit < min_v) && !(max_v < lit);
    case CompareOp::kNe:
      // Only prunable when every row holds exactly `lit`.
      return min_v < lit || lit < min_v || min_v < max_v || max_v < min_v;
    case CompareOp::kLt:
      return min_v < lit;
    case CompareOp::kLe:
      return !(lit < min_v);
    case CompareOp::kGt:
      return lit < max_v;
    case CompareOp::kGe:
      return !(max_v < lit);
  }
  return true;
}

}  // namespace

bool ZoneMapIndex::ZoneMayMatch(const ZoneStats& zone, CompareOp op,
                                const Value& literal) const {
  // A NULL literal never matches anything; an all-null zone has no row that
  // can satisfy any comparison (SQL: NULL <op> x is NULL, dropped by σ).
  if (literal.is_null()) return false;
  if (!zone.has_value) return false;

  switch (type_) {
    case DataType::kInt64:
      if (!literal.is_int64()) return true;  // mixed-type: not pruned
      return OrderedMayMatch(op, zone.min_i, zone.max_i,
                             literal.int64_value());
    case DataType::kBool: {
      if (!literal.is_bool()) return true;
      const int64_t lit = literal.bool_value() ? 1 : 0;
      return OrderedMayMatch(op, zone.min_i, zone.max_i, lit);
    }
    case DataType::kString:
      if (!literal.is_string()) return true;
      return OrderedMayMatch(op, zone.min_s, zone.max_s,
                             literal.string_value());
    case DataType::kDouble: {
      if (!literal.is_double()) return true;
      const double lit = literal.double_value();
      // CompareRows total order: NaN sorts after every number and compares
      // equal to itself. min_d/max_d cover the non-NaN ("finite" here
      // includes infinities) values; has_nan extends the zone's upper end.
      if (std::isnan(lit)) {
        switch (op) {
          case CompareOp::kEq:
            return zone.has_nan;
          case CompareOp::kNe:
            return zone.has_finite;
          case CompareOp::kLt:  // x < NaN ⇔ x is a number
            return zone.has_finite;
          case CompareOp::kLe:  // x <= NaN holds for every non-null x
            return zone.has_value;
          case CompareOp::kGt:  // nothing sorts after NaN
            return false;
          case CompareOp::kGe:  // x >= NaN ⇔ x is NaN
            return zone.has_nan;
        }
        return true;
      }
      switch (op) {
        case CompareOp::kEq:
          return zone.has_finite && zone.min_d <= lit && lit <= zone.max_d;
        case CompareOp::kNe:
          // Prunable only when every non-null row equals `lit` exactly.
          return zone.has_nan ||
                 (zone.has_finite &&
                  !(zone.min_d == lit && zone.max_d == lit));
        case CompareOp::kLt:
          return zone.has_finite && zone.min_d < lit;
        case CompareOp::kLe:
          return zone.has_finite && zone.min_d <= lit;
        case CompareOp::kGt:
          return zone.has_nan || (zone.has_finite && zone.max_d > lit);
        case CompareOp::kGe:
          return zone.has_nan || (zone.has_finite && zone.max_d >= lit);
      }
      return true;
    }
  }
  return true;
}

bool ZoneMapIndex::RangeMayMatch(CompareOp op, const Value& literal,
                                 int64_t row_begin, int64_t row_end) const {
  if (row_begin >= row_end) return false;
  const auto first = static_cast<size_t>(row_begin / kZoneRows);
  const auto last = static_cast<size_t>((row_end - 1) / kZoneRows);
  for (size_t z = first; z <= last && z < zones_.size(); ++z) {
    if (ZoneMayMatch(zones_[z], op, literal)) return true;
  }
  return false;
}

}  // namespace vertexica
