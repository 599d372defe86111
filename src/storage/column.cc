#include "storage/column.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"
#include "common/string_util.h"

namespace vertexica {

Column Column::FromInts(std::vector<int64_t> v) {
  Column c(DataType::kInt64);
  c.length_ = static_cast<int64_t>(v.size());
  c.ints_ = std::move(v);
  return c;
}

Column Column::FromDoubles(std::vector<double> v) {
  Column c(DataType::kDouble);
  c.length_ = static_cast<int64_t>(v.size());
  c.doubles_ = std::move(v);
  return c;
}

Column Column::FromStrings(std::vector<std::string> v) {
  Column c(DataType::kString);
  c.length_ = static_cast<int64_t>(v.size());
  c.strings_ = std::move(v);
  return c;
}

Column Column::FromBools(std::vector<uint8_t> v) {
  Column c(DataType::kBool);
  c.length_ = static_cast<int64_t>(v.size());
  c.bools_ = std::move(v);
  return c;
}

namespace {

std::vector<int64_t> RunStartOffsets(const std::vector<RleRun>& runs) {
  std::vector<int64_t> starts;
  starts.reserve(runs.size());
  int64_t row = 0;
  for (const RleRun& run : runs) {
    starts.push_back(row);
    row += run.length;
  }
  return starts;
}

}  // namespace

Column Column::FromRleRuns(std::vector<RleRun> runs) {
  auto segment = std::make_shared<EncodedSegment>();
  segment->encoding = ColumnEncoding::kRle;
  segment->runs = std::move(runs);
  segment->run_starts = RunStartOffsets(segment->runs);
  int64_t length = 0;
  for (const RleRun& run : segment->runs) {
    VX_CHECK(run.length > 0) << "FromRleRuns: non-positive run length";
    length += run.length;
  }
  segment->length = length;
  Column c(DataType::kInt64);
  c.length_ = length;
  // Zone map straight from the runs — Encode() would skip an
  // already-encoded column before reaching its BuildZoneMap, and the
  // generic builder would decode; one pass over the runs gives the same
  // statistics with no decode (the column is fully valid by contract).
  if (length > 0) {
    std::vector<ZoneStats> zones(
        static_cast<size_t>((length + kZoneRows - 1) / kZoneRows));
    for (size_t z = 0; z < zones.size(); ++z) {
      zones[z].row_begin = static_cast<int64_t>(z) * kZoneRows;
      zones[z].row_end = std::min(zones[z].row_begin + kZoneRows, length);
    }
    int64_t row = 0;
    for (const RleRun& run : segment->runs) {
      int64_t remaining = run.length;
      while (remaining > 0) {
        ZoneStats& zone = zones[static_cast<size_t>(row / kZoneRows)];
        const int64_t take = std::min(remaining, zone.row_end - row);
        if (!zone.has_value || run.value < zone.min_i) zone.min_i = run.value;
        if (!zone.has_value || run.value > zone.max_i) zone.max_i = run.value;
        zone.has_value = true;
        row += take;
        remaining -= take;
      }
    }
    c.zone_map_ =
        std::make_shared<const ZoneMapIndex>(DataType::kInt64,
                                             std::move(zones));
  }
  c.segment_ = std::move(segment);
  return c;
}

void Column::Reserve(int64_t n) {
  const auto sn = static_cast<size_t>(n);
  switch (type_) {
    case DataType::kInt64:
      ints_.reserve(sn);
      break;
    case DataType::kDouble:
      doubles_.reserve(sn);
      break;
    case DataType::kString:
      strings_.reserve(sn);
      break;
    case DataType::kBool:
      bools_.reserve(sn);
      break;
  }
}

void Column::EnsureValidity() {
  if (validity_.empty()) {
    validity_.assign(static_cast<size_t>(length_), 1);
  }
}

// ------------------------------------------------------------ encoding state

const std::vector<int64_t>& Column::DecodedInts() const {
  const EncodedSegment& seg = *segment_;
  std::call_once(seg.decode_once,
                 [&seg] { seg.decoded_ints = RleDecode(seg.runs); });
  return seg.decoded_ints;
}

const std::vector<uint8_t>& Column::DecodedBools() const {
  const EncodedSegment& seg = *segment_;
  std::call_once(seg.decode_once, [&seg] {
    seg.decoded_bools.reserve(static_cast<size_t>(seg.length));
    for (const RleRun& run : seg.runs) {
      seg.decoded_bools.insert(seg.decoded_bools.end(),
                               static_cast<size_t>(run.length),
                               run.value != 0 ? 1 : 0);
    }
  });
  return seg.decoded_bools;
}

const std::vector<std::string>& Column::DecodedStrings() const {
  const EncodedSegment& seg = *segment_;
  std::call_once(seg.decode_once,
                 [&seg] { seg.decoded_strings = DictionaryDecode(seg.dict); });
  return seg.decoded_strings;
}

void Column::PrepareMutation() {
  if (segment_ != nullptr) Decode();
  zone_map_.reset();
}

bool Column::Encode(EncodingMode mode) {
  if (mode == EncodingMode::kOff) return false;
  if (segment_ != nullptr) return true;  // already encoded
  // One pass over the still-plain vectors: the zone map rides along for
  // free whatever the encoding decision. A cached zone map is still
  // current (mutation drops it), so don't rebuild one.
  if (zone_map_ == nullptr) BuildZoneMap();
  switch (type_) {
    case DataType::kInt64: {
      auto runs = RleEncode(ints_);
      const auto encoded_bytes =
          static_cast<int64_t>(runs.size() * sizeof(RleRun));
      const auto plain_bytes =
          static_cast<int64_t>(ints_.size() * sizeof(int64_t));
      if (mode == EncodingMode::kAuto && encoded_bytes >= plain_bytes) {
        return false;
      }
      auto segment = std::make_shared<EncodedSegment>();
      segment->encoding = ColumnEncoding::kRle;
      segment->length = length_;
      segment->runs = std::move(runs);
      segment->run_starts = RunStartOffsets(segment->runs);
      segment_ = std::move(segment);
      ints_.clear();
      ints_.shrink_to_fit();
      return true;
    }
    case DataType::kBool: {
      std::vector<int64_t> widened(bools_.begin(), bools_.end());
      auto runs = RleEncode(widened);
      const auto encoded_bytes =
          static_cast<int64_t>(runs.size() * sizeof(RleRun));
      const auto plain_bytes = static_cast<int64_t>(bools_.size());
      if (mode == EncodingMode::kAuto && encoded_bytes >= plain_bytes) {
        return false;
      }
      auto segment = std::make_shared<EncodedSegment>();
      segment->encoding = ColumnEncoding::kRle;
      segment->length = length_;
      segment->runs = std::move(runs);
      segment->run_starts = RunStartOffsets(segment->runs);
      segment_ = std::move(segment);
      bools_.clear();
      bools_.shrink_to_fit();
      return true;
    }
    case DataType::kString: {
      auto dict = DictionaryEncode(strings_);
      int64_t plain_bytes = 0;
      for (const auto& s : strings_) {
        plain_bytes += static_cast<int64_t>(sizeof(std::string) + s.size());
      }
      if (mode == EncodingMode::kAuto && dict.ByteSize() >= plain_bytes) {
        return false;
      }
      auto segment = std::make_shared<EncodedSegment>();
      segment->encoding = ColumnEncoding::kDict;
      segment->length = length_;
      segment->dict = std::move(dict);
      segment_ = std::move(segment);
      strings_.clear();
      strings_.shrink_to_fit();
      return true;
    }
    case DataType::kDouble:
      return false;  // doubles always stay plain
  }
  return false;
}

void Column::Decode() {
  if (segment_ == nullptr) return;
  switch (type_) {
    case DataType::kInt64:
      ints_ = DecodedInts();
      break;
    case DataType::kBool:
      bools_ = DecodedBools();
      break;
    case DataType::kString:
      strings_ = DecodedStrings();
      break;
    case DataType::kDouble:
      break;
  }
  segment_.reset();
}

void Column::BuildZoneMap() {
  std::vector<ZoneStats> zones;
  const auto num_zones =
      static_cast<size_t>((length_ + kZoneRows - 1) / kZoneRows);
  zones.reserve(num_zones);
  const bool typed =
      segment_ == nullptr && null_count_ == 0 &&
      (type_ == DataType::kInt64 || type_ == DataType::kDouble);
  for (size_t z = 0; z < num_zones; ++z) {
    ZoneStats stats;
    stats.row_begin = static_cast<int64_t>(z) * kZoneRows;
    stats.row_end = std::min(stats.row_begin + kZoneRows, length_);
    if (typed) {
      // Plain, NULL-free INT64/DOUBLE: the same folds as the generic loop
      // below (first value seeds, strict < and > replace), read straight
      // from the typed vector.
      const auto begin = static_cast<size_t>(stats.row_begin);
      const auto end = static_cast<size_t>(stats.row_end);
      if (type_ == DataType::kInt64) {
        stats.min_i = stats.max_i = ints_[begin];
        for (size_t i = begin + 1; i < end; ++i) {
          const int64_t v = ints_[i];
          if (v < stats.min_i) stats.min_i = v;
          if (v > stats.max_i) stats.max_i = v;
        }
      } else {
        for (size_t i = begin; i < end; ++i) {
          const double v = doubles_[i];
          if (std::isnan(v)) {
            stats.has_nan = true;
          } else {
            if (!stats.has_finite || v < stats.min_d) stats.min_d = v;
            if (!stats.has_finite || v > stats.max_d) stats.max_d = v;
            stats.has_finite = true;
          }
        }
      }
      stats.has_value = true;
      zones.push_back(std::move(stats));
      continue;
    }
    for (int64_t i = stats.row_begin; i < stats.row_end; ++i) {
      if (IsNull(i)) {
        ++stats.null_count;
        continue;
      }
      switch (type_) {
        case DataType::kInt64: {
          const int64_t v = GetInt64(i);
          if (!stats.has_value || v < stats.min_i) stats.min_i = v;
          if (!stats.has_value || v > stats.max_i) stats.max_i = v;
          break;
        }
        case DataType::kBool: {
          const int64_t v = GetBool(i) ? 1 : 0;
          if (!stats.has_value || v < stats.min_i) stats.min_i = v;
          if (!stats.has_value || v > stats.max_i) stats.max_i = v;
          break;
        }
        case DataType::kDouble: {
          const double v = GetDouble(i);
          if (std::isnan(v)) {
            stats.has_nan = true;
          } else {
            if (!stats.has_finite || v < stats.min_d) stats.min_d = v;
            if (!stats.has_finite || v > stats.max_d) stats.max_d = v;
            stats.has_finite = true;
          }
          break;
        }
        case DataType::kString: {
          const std::string& v = GetString(i);
          if (!stats.has_value || v < stats.min_s) stats.min_s = v;
          if (!stats.has_value || v > stats.max_s) stats.max_s = v;
          break;
        }
      }
      stats.has_value = true;
    }
    zones.push_back(std::move(stats));
  }
  zone_map_ = std::make_shared<const ZoneMapIndex>(type_, std::move(zones));
}

// ------------------------------------------------------------------- appends

void Column::AppendNull() {
  if (MutationInvalidatesState()) PrepareMutation();
  EnsureValidity();
  switch (type_) {
    case DataType::kInt64:
      ints_.push_back(0);
      break;
    case DataType::kDouble:
      doubles_.push_back(0.0);
      break;
    case DataType::kString:
      strings_.emplace_back();
      break;
    case DataType::kBool:
      bools_.push_back(0);
      break;
  }
  validity_.push_back(0);
  ++length_;
  ++null_count_;
}

void Column::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (type_) {
    case DataType::kInt64:
      AppendInt64(v.int64_value());
      break;
    case DataType::kDouble:
      // Allow int literals in double columns for ergonomic row building.
      AppendDouble(v.is_int64() ? static_cast<double>(v.int64_value())
                                : v.double_value());
      break;
    case DataType::kString:
      AppendString(v.string_value());
      break;
    case DataType::kBool:
      AppendBool(v.bool_value());
      break;
  }
}

void Column::AppendColumn(const Column& other) {
  VX_CHECK(type_ == other.type_)
      << "AppendColumn type mismatch: " << DataTypeName(type_) << " vs "
      << DataTypeName(other.type_);
  if (MutationInvalidatesState()) PrepareMutation();
  if (!other.validity_.empty() || !validity_.empty()) {
    EnsureValidity();
    if (other.validity_.empty()) {
      validity_.insert(validity_.end(), static_cast<size_t>(other.length_), 1);
    } else {
      validity_.insert(validity_.end(), other.validity_.begin(),
                       other.validity_.end());
    }
  }
  switch (type_) {
    case DataType::kInt64: {
      const auto& src = other.ints();
      ints_.insert(ints_.end(), src.begin(), src.end());
      break;
    }
    case DataType::kDouble:
      doubles_.insert(doubles_.end(), other.doubles_.begin(),
                      other.doubles_.end());
      break;
    case DataType::kString: {
      const auto& src = other.strings();
      strings_.insert(strings_.end(), src.begin(), src.end());
      break;
    }
    case DataType::kBool: {
      const auto& src = other.bools();
      bools_.insert(bools_.end(), src.begin(), src.end());
      break;
    }
  }
  length_ += other.length_;
  null_count_ += other.null_count_;
}

Value Column::GetValue(int64_t i) const {
  if (IsNull(i)) return Value::Null();
  switch (type_) {
    case DataType::kInt64:
      return Value(GetInt64(i));
    case DataType::kDouble:
      return Value(GetDouble(i));
    case DataType::kString:
      return Value(GetString(i));
    case DataType::kBool:
      return Value(GetBool(i));
  }
  return Value::Null();
}

Column Column::Take(const std::vector<int64_t>& indices) const {
  Column out(type_);
  out.Reserve(static_cast<int64_t>(indices.size()));
  if (null_count_ == 0) {
    switch (type_) {
      case DataType::kInt64: {
        const auto& src = ints();
        for (int64_t i : indices)
          out.ints_.push_back(src[static_cast<size_t>(i)]);
        break;
      }
      case DataType::kDouble:
        for (int64_t i : indices)
          out.doubles_.push_back(doubles_[static_cast<size_t>(i)]);
        break;
      case DataType::kString:
        // GetString reads straight from the dictionary for encoded
        // columns, so a gather never forces a full decode.
        for (int64_t i : indices) out.strings_.push_back(GetString(i));
        break;
      case DataType::kBool: {
        const auto& src = bools();
        for (int64_t i : indices)
          out.bools_.push_back(src[static_cast<size_t>(i)]);
        break;
      }
    }
    out.length_ = static_cast<int64_t>(indices.size());
    return out;
  }
  for (int64_t i : indices) out.AppendValue(GetValue(i));
  return out;
}

Column Column::TakeOrNull(const std::vector<int64_t>& indices) const {
  const bool padded = std::any_of(indices.begin(), indices.end(),
                                  [](int64_t idx) { return idx < 0; });
  if (!padded) return Take(indices);
  const size_t n = indices.size();
  Column out(type_);
  if (length_ == 0) {  // every row is padding
    for (size_t i = 0; i < n; ++i) out.AppendNull();
    return out;
  }
  // Gather with padded rows reading row 0, then mark them NULL (which
  // resets their slots to the type's default).
  std::vector<int64_t> safe(n);
  std::vector<uint8_t> validity(n);
  for (size_t i = 0; i < n; ++i) {
    const bool present = indices[i] >= 0;
    safe[i] = present ? indices[i] : 0;
    validity[i] = present && !IsNull(indices[i]) ? 1 : 0;
  }
  out = Take(safe);
  out.SetValidity(std::move(validity));
  return out;
}

void Column::SetValidity(std::vector<uint8_t> validity) {
  VX_CHECK(static_cast<int64_t>(validity.size()) == length_)
      << "SetValidity: " << validity.size() << " flags for " << length_
      << " rows";
  if (MutationInvalidatesState()) PrepareMutation();
  null_count_ = length_ - std::count(validity.begin(), validity.end(),
                                     static_cast<uint8_t>(1));
  if (null_count_ == 0) {
    validity_.clear();
    return;
  }
  for (size_t i = 0; i < validity.size(); ++i) {
    if (validity[i] != 0) continue;
    switch (type_) {
      case DataType::kInt64:
        ints_[i] = 0;
        break;
      case DataType::kDouble:
        doubles_[i] = 0.0;
        break;
      case DataType::kString:
        strings_[i].clear();
        break;
      case DataType::kBool:
        bools_[i] = 0;
        break;
    }
  }
  validity_ = std::move(validity);
}

Column Column::Slice(int64_t offset, int64_t count) const {
  VX_CHECK(offset >= 0 && offset + count <= length_);
  Column out(type_);
  const auto b = static_cast<size_t>(offset);
  const auto e = static_cast<size_t>(offset + count);
  switch (type_) {
    case DataType::kInt64: {
      const auto& src = ints();
      out.ints_.assign(src.begin() + b, src.begin() + e);
      break;
    }
    case DataType::kDouble:
      out.doubles_.assign(doubles_.begin() + b, doubles_.begin() + e);
      break;
    case DataType::kString:
      out.strings_.reserve(static_cast<size_t>(count));
      for (int64_t i = offset; i < offset + count; ++i) {
        out.strings_.push_back(GetString(i));
      }
      break;
    case DataType::kBool: {
      const auto& src = bools();
      out.bools_.assign(src.begin() + b, src.begin() + e);
      break;
    }
  }
  out.length_ = count;
  if (!validity_.empty()) {
    out.validity_.assign(validity_.begin() + b, validity_.begin() + e);
    out.null_count_ =
        count - std::count(out.validity_.begin(), out.validity_.end(), 1);
    if (out.null_count_ == 0) out.validity_.clear();
  }
  return out;
}

bool Column::Equals(const Column& other) const {
  if (type_ != other.type_ || length_ != other.length_ ||
      null_count_ != other.null_count_) {
    return false;
  }
  for (int64_t i = 0; i < length_; ++i) {
    if (IsNull(i) != other.IsNull(i)) return false;
    if (IsNull(i)) continue;
    // CompareRows, not Value equality: deep equality must agree with the
    // storage total order, under which NaN equals itself (a column always
    // equals its own copy, encoded or not).
    if (CompareRows(i, other, i) != 0) return false;
  }
  return true;
}

uint64_t Column::HashRow(int64_t i) const {
  if (IsNull(i)) return 0x6e756c6cULL;  // "null"
  switch (type_) {
    case DataType::kInt64:
      return HashInt64(static_cast<uint64_t>(GetInt64(i)));
    case DataType::kDouble: {
      const double d = GetDouble(i);
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      __builtin_memcpy(&bits, &d, sizeof(bits));
      return HashInt64(bits);
    }
    case DataType::kString: {
      if (segment_ != nullptr &&
          segment_->encoding == ColumnEncoding::kDict) {
        // Per-dictionary-entry hash cache: |dictionary| HashString calls
        // total instead of one per probed row. The cached hashes are
        // exactly HashString of the decoded value, so encoded and plain
        // key columns stay hash-compatible in joins and aggregations.
        const EncodedSegment& seg = *segment_;
        std::call_once(seg.hash_once, [&seg] {
          seg.dict_hashes.reserve(seg.dict.dictionary.size());
          for (const auto& s : seg.dict.dictionary) {
            seg.dict_hashes.push_back(HashString(s));
          }
        });
        return seg.dict_hashes[static_cast<size_t>(
            seg.dict.codes[static_cast<size_t>(i)])];
      }
      return HashString(GetString(i));
    }
    case DataType::kBool:
      return HashInt64(GetBool(i) ? 1 : 2);
  }
  return 0;
}

// ---------------------------------------------------------- invariant audit

namespace {

/// Audit failure: every message leads with the violated structure so a
/// VX_DCHECK_OK abort names the broken claim, not just "check failed".
Status AuditError(std::string msg) {
  return Status::Internal("Column invariant violated: " + std::move(msg));
}

}  // namespace

Status Column::CheckInvariants() const {
  // --- Counters and validity bitmap. ---------------------------------
  if (length_ < 0) {
    return AuditError(StringFormat("negative length %lld",
                                   static_cast<long long>(length_)));
  }
  if (null_count_ < 0 || null_count_ > length_) {
    return AuditError(StringFormat(
        "null_count %lld outside [0, %lld]",
        static_cast<long long>(null_count_), static_cast<long long>(length_)));
  }
  if (validity_.empty()) {
    if (null_count_ != 0) {
      return AuditError(StringFormat(
          "null_count is %lld but the validity bitmap is empty (= all valid)",
          static_cast<long long>(null_count_)));
    }
  } else {
    if (static_cast<int64_t>(validity_.size()) != length_) {
      return AuditError(StringFormat(
          "validity bitmap has %lld slots for %lld rows",
          static_cast<long long>(validity_.size()),
          static_cast<long long>(length_)));
    }
    const int64_t zeros =
        length_ - std::count(validity_.begin(), validity_.end(), 1);
    if (zeros != null_count_) {
      return AuditError(StringFormat(
          "validity bitmap holds %lld NULLs but null_count says %lld",
          static_cast<long long>(zeros),
          static_cast<long long>(null_count_)));
    }
  }

  // --- Physical representation: plain vectors vs. encoded segment. ----
  const auto plain_size = [this]() -> int64_t {
    switch (type_) {
      case DataType::kInt64:
        return static_cast<int64_t>(ints_.size());
      case DataType::kDouble:
        return static_cast<int64_t>(doubles_.size());
      case DataType::kString:
        return static_cast<int64_t>(strings_.size());
      case DataType::kBool:
        return static_cast<int64_t>(bools_.size());
    }
    return 0;
  };
  if (segment_ == nullptr) {
    if (plain_size() != length_) {
      return AuditError(StringFormat(
          "plain %s vector has %lld values for %lld rows",
          DataTypeName(type_), static_cast<long long>(plain_size()),
          static_cast<long long>(length_)));
    }
  } else {
    if (plain_size() != 0) {
      return AuditError(
          "encoded column still carries a non-empty plain vector");
    }
    if (segment_->length != length_) {
      return AuditError(StringFormat(
          "encoded segment claims %lld rows but the column has %lld",
          static_cast<long long>(segment_->length),
          static_cast<long long>(length_)));
    }
    switch (segment_->encoding) {
      case ColumnEncoding::kPlain:
        return AuditError("segment present but encoding is kPlain");
      case ColumnEncoding::kRle: {
        if (type_ != DataType::kInt64 && type_ != DataType::kBool) {
          return AuditError(StringFormat("RLE segment on a %s column",
                                         DataTypeName(type_)));
        }
        if (segment_->run_starts.size() != segment_->runs.size()) {
          return AuditError(StringFormat(
              "%zu run_starts for %zu RLE runs", segment_->run_starts.size(),
              segment_->runs.size()));
        }
        int64_t row = 0;
        for (size_t k = 0; k < segment_->runs.size(); ++k) {
          const RleRun& run = segment_->runs[k];
          if (run.length <= 0) {
            return AuditError(StringFormat(
                "RLE run %zu has non-positive length %lld", k,
                static_cast<long long>(run.length)));
          }
          if (type_ == DataType::kBool && run.value != 0 && run.value != 1) {
            return AuditError(StringFormat(
                "BOOL RLE run %zu holds non-0/1 value %lld", k,
                static_cast<long long>(run.value)));
          }
          if (segment_->run_starts[k] != row) {
            return AuditError(StringFormat(
                "run_starts[%zu] is %lld but runs before it sum to %lld", k,
                static_cast<long long>(segment_->run_starts[k]),
                static_cast<long long>(row)));
          }
          row += run.length;
        }
        if (row != length_) {
          return AuditError(StringFormat(
              "RLE runs sum to %lld rows but the column has %lld",
              static_cast<long long>(row), static_cast<long long>(length_)));
        }
        break;
      }
      case ColumnEncoding::kDict: {
        if (type_ != DataType::kString) {
          return AuditError(StringFormat("dictionary segment on a %s column",
                                         DataTypeName(type_)));
        }
        const DictEncoded& dict = segment_->dict;
        if (static_cast<int64_t>(dict.codes.size()) != length_) {
          return AuditError(StringFormat(
              "%zu dict codes for %lld rows", dict.codes.size(),
              static_cast<long long>(length_)));
        }
        const auto dict_size = static_cast<int32_t>(dict.dictionary.size());
        for (size_t i = 0; i < dict.codes.size(); ++i) {
          if (dict.codes[i] < 0 || dict.codes[i] >= dict_size) {
            return AuditError(StringFormat(
                "dict code %d at row %zu outside dictionary of %d entries",
                dict.codes[i], i, dict_size));
          }
        }
        break;
      }
    }
  }

  // --- Zone map soundness: stored statistics must bound the data. ------
  if (zone_map_ != nullptr) {
    if (zone_map_->type() != type_) {
      return AuditError(StringFormat(
          "zone map typed %s on a %s column",
          DataTypeName(zone_map_->type()), DataTypeName(type_)));
    }
    const auto& zones = zone_map_->zones();
    const auto want_zones =
        static_cast<size_t>((length_ + kZoneRows - 1) / kZoneRows);
    if (zones.size() != want_zones) {
      return AuditError(StringFormat("%zu zones for %lld rows (want %zu)",
                                     zones.size(),
                                     static_cast<long long>(length_),
                                     want_zones));
    }
    for (size_t z = 0; z < zones.size(); ++z) {
      const ZoneStats& zone = zones[z];
      const int64_t want_begin = static_cast<int64_t>(z) * kZoneRows;
      const int64_t want_end = std::min(want_begin + kZoneRows, length_);
      if (zone.row_begin != want_begin || zone.row_end != want_end) {
        return AuditError(StringFormat(
            "zone %zu spans [%lld, %lld) but should span [%lld, %lld)", z,
            static_cast<long long>(zone.row_begin),
            static_cast<long long>(zone.row_end),
            static_cast<long long>(want_begin),
            static_cast<long long>(want_end)));
      }
      int64_t nulls = 0;
      for (int64_t i = zone.row_begin; i < zone.row_end; ++i) {
        if (IsNull(i)) {
          ++nulls;
          continue;
        }
        bool in_bounds = true;
        switch (type_) {
          case DataType::kInt64:
            in_bounds = zone.has_value && GetInt64(i) >= zone.min_i &&
                        GetInt64(i) <= zone.max_i;
            break;
          case DataType::kBool: {
            const int64_t v = GetBool(i) ? 1 : 0;
            in_bounds = zone.has_value && v >= zone.min_i && v <= zone.max_i;
            break;
          }
          case DataType::kDouble: {
            const double v = GetDouble(i);
            // NaN is tracked by has_nan and excluded from min_d/max_d.
            in_bounds = zone.has_value &&
                        (std::isnan(v)
                             ? zone.has_nan
                             : zone.has_finite && v >= zone.min_d &&
                                   v <= zone.max_d);
            break;
          }
          case DataType::kString:
            in_bounds = zone.has_value && GetString(i) >= zone.min_s &&
                        GetString(i) <= zone.max_s;
            break;
        }
        if (!in_bounds) {
          return AuditError(StringFormat(
              "zone %zu bounds do not cover the value at row %lld "
              "(stale zone map?)",
              z, static_cast<long long>(i)));
        }
      }
      if (nulls != zone.null_count) {
        return AuditError(StringFormat(
            "zone %zu claims %lld NULLs but rows hold %lld", z,
            static_cast<long long>(zone.null_count),
            static_cast<long long>(nulls)));
      }
    }
  }
  return Status::OK();
}

int Column::CompareRows(int64_t i, const Column& other, int64_t j) const {
  VX_DCHECK(type_ == other.type_);
  const bool ln = IsNull(i);
  const bool rn = other.IsNull(j);
  if (ln || rn) return ln == rn ? 0 : (ln ? -1 : 1);
  switch (type_) {
    case DataType::kInt64: {
      const int64_t a = GetInt64(i);
      const int64_t b = other.GetInt64(j);
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case DataType::kDouble:
      // Total order: NaN sorts after every number and equals itself.
      // (`a < b ? … : a > b ? …` alone returns 0 whenever either side is
      // NaN, which breaks strict weak ordering — UB in std::stable_sort
      // and nondeterministic SortOp/TopNOp output.)
      return TotalOrderCompareDoubles(GetDouble(i), other.GetDouble(j));
    case DataType::kString: {
      // Same dictionary ⇒ equal codes are equal strings; unequal codes
      // still compare by value (first-appearance codes are unordered).
      if (segment_ != nullptr && segment_ == other.segment_ &&
          segment_->encoding == ColumnEncoding::kDict &&
          segment_->dict.codes[static_cast<size_t>(i)] ==
              segment_->dict.codes[static_cast<size_t>(j)]) {
        return 0;
      }
      const int cmp = GetString(i).compare(other.GetString(j));
      return cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
    }
    case DataType::kBool: {
      const int a = GetBool(i) ? 1 : 0;
      const int b = other.GetBool(j) ? 1 : 0;
      return a - b;
    }
  }
  return 0;
}

}  // namespace vertexica
