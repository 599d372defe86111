#include "storage/table.h"

#include <algorithm>
#include <sstream>

#include "common/string_util.h"

namespace vertexica {

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(static_cast<size_t>(schema_.num_fields()));
  for (int i = 0; i < schema_.num_fields(); ++i) {
    columns_.emplace_back(schema_.field(i).type);
  }
}

Result<Table> Table::Make(Schema schema, std::vector<Column> columns) {
  if (static_cast<int>(columns.size()) != schema.num_fields()) {
    return Status::InvalidArgument(StringFormat(
        "Table::Make: %d columns for schema with %d fields",
        static_cast<int>(columns.size()), schema.num_fields()));
  }
  int64_t rows = columns.empty() ? 0 : columns[0].length();
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].type() != schema.field(static_cast<int>(i)).type) {
      return Status::TypeError(StringFormat(
          "Table::Make: column %zu is %s but schema says %s", i,
          DataTypeName(columns[i].type()),
          DataTypeName(schema.field(static_cast<int>(i)).type)));
    }
    if (columns[i].length() != rows) {
      return Status::InvalidArgument("Table::Make: ragged column lengths");
    }
  }
  Table t;
  t.schema_ = std::move(schema);
  t.columns_ = std::move(columns);
  t.num_rows_ = rows;
  return t;
}

const Column* Table::ColumnByName(const std::string& name) const {
  const int idx = schema_.FieldIndex(name);
  return idx < 0 ? nullptr : &columns_[static_cast<size_t>(idx)];
}

Result<int> Table::ColumnIndex(const std::string& name) const {
  const int idx = schema_.FieldIndex(name);
  if (idx < 0) {
    return Status::InvalidArgument("No column named '" + name + "' in " +
                                   schema_.ToString());
  }
  return idx;
}

Status Table::AppendRow(const std::vector<Value>& row) {
  if (static_cast<int>(row.size()) != num_columns()) {
    return Status::InvalidArgument(
        StringFormat("AppendRow: %d values for %d columns",
                     static_cast<int>(row.size()), num_columns()));
  }
  sort_order_.clear();  // an appended row may land out of order
  for (size_t i = 0; i < row.size(); ++i) {
    columns_[i].AppendValue(row[i]);
  }
  ++num_rows_;
  return Status::OK();
}

Status Table::Append(const Table& other) {
  if (!schema_.EqualTypes(other.schema_)) {
    return Status::TypeError("Append: incompatible schemas " +
                             schema_.ToString() + " vs " +
                             other.schema_.ToString());
  }
  if (other.num_rows_ > 0) sort_order_.clear();  // concatenation reorders
  for (size_t i = 0; i < columns_.size(); ++i) {
    columns_[i].AppendColumn(other.columns_[i]);
  }
  num_rows_ += other.num_rows_;
  return Status::OK();
}

Table Table::Take(const std::vector<int64_t>& indices) const {
  Table out;
  out.schema_ = schema_;
  out.columns_.reserve(columns_.size());
  for (const auto& c : columns_) out.columns_.push_back(c.Take(indices));
  out.num_rows_ = static_cast<int64_t>(indices.size());
  return out;
}

Table Table::Slice(int64_t offset, int64_t count) const {
  Table out;
  out.schema_ = schema_;
  out.columns_.reserve(columns_.size());
  for (const auto& c : columns_) out.columns_.push_back(c.Slice(offset, count));
  out.num_rows_ = count;
  out.sort_order_ = sort_order_;  // a contiguous range of sorted is sorted
  return out;
}

Table Table::SelectColumns(const std::vector<int>& col_indices) const {
  Table out;
  for (int idx : col_indices) {
    out.schema_.AddField(schema_.field(idx));
    out.columns_.push_back(columns_[static_cast<size_t>(idx)]);
  }
  out.num_rows_ = num_rows_;
  // The longest prefix of the declared order whose columns survive the
  // projection still describes the row order (rows themselves are
  // untouched); the first dropped key ends what we can claim.
  for (const SortKey& k : sort_order_) {
    auto it = std::find(col_indices.begin(), col_indices.end(), k.column);
    if (it == col_indices.end()) break;
    out.sort_order_.push_back(
        SortKey{static_cast<int>(it - col_indices.begin()), k.ascending});
  }
  return out;
}

Table Table::RenameColumns(const std::vector<std::string>& names) const {
  Table out = *this;
  out.schema_ = schema_.WithNames(names);
  return out;
}

int Table::EncodeColumns(EncodingMode mode) {
  int encoded = 0;
  for (auto& c : columns_) {
    if (c.Encode(mode)) ++encoded;
  }
  return encoded;
}

void Table::DecodeColumns() {
  for (auto& c : columns_) c.Decode();
}

void Table::BuildZoneMaps() {
  for (auto& c : columns_) c.BuildZoneMap();
}

void Table::SetSortOrder(std::vector<SortKey> keys) {
  for (const SortKey& k : keys) {
    VX_CHECK(k.column >= 0 && k.column < num_columns())
        << "SetSortOrder: key column " << k.column << " outside schema "
        << schema_.ToString();
  }
  sort_order_ = std::move(keys);
}

std::vector<Value> Table::GetRow(int64_t i) const {
  std::vector<Value> row;
  row.reserve(columns_.size());
  for (const auto& c : columns_) row.push_back(c.GetValue(i));
  return row;
}

bool Table::Equals(const Table& other) const {
  if (!schema_.Equals(other.schema_) || num_rows_ != other.num_rows_) {
    return false;
  }
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (!columns_[i].Equals(other.columns_[i])) return false;
  }
  return true;
}

std::string Table::ToString(int64_t max_rows) const {
  std::ostringstream os;
  os << schema_.ToString() << " rows=" << num_rows_ << "\n";
  const int64_t n = std::min(num_rows_, max_rows);
  for (int64_t r = 0; r < n; ++r) {
    for (int c = 0; c < num_columns(); ++c) {
      if (c > 0) os << " | ";
      os << columns_[static_cast<size_t>(c)].GetValue(r).ToString();
    }
    os << "\n";
  }
  if (n < num_rows_) os << "... (" << (num_rows_ - n) << " more)\n";
  return os.str();
}

bool Table::IsConsistent() const {
  for (const auto& c : columns_) {
    if (c.length() != num_rows_) return false;
  }
  return true;
}

Status Table::CheckInvariants() const {
  if (static_cast<int>(columns_.size()) != schema_.num_fields()) {
    return Status::Internal(StringFormat(
        "Table invariant violated: %zu columns for schema with %d fields",
        columns_.size(), schema_.num_fields()));
  }
  for (int i = 0; i < num_columns(); ++i) {
    const Column& col = columns_[static_cast<size_t>(i)];
    if (col.type() != schema_.field(i).type) {
      return Status::Internal(StringFormat(
          "Table invariant violated: column %d (%s) is %s but the schema "
          "declares %s",
          i, schema_.field(i).name.c_str(), DataTypeName(col.type()),
          DataTypeName(schema_.field(i).type)));
    }
    if (col.length() != num_rows_) {
      return Status::Internal(StringFormat(
          "Table invariant violated: column %d (%s) has %lld rows but the "
          "table has %lld",
          i, schema_.field(i).name.c_str(),
          static_cast<long long>(col.length()),
          static_cast<long long>(num_rows_)));
    }
    VX_RETURN_NOT_OK(col.CheckInvariants());
  }
  for (const SortKey& k : sort_order_) {
    if (k.column < 0 || k.column >= num_columns()) {
      return Status::Internal(StringFormat(
          "Table invariant violated: sort key names column %d outside the "
          "%d-field schema",
          k.column, num_columns()));
    }
  }
  if (!sort_order_.empty()) {
    // Verify the declared lexicographic order row-by-row: rows must be
    // nondecreasing by keys[0], ties broken by keys[1], and so on.
    for (int64_t r = 1; r < num_rows_; ++r) {
      for (const SortKey& k : sort_order_) {
        const Column& col = columns_[static_cast<size_t>(k.column)];
        int cmp = col.CompareRows(r - 1, col, r);
        if (!k.ascending) cmp = -cmp;
        if (cmp < 0) break;  // strictly ordered on this key; later keys free
        if (cmp > 0) {
          return Status::Internal(StringFormat(
              "Table invariant violated: declared sort order broken between "
              "rows %lld and %lld on key column %d (%s)",
              static_cast<long long>(r - 1), static_cast<long long>(r),
              k.column, schema_.field(k.column).name.c_str()));
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace vertexica
