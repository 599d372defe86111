#include "exec/hash_join.h"

#include <algorithm>
#include <unordered_map>

#include "common/hash.h"
#include "exec/kernel_stats.h"
#include "exec/operator.h"

namespace vertexica {

uint64_t JoinKeyHash(const Table& t, const std::vector<int>& key_cols,
                     int64_t row) {
  // STRING key columns that are dictionary-encoded hash via the segment's
  // per-entry hash cache (Column::HashRow): |dictionary| string hashes
  // total instead of one per row, and the values equal HashString of the
  // decoded key, so plain and encoded sides of a join stay compatible.
  uint64_t h = 0x12345678ULL;
  for (int c : key_cols) h = HashCombine(h, t.column(c).HashRow(row));
  return h;
}

void BatchJoinKeyHash(const Table& t, const std::vector<int>& key_cols,
                      int64_t begin, int64_t end,
                      std::vector<uint64_t>* hashes) {
  const int64_t n = std::max<int64_t>(end - begin, 0);
  // Seed matches JoinKeyHash; columns then fold in declaration order, so
  // hashes[i] ends up exactly JoinKeyHash(t, key_cols, begin + i).
  hashes->assign(static_cast<size_t>(n), 0x12345678ULL);
  if (n == 0) return;
  for (int c : key_cols) {
    const Column& col = t.column(c);
    const bool plain = col.rle_runs() == nullptr && col.dict() == nullptr &&
                       col.null_count() == 0;
    if (plain && col.type() == DataType::kInt64) {
      const auto& v = col.ints();
      for (int64_t i = 0; i < n; ++i) {
        (*hashes)[static_cast<size_t>(i)] = HashCombine(
            (*hashes)[static_cast<size_t>(i)],
            HashInt64(static_cast<uint64_t>(
                v[static_cast<size_t>(begin + i)])));
      }
      continue;
    }
    if (plain && col.type() == DataType::kDouble) {
      const auto& v = col.doubles();
      for (int64_t i = 0; i < n; ++i) {
        const double d = v[static_cast<size_t>(begin + i)];
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(d));
        __builtin_memcpy(&bits, &d, sizeof(bits));
        (*hashes)[static_cast<size_t>(i)] =
            HashCombine((*hashes)[static_cast<size_t>(i)], HashInt64(bits));
      }
      continue;
    }
    // Encoded, nullable, or non-numeric keys: HashRow already evaluates on
    // the representation (dictionary hash cache, NULL sentinel).
    for (int64_t i = 0; i < n; ++i) {
      (*hashes)[static_cast<size_t>(i)] = HashCombine(
          (*hashes)[static_cast<size_t>(i)], col.HashRow(begin + i));
    }
  }
  NoteBatchHashRows(n);
}

bool JoinKeyHasNull(const Table& t, const std::vector<int>& key_cols,
                    int64_t row) {
  for (int c : key_cols) {
    if (t.column(c).IsNull(row)) return true;
  }
  return false;
}

bool JoinKeysEqual(const Table& a, const std::vector<int>& a_cols, int64_t ai,
                   const Table& b, const std::vector<int>& b_cols,
                   int64_t bi) {
  for (size_t k = 0; k < a_cols.size(); ++k) {
    if (a.column(a_cols[k]).CompareRows(ai, b.column(b_cols[k]), bi) != 0) {
      return false;
    }
  }
  return true;
}

Result<Schema> HashJoinOutputSchema(const Schema& probe, const Schema& build,
                                    const std::vector<std::string>& probe_keys,
                                    const std::vector<std::string>& build_keys,
                                    JoinType type) {
  if (probe_keys.size() != build_keys.size() || probe_keys.empty()) {
    return Status::InvalidArgument("HashJoin: bad key lists");
  }
  for (const auto& k : probe_keys) {
    if (probe.FieldIndex(k) < 0) {
      return Status::InvalidArgument("HashJoin: no probe column '" + k + "'");
    }
  }
  for (const auto& k : build_keys) {
    if (build.FieldIndex(k) < 0) {
      return Status::InvalidArgument("HashJoin: no build column '" + k + "'");
    }
  }
  Schema schema;
  for (const auto& f : probe.fields()) schema.AddField(f);
  if (type == JoinType::kInner || type == JoinType::kLeft) {
    for (const auto& f : build.fields()) {
      std::string name = f.name;
      if (schema.HasField(name)) name += "_r";
      schema.AddField(Field{std::move(name), f.type});
    }
  }
  return schema;
}

const char* JoinTypeName(JoinType t) {
  switch (t) {
    case JoinType::kInner:
      return "INNER";
    case JoinType::kLeft:
      return "LEFT";
    case JoinType::kSemi:
      return "SEMI";
    case JoinType::kAnti:
      return "ANTI";
  }
  return "?";
}

HashJoinOp::HashJoinOp(OperatorPtr probe, OperatorPtr build,
                       std::vector<std::string> probe_keys,
                       std::vector<std::string> build_keys, JoinType type)
    : probe_(std::move(probe)),
      build_(std::move(build)),
      probe_key_names_(std::move(probe_keys)),
      build_key_names_(std::move(build_keys)),
      type_(type) {
  auto schema = HashJoinOutputSchema(probe_->output_schema(),
                                     build_->output_schema(),
                                     probe_key_names_, build_key_names_, type_);
  if (!schema.ok()) {
    init_status_ = schema.status();
    return;
  }
  schema_ = *std::move(schema);
}

Status HashJoinOp::BuildHashTable() {
  VX_ASSIGN_OR_RETURN(build_table_, Collect(build_.get()));
  for (const auto& k : build_key_names_) {
    VX_ASSIGN_OR_RETURN(int idx, build_table_.ColumnIndex(k));
    build_key_cols_.push_back(idx);
  }
  index_.reserve(static_cast<size_t>(build_table_.num_rows()));
  for (int64_t i = 0; i < build_table_.num_rows(); ++i) {
    if (JoinKeyHasNull(build_table_, build_key_cols_, i)) continue;
    index_[JoinKeyHash(build_table_, build_key_cols_, i)].push_back(i);
  }
  built_ = true;
  return Status::OK();
}

Status HashJoinOp::ProbeBatch(const Table& batch,
                              std::vector<int64_t>* probe_idx,
                              std::vector<int64_t>* build_idx) {
  std::vector<int> probe_cols;
  for (const auto& k : probe_key_names_) {
    VX_ASSIGN_OR_RETURN(int idx, batch.ColumnIndex(k));
    probe_cols.push_back(idx);
  }
  for (int64_t i = 0; i < batch.num_rows(); ++i) {
    bool matched = false;
    if (!JoinKeyHasNull(batch, probe_cols, i)) {
      auto it = index_.find(JoinKeyHash(batch, probe_cols, i));
      if (it != index_.end()) {
        for (int64_t bi : it->second) {
          if (JoinKeysEqual(batch, probe_cols, i, build_table_, build_key_cols_,
                        bi)) {
            matched = true;
            if (type_ == JoinType::kInner || type_ == JoinType::kLeft) {
              probe_idx->push_back(i);
              build_idx->push_back(bi);
            } else {
              break;  // semi/anti only need existence
            }
          }
        }
      }
    }
    switch (type_) {
      case JoinType::kLeft:
        if (!matched) {
          probe_idx->push_back(i);
          build_idx->push_back(-1);
        }
        break;
      case JoinType::kSemi:
        if (matched) probe_idx->push_back(i);
        break;
      case JoinType::kAnti:
        if (!matched) probe_idx->push_back(i);
        break;
      case JoinType::kInner:
        break;
    }
  }
  return Status::OK();
}

Result<std::optional<Table>> HashJoinOp::Next() {
  VX_RETURN_NOT_OK(init_status_);
  if (!built_) VX_RETURN_NOT_OK(BuildHashTable());

  for (;;) {
    VX_ASSIGN_OR_RETURN(auto batch, probe_->Next());
    if (!batch.has_value()) return std::optional<Table>{};

    std::vector<int64_t> probe_idx;
    std::vector<int64_t> build_idx;
    VX_RETURN_NOT_OK(ProbeBatch(*batch, &probe_idx, &build_idx));
    if (probe_idx.empty()) continue;

    std::vector<Column> columns;
    columns.reserve(static_cast<size_t>(schema_.num_fields()));
    {
      Table probe_side = batch->Take(probe_idx);
      for (int c = 0; c < probe_side.num_columns(); ++c) {
        columns.push_back(std::move(*probe_side.mutable_column(c)));
      }
    }
    if (type_ == JoinType::kInner || type_ == JoinType::kLeft) {
      for (int c = 0; c < build_table_.num_columns(); ++c) {
        columns.push_back(build_table_.column(c).TakeOrNull(build_idx));
      }
    }
    VX_ASSIGN_OR_RETURN(Table out, Table::Make(schema_, std::move(columns)));
    return std::optional<Table>(std::move(out));
  }
}

}  // namespace vertexica
