/// \file hash_join.h
/// \brief Hash joins (inner, left outer, semi, anti).
///
/// §2.3 motivates replacing the vertex⋈edge⋈message 3-way join with a
/// union; this operator is the join side of that ablation, and the general
/// workhorse for metadata joins (§3.4) and the "update vs replace" left
/// join that rebuilds the vertex table each superstep.

#ifndef VERTEXICA_EXEC_HASH_JOIN_H_
#define VERTEXICA_EXEC_HASH_JOIN_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "exec/operator.h"

namespace vertexica {

enum class JoinType { kInner, kLeft, kSemi, kAnti };

const char* JoinTypeName(JoinType t);

/// \name Row-level join primitives
/// Shared by the serial operator below and the parallel join kernel
/// (exec/parallel.h) so both hash, compare, and pad identically.
/// @{

/// \brief Hash of one row's key columns.
uint64_t JoinKeyHash(const Table& t, const std::vector<int>& key_cols,
                     int64_t row);

/// \brief Hashes every row of [begin, end) into `hashes[i - begin]` —
/// column-at-a-time over the key columns so plain non-NULL INT64/DOUBLE
/// keys hash in a tight loop over the typed view. Values are byte-identical
/// to calling JoinKeyHash per row (HashCombine is applied in key-column
/// order for each row either way), so batched and per-row callers build
/// compatible tables. Rows hashed here are reported to the ambient
/// KernelStats.
void BatchJoinKeyHash(const Table& t, const std::vector<int>& key_cols,
                      int64_t begin, int64_t end,
                      std::vector<uint64_t>* hashes);

/// \brief True when any key column is NULL at `row` (SQL: never matches).
bool JoinKeyHasNull(const Table& t, const std::vector<int>& key_cols,
                    int64_t row);

/// \brief Multi-column key equality between two rows of two tables.
bool JoinKeysEqual(const Table& a, const std::vector<int>& a_cols, int64_t ai,
                   const Table& b, const std::vector<int>& b_cols, int64_t bi);

/// \brief Output schema shared by all hash-join implementations: probe
/// columns then build columns (inner/left, collisions suffixed "_r"), probe
/// columns only (semi/anti). Validates the key lists against both schemas.
Result<Schema> HashJoinOutputSchema(const Schema& probe, const Schema& build,
                                    const std::vector<std::string>& probe_keys,
                                    const std::vector<std::string>& build_keys,
                                    JoinType type);
/// @}

/// \brief Canonical hash join: fully materializes the build (right) side,
/// then streams probe (left) batches against the hash table.
///
/// Output schema: probe columns followed by build columns (inner/left);
/// probe columns only (semi/anti). Build column names that collide with a
/// probe column name are suffixed with "_r". SQL NULL semantics: a NULL key
/// never matches.
class HashJoinOp : public Operator {
 public:
  HashJoinOp(OperatorPtr probe, OperatorPtr build,
             std::vector<std::string> probe_keys,
             std::vector<std::string> build_keys,
             JoinType type = JoinType::kInner);

  const Schema& output_schema() const override { return schema_; }
  Result<std::optional<Table>> Next() override;

  std::string label() const override {
    std::string out = std::string("HashJoin[") + JoinTypeName(type_) + "](";
    for (size_t i = 0; i < probe_key_names_.size(); ++i) {
      if (i > 0) out += ", ";
      out += probe_key_names_[i] + " = " + build_key_names_[i];
    }
    return out + ")";
  }
  std::vector<const Operator*> children() const override {
    return {probe_.get(), build_.get()};
  }

 private:
  Status BuildHashTable();
  // Appends matches for one probe batch into (probe_idx, build_idx) pairs;
  // build_idx == -1 emits NULLs (left join).
  Status ProbeBatch(const Table& batch, std::vector<int64_t>* probe_idx,
                    std::vector<int64_t>* build_idx);

  OperatorPtr probe_;
  OperatorPtr build_;
  std::vector<std::string> probe_key_names_;
  std::vector<std::string> build_key_names_;
  JoinType type_;

  Schema schema_;
  Status init_status_;
  bool built_ = false;

  Table build_table_;
  std::vector<int> build_key_cols_;
  // hash -> row indices in build_table_ (chained; equality re-verified).
  // order-insensitive: probed by key only; matches emit in probe-row then
  // chain (build-row) order, never in map-iteration order.
  std::unordered_map<uint64_t, std::vector<int64_t>> index_;
};

}  // namespace vertexica

#endif  // VERTEXICA_EXEC_HASH_JOIN_H_
