/// \file operator.h
/// \brief Volcano-style batch iterator interface for relational operators.
///
/// Every operator pulls batches (small `Table`s) from its children via
/// `Next()` and pushes produced batches upward; `std::nullopt` signals end of
/// stream. This is the execution machinery Vertexica's coordinator composes
/// each superstep (scans, unions, joins) and that hybrid/relational graph
/// queries (§3.2, §3.4) run on.

#ifndef VERTEXICA_EXEC_OPERATOR_H_
#define VERTEXICA_EXEC_OPERATOR_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/table.h"

namespace vertexica {

/// \brief Default number of rows per batch produced by scans.
inline constexpr int64_t kDefaultBatchSize = 16 * 1024;

/// \brief Base class of all physical operators.
class Operator {
 public:
  virtual ~Operator() = default;

  /// \brief Schema of the batches this operator produces.
  virtual const Schema& output_schema() const = 0;

  /// \brief Produces the next batch, or nullopt at end of stream.
  virtual Result<std::optional<Table>> Next() = 0;

  /// \brief One-line physical-operator description for EXPLAIN output.
  virtual std::string label() const { return "Operator"; }

  /// \brief Child operators (for EXPLAIN tree walks).
  virtual std::vector<const Operator*> children() const { return {}; }
};

using OperatorPtr = std::unique_ptr<Operator>;

/// \brief Renders the plan tree under `root` in EXPLAIN style:
/// one operator per line, children indented two spaces.
std::string ExplainPlan(const Operator& root);

/// \brief Drains an operator into a single materialized table.
Result<Table> Collect(Operator* op);

/// \brief Convenience: drains and discards, returning the row count.
Result<int64_t> CountRows(Operator* op);

}  // namespace vertexica

#endif  // VERTEXICA_EXEC_OPERATOR_H_
