/// \file worker.h
/// \brief The worker UDF (§2.2): container for the vertex-compute function.
///
/// A worker owns one vertex-batching partition (§2.3): it visits the
/// partition's vertices in ascending id, hands each vertex's row, edges and
/// messages to the user's Compute, and records what Compute produced in a
/// typed per-partition sink — changed-vertex updates (id, halted, v*),
/// outgoing messages (src, dst, m*; Compute's sends append to them
/// directly), aggregator partials and the count of vertices computed. How
/// the per-vertex streams are read (in place from the graph tables, or from
/// the 3-way join input) is the worker driver's business
/// (vertexica/worker_driver.h); this header is the part both inputs share.

#ifndef VERTEXICA_VERTEXICA_WORKER_H_
#define VERTEXICA_VERTEXICA_WORKER_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "vertexica/vertex_program.h"

namespace vertexica {

/// \brief Immutable per-superstep state shared by all worker instances.
struct WorkerSharedState {
  VertexProgram* program = nullptr;
  int superstep = 0;
  int64_t num_vertices = 0;
  /// Aggregator values produced in the previous superstep.
  const std::map<std::string, double>* prev_aggregates = nullptr;
  /// Kind of each declared aggregator (for identity/merge).
  std::map<std::string, AggregatorKind> aggregator_kinds;
  /// Ordered aggregator names; WorkerSink::aggregate_rows index into it.
  std::vector<std::string> aggregator_names;
  /// Whether sends record their sender in WorkerSink::messages.src. A run
  /// that combines folds the senders away (the combined rows carry
  /// src = −1), so the coordinator clears this for it.
  bool write_message_src = true;
};

/// \brief Typed output of one worker partition, in emission order.
struct WorkerSink {
  WorkerSink(int value_arity, int message_arity)
      : update_values(static_cast<size_t>(value_arity)),
        messages(message_arity) {}

  /// Vertices whose state changed: (id, halted, v0..).
  std::vector<int64_t> update_id;
  std::vector<uint8_t> update_halted;
  std::vector<std::vector<double>> update_values;  ///< one per value column
  /// Outgoing messages (src = sender, dst = receiver, m0..), appended by
  /// Compute's sends in call order. `src` stays empty when the run combines
  /// (WorkerSharedState::write_message_src is false).
  MessageColumns messages;
  /// Aggregator partials as (index into aggregator_names, partial).
  std::vector<std::pair<int64_t, double>> aggregate_rows;
  /// Vertices whose Compute ran.
  int64_t active = 0;
};

/// \brief Runs Compute for one vertex at a time and records the results in
/// a WorkerSink. Both worker inputs feed it; it owns the VertexContext, the
/// activity rule and the per-partition aggregator partials. Exposed
/// publicly for white-box tests.
class VertexRunner {
 public:
  explicit VertexRunner(const WorkerSharedState* shared);

  /// Begins a vertex with no out-edges and no messages. `value` must hold
  /// value_arity doubles.
  void BeginVertex(int64_t id, bool halted, const double* value);
  /// Points the vertex's out-edges at `n` (dst[i], weight[i]) pairs, read
  /// in place; they must stay valid until FinishVertex returns.
  void SetEdges(const int64_t* dst, const double* weight, int64_t n);
  void AddMessage(const double* payload);

  /// Runs Compute if the vertex is active (superstep 0, not halted, or has
  /// messages); its sends append to `out->messages` and a state change
  /// becomes an update. Returns true if computed.
  bool FinishVertex(WorkerSink* out);

  /// Records the partition's aggregator partials (call once per partition).
  void EmitAggregates(WorkerSink* out);

 private:
  const WorkerSharedState* shared_;
  VertexContext ctx_;
  std::map<std::string, double> local_aggregates_;
  bool old_halted_ = false;
};

}  // namespace vertexica

#endif  // VERTEXICA_VERTEXICA_WORKER_H_
