/// \file dataflow.h
/// \brief Graph processing pipelines (§3.4 / the GUI "Dataflow" panel):
/// users "drag and drop the algorithms/operators, chain and combine them".
///
/// A `Pipeline` is a DAG of named nodes; each node consumes the tables
/// produced by its input nodes and produces one table. Execution is
/// memoized topological order, with per-node wall-clock timings for the
/// time-monitor display.

#ifndef VERTEXICA_PIPELINE_DATAFLOW_H_
#define VERTEXICA_PIPELINE_DATAFLOW_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/table.h"

namespace vertexica {

/// \brief One dataflow operator: relational op or graph algorithm.
class PipelineNode {
 public:
  virtual ~PipelineNode() = default;

  /// \brief Display name (toolbar label).
  virtual std::string name() const = 0;

  /// \brief Computes the node's output from its inputs' outputs.
  virtual Result<Table> Run(const std::vector<Table>& inputs) = 0;
};

using PipelineNodePtr = std::shared_ptr<PipelineNode>;

/// \brief A DAG of pipeline nodes.
class Pipeline {
 public:
  /// \brief Adds a node fed by the outputs of `inputs` (ids returned by
  /// earlier AddNode calls). Returns the new node's id.
  int AddNode(PipelineNodePtr node, std::vector<int> inputs = {});

  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  /// \brief Executes the sub-DAG needed for `node_id` and returns its
  /// output. Results are memoized within one Run call chain; call Reset()
  /// to clear.
  ///
  /// Independent nodes run concurrently: evaluation proceeds in waves of
  /// ready nodes (all inputs computed), and each wave fans out on the
  /// shared ThreadPool up to the ambient ExecThreads() budget — so a
  /// diamond of two branches costs one branch's wall clock. A node run on a
  /// pool worker sees the caller's knobs, cancel token and kernel-counter
  /// block (ExecKnobs). Node evaluation order within a wave is unspecified,
  /// but outputs (and the set of nodes run) are identical to serial
  /// execution.
  Result<Table> Run(int node_id);

  /// \brief Clears memoized results and timings (e.g. after the source
  /// data changed — continuous mode re-runs).
  void Reset();

  /// \brief Per-node timing of the last Run (the GUI time monitor).
  struct NodeTiming {
    int node_id;
    std::string name;
    double seconds;
  };
  const std::vector<NodeTiming>& timings() const { return timings_; }

 private:
  struct Entry {
    PipelineNodePtr node;
    std::vector<int> inputs;
    bool computed = false;
    Table output;
  };

  /// Evaluates one uncomputed node whose inputs are all computed.
  Status ComputeNode(int node_id);

  std::vector<Entry> nodes_;
  std::vector<NodeTiming> timings_;
  std::mutex timings_mutex_;  // guards timings_ during parallel waves
};

}  // namespace vertexica

#endif  // VERTEXICA_PIPELINE_DATAFLOW_H_
