/// \file vertex_program.h
/// \brief The Pregel-style vertex-centric programming interface (§2.1–2.2).
///
/// Programmers "simply provide their vertex compute function, and Vertexica
/// takes care of running it as standard SQL (with UDFs) in an unmodified
/// relational database". A `VertexProgram` is that compute function plus a
/// declaration of its value/message shapes; `VertexContext` exposes the
/// same API surface the paper lists for the worker: getVertexValue(),
/// getMessages(), getOutEdges(), modifyVertexValue(), sendMessage(), and
/// voteToHalt().

#ifndef VERTEXICA_VERTEXICA_VERTEX_PROGRAM_H_
#define VERTEXICA_VERTEXICA_VERTEX_PROGRAM_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace vertexica {

/// \brief Message combining strategies (component-wise over the message
/// payload). Combiners let the engine collapse all messages addressed to
/// one vertex into a single message between supersteps.
enum class MessageCombiner { kNone, kSum, kMin, kMax };

/// \brief Global aggregator kinds (Pregel "aggregators"). Values contributed
/// by vertices in superstep S are visible to all vertices in superstep S+1.
enum class AggregatorKind { kSum, kMin, kMax };

/// \brief Declaration of one named global aggregator.
struct AggregatorSpec {
  std::string name;
  AggregatorKind kind;
};

class VertexRunner;

/// \brief Outgoing message columns a worker appends to, in send order:
/// (src = sender, dst = receiver, m0..).
struct MessageColumns {
  explicit MessageColumns(int arity) : values(static_cast<size_t>(arity)) {}

  /// Empty when the sender is not recorded (see VertexContext::SendMessage).
  std::vector<int64_t> src;
  std::vector<int64_t> dst;
  std::vector<std::vector<double>> values;  ///< one per message column
};

/// \brief Per-vertex view handed to `VertexProgram::Compute`.
///
/// The context is owned by the worker UDF. Reads are views: the out-edges
/// point into the worker's edge columns (or its gathered copy of them), the
/// value and messages into its per-vertex copies. Sends append straight to
/// the message columns of the worker's sink.
class VertexContext {
 public:
  /// \name Topology and progress
  /// @{
  int64_t vertex_id() const { return vertex_id_; }
  int superstep() const { return superstep_; }
  int64_t num_vertices() const { return num_vertices_; }
  /// @}

  /// \name Vertex state (getVertexValue / modifyVertexValue)
  /// @{
  /// Current value; `value_arity` doubles.
  const double* GetVertexValue() const { return value_.data(); }
  double GetVertexValue(int component) const {
    return value_[static_cast<size_t>(component)];
  }
  /// Overwrites the vertex value (copied out at end of Compute).
  void ModifyVertexValue(const double* v) {
    std::copy(v, v + value_.size(), value_.begin());
    modified_ = true;
  }
  void ModifyVertexValue(double v) { ModifyVertexValue(&v); }
  /// @}

  /// \name Incoming messages (getMessages)
  /// @{
  int64_t num_messages() const { return num_messages_; }
  /// Payload of message `i`; `message_arity` doubles.
  const double* GetMessage(int64_t i) const {
    return msg_data_.data() + static_cast<size_t>(i) * msg_arity_;
  }
  /// @}

  /// \name Outgoing edges (getOutEdges)
  /// @{
  int64_t num_out_edges() const { return num_edges_; }
  int64_t OutEdgeTarget(int64_t i) const { return edge_dst_[i]; }
  double OutEdgeWeight(int64_t i) const { return edge_weight_[i]; }
  /// @}

  /// \name Messaging (sendMessage)
  /// @{
  void SendMessage(int64_t dst, const double* payload);
  void SendMessage(int64_t dst, double payload) { SendMessage(dst, &payload); }
  void SendMessageToAllNeighbors(const double* payload);
  void SendMessageToAllNeighbors(double payload) {
    SendMessageToAllNeighbors(&payload);
  }
  /// @}

  /// \name Halting (voteToHalt)
  /// @{
  void VoteToHalt() { halted_ = true; }
  /// @}

  /// \name Global aggregators
  /// @{
  /// \brief Value aggregated during the previous superstep.
  ///
  /// Contract: `name` must be one of the aggregators the program declared
  /// via `VertexProgram::aggregators()`. Before any contribution arrives
  /// (e.g. in superstep 0) the declared kind's identity is returned — 0 for
  /// kSum, +inf for kMin, -inf for kMax. Reading an *undeclared* aggregator
  /// is a programming error and consistently returns quiet NaN (it used to
  /// return 0.0, which is indistinguishable from a legitimate kSum value);
  /// NaN propagates loudly through any arithmetic that consumes it.
  double GetAggregate(const std::string& name) const;
  /// Contributes to a named aggregator for the next superstep.
  void Aggregate(const std::string& name, double v);
  /// @}

 private:
  friend class VertexRunner;
  friend class BspEngine;  // the Giraph comparator drives the same API

  // Populated by the worker before each Compute call.
  int64_t vertex_id_ = 0;
  int superstep_ = 0;
  int64_t num_vertices_ = 0;
  bool halted_ = false;
  bool modified_ = false;
  std::vector<double> value_;
  // The out-edge span: num_edges_ (dst, weight) pairs owned by the worker.
  const int64_t* edge_dst_ = nullptr;
  const double* edge_weight_ = nullptr;
  int64_t num_edges_ = 0;
  std::vector<double> msg_data_;
  int64_t num_messages_ = 0;
  int msg_arity_ = 1;

  // Where sends go; the sender id is appended to out_->src only when
  // write_src_ is set.
  MessageColumns* out_ = nullptr;
  bool write_src_ = true;

  const std::map<std::string, double>* prev_aggregates_ = nullptr;
  std::map<std::string, double>* local_aggregates_ = nullptr;
  const std::map<std::string, AggregatorKind>* aggregator_kinds_ = nullptr;
};

/// \brief Base class for user graph queries ("the actual compute function
/// provided by the user", Figure 1).
class VertexProgram {
 public:
  virtual ~VertexProgram() = default;

  /// \brief Number of doubles in a vertex value.
  virtual int value_arity() const = 0;
  /// \brief Number of doubles in a message payload.
  virtual int message_arity() const = 0;

  /// \brief Initial vertex value written into the vertex table at load time.
  virtual void InitValue(int64_t vertex_id, int64_t num_vertices,
                         double* value) const = 0;

  /// \brief The vertex computation, run "once per superstep for every vertex
  /// that has at least one incoming message" (§2.2) — plus every non-halted
  /// vertex, per Pregel semantics.
  virtual void Compute(VertexContext* ctx) = 0;

  /// \brief Optional message combiner.
  virtual MessageCombiner combiner() const { return MessageCombiner::kNone; }

  /// \brief Optional global aggregators.
  virtual std::vector<AggregatorSpec> aggregators() const { return {}; }
};

inline double AggregatorIdentity(AggregatorKind kind) {
  switch (kind) {
    case AggregatorKind::kSum:
      return 0.0;
    case AggregatorKind::kMin:
      return std::numeric_limits<double>::infinity();
    case AggregatorKind::kMax:
      return -std::numeric_limits<double>::infinity();
  }
  return 0.0;
}

inline double MergeAggregate(AggregatorKind kind, double a, double b) {
  switch (kind) {
    case AggregatorKind::kSum:
      return a + b;
    case AggregatorKind::kMin:
      return a < b ? a : b;
    case AggregatorKind::kMax:
      return a > b ? a : b;
  }
  return a;
}

inline void VertexContext::SendMessage(int64_t dst, const double* payload) {
  if (write_src_) out_->src.push_back(vertex_id_);
  out_->dst.push_back(dst);
  for (size_t c = 0; c < out_->values.size(); ++c) {
    out_->values[c].push_back(payload[c]);
  }
}

inline void VertexContext::SendMessageToAllNeighbors(const double* payload) {
  // The same rows as one SendMessage per edge, appended column-wise.
  const auto n = static_cast<size_t>(num_edges_);
  if (write_src_) out_->src.insert(out_->src.end(), n, vertex_id_);
  out_->dst.insert(out_->dst.end(), edge_dst_, edge_dst_ + n);
  for (size_t c = 0; c < out_->values.size(); ++c) {
    out_->values[c].insert(out_->values[c].end(), n, payload[c]);
  }
}

inline double VertexContext::GetAggregate(const std::string& name) const {
  if (prev_aggregates_ != nullptr) {
    auto it = prev_aggregates_->find(name);
    if (it != prev_aggregates_->end()) return it->second;
  }
  if (aggregator_kinds_ != nullptr) {
    auto it = aggregator_kinds_->find(name);
    if (it != aggregator_kinds_->end()) return AggregatorIdentity(it->second);
  }
  // Undeclared aggregator (or a context with no aggregator table): NaN, so
  // the misuse cannot masquerade as a real kSum value of 0.
  return std::numeric_limits<double>::quiet_NaN();
}

inline void VertexContext::Aggregate(const std::string& name, double v) {
  if (aggregator_kinds_ == nullptr || local_aggregates_ == nullptr) return;
  auto kind_it = aggregator_kinds_->find(name);
  if (kind_it == aggregator_kinds_->end()) return;
  // Look up first: emplace would build (and allocate) a node on every call.
  auto it = local_aggregates_->find(name);
  if (it == local_aggregates_->end()) {
    local_aggregates_->emplace(name, v);
  } else {
    it->second = MergeAggregate(kind_it->second, it->second, v);
  }
}

}  // namespace vertexica

#endif  // VERTEXICA_VERTEXICA_VERTEX_PROGRAM_H_
