#include "vertexica/worker.h"

namespace vertexica {

VertexRunner::VertexRunner(const WorkerSharedState* shared) : shared_(shared) {
  ctx_.superstep_ = shared_->superstep;
  ctx_.num_vertices_ = shared_->num_vertices;
  ctx_.msg_arity_ = shared_->program->message_arity();
  ctx_.value_.resize(static_cast<size_t>(shared_->program->value_arity()));
  ctx_.prev_aggregates_ = shared_->prev_aggregates;
  ctx_.local_aggregates_ = &local_aggregates_;
  ctx_.aggregator_kinds_ = &shared_->aggregator_kinds;
  ctx_.write_src_ = shared_->write_message_src;
}

void VertexRunner::BeginVertex(int64_t id, bool halted, const double* value) {
  ctx_.vertex_id_ = id;
  old_halted_ = halted;
  std::copy(value, value + ctx_.value_.size(), ctx_.value_.begin());
  ctx_.num_edges_ = 0;
  ctx_.msg_data_.clear();
  ctx_.num_messages_ = 0;
  ctx_.modified_ = false;
  ctx_.halted_ = false;
}

void VertexRunner::SetEdges(const int64_t* dst, const double* weight,
                            int64_t n) {
  ctx_.edge_dst_ = dst;
  ctx_.edge_weight_ = weight;
  ctx_.num_edges_ = n;
}

void VertexRunner::AddMessage(const double* payload) {
  ctx_.msg_data_.insert(ctx_.msg_data_.end(), payload,
                        payload + ctx_.msg_arity_);
  ++ctx_.num_messages_;
}

bool VertexRunner::FinishVertex(WorkerSink* out) {
  // §2.2: compute runs for every vertex with at least one incoming message;
  // Pregel additionally keeps non-halted vertices active, and superstep 0
  // computes everywhere.
  const bool active = shared_->superstep == 0 || !old_halted_ ||
                      ctx_.num_messages_ > 0;
  if (!active) return false;

  ctx_.out_ = &out->messages;
  shared_->program->Compute(&ctx_);
  ++out->active;

  // Only real state changes become updates (they drive both the
  // update-vs-replace decision and the rows actually applied).
  if (ctx_.modified_ || ctx_.halted_ != old_halted_) {
    out->update_id.push_back(ctx_.vertex_id_);
    out->update_halted.push_back(ctx_.halted_ ? 1 : 0);
    for (size_t c = 0; c < out->update_values.size(); ++c) {
      out->update_values[c].push_back(ctx_.value_[c]);
    }
  }
  return true;
}

void VertexRunner::EmitAggregates(WorkerSink* out) {
  for (const auto& [name, value] : local_aggregates_) {
    const auto& names = shared_->aggregator_names;
    const auto it = std::find(names.begin(), names.end(), name);
    if (it == names.end()) continue;
    out->aggregate_rows.emplace_back(it - names.begin(), value);
  }
  local_aggregates_.clear();
}

}  // namespace vertexica
