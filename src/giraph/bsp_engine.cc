#include "giraph/bsp_engine.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/logging.h"
#include "common/threadpool.h"
#include "common/timer.h"
#include "exec/parallel.h"

namespace vertexica {

namespace {

/// Per-worker outbox of one superstep; Compute's sends append to
/// `messages` (no sender column: delivery never reads it).
struct Outbox {
  explicit Outbox(int msg_arity) : messages(msg_arity) {}

  MessageColumns messages;
  std::map<std::string, double> aggregates;
};

/// Receiver-side message store: either combined (one slot per vertex) or
/// a bucketed multi-message inbox.
struct Inbox {
  // Combined representation.
  std::vector<double> combined;      // n * msg_arity
  std::vector<uint8_t> has_message;  // n
  // Multi-message representation.
  std::vector<int64_t> offsets;  // n + 1
  std::vector<double> data;      // total_msgs * msg_arity
  bool use_combined = false;
  int64_t total_messages = 0;

  int64_t MessageCount(int64_t v) const {
    if (use_combined) return has_message[static_cast<size_t>(v)] ? 1 : 0;
    return offsets[static_cast<size_t>(v) + 1] - offsets[static_cast<size_t>(v)];
  }
};

}  // namespace

BspEngine::BspEngine(const Graph& graph, VertexProgram* program,
                     GiraphOptions options)
    : csr_(Csr::Build(graph)), program_(program), options_(options) {
  value_arity_ = program_->value_arity();
  msg_arity_ = program_->message_arity();
  const auto n = static_cast<size_t>(csr_.num_vertices());
  values_.resize(n * static_cast<size_t>(value_arity_));
  halted_.assign(n, 0);
  std::vector<double> tmp(static_cast<size_t>(value_arity_));
  for (int64_t v = 0; v < csr_.num_vertices(); ++v) {
    program_->InitValue(v, csr_.num_vertices(), tmp.data());
    std::copy(tmp.begin(), tmp.end(),
              values_.begin() + static_cast<size_t>(v) * value_arity_);
  }
}

std::vector<double> BspEngine::values(int component) const {
  std::vector<double> out(static_cast<size_t>(csr_.num_vertices()));
  for (int64_t v = 0; v < csr_.num_vertices(); ++v) {
    out[static_cast<size_t>(v)] = value(v, component);
  }
  return out;
}

Status BspEngine::Run(GiraphStats* stats) {
  WallTimer timer;
  const int64_t n = csr_.num_vertices();
  int workers = options_.num_workers;
  if (workers <= 0) {
    // Ambient executor parallelism: RunRequest::threads, else
    // VERTEXICA_THREADS, else hardware cores.
    workers = ExecThreads();
  }
  const auto agg_specs = program_->aggregators();
  std::map<std::string, AggregatorKind> agg_kinds;
  for (const auto& spec : agg_specs) agg_kinds[spec.name] = spec.kind;

  const bool combine = options_.use_combiner &&
                       program_->combiner() != MessageCombiner::kNone;
  const MessageCombiner combiner = program_->combiner();

  Inbox inbox;  // messages delivered to the current superstep
  inbox.use_combined = combine;
  if (combine) {
    inbox.combined.assign(static_cast<size_t>(n) * msg_arity_, 0.0);
    inbox.has_message.assign(static_cast<size_t>(n), 0);
  } else {
    inbox.offsets.assign(static_cast<size_t>(n) + 1, 0);
  }

  ThreadPool pool(static_cast<size_t>(workers));
  int64_t total_messages = 0;
  int superstep = 0;
  prev_aggregates_.clear();

  for (; superstep < options_.max_supersteps; ++superstep) {
    if (superstep > 0 && inbox.total_messages == 0 &&
        std::all_of(halted_.begin(), halted_.end(),
                    [](uint8_t h) { return h != 0; })) {
      break;
    }

    // ---- Compute phase: range-partitioned parallel workers. -----------
    std::vector<Outbox> outboxes(static_cast<size_t>(workers),
                                 Outbox(msg_arity_));
    std::atomic<int64_t> active{0};
    const int64_t chunk = (n + workers - 1) / workers;
    pool.ParallelFor(static_cast<size_t>(workers), [&](size_t w) {
      const int64_t begin = static_cast<int64_t>(w) * chunk;
      const int64_t end = std::min(n, begin + chunk);
      Outbox& outbox = outboxes[w];
      std::map<std::string, double> local_aggs;

      VertexContext ctx;
      ctx.superstep_ = superstep;
      ctx.num_vertices_ = n;
      ctx.msg_arity_ = msg_arity_;
      ctx.value_.resize(static_cast<size_t>(value_arity_));
      ctx.prev_aggregates_ = &prev_aggregates_;
      ctx.local_aggregates_ = &local_aggs;
      ctx.aggregator_kinds_ = &agg_kinds;
      ctx.out_ = &outbox.messages;
      ctx.write_src_ = false;

      int64_t local_active = 0;
      for (int64_t v = begin; v < end; ++v) {
        const auto sv = static_cast<size_t>(v);
        const int64_t msgs = inbox.MessageCount(v);
        const bool is_active =
            superstep == 0 || halted_[sv] == 0 || msgs > 0;
        if (!is_active) continue;
        ++local_active;

        // Populate the context.
        ctx.vertex_id_ = v;
        ctx.halted_ = false;
        ctx.modified_ = false;
        std::copy(values_.begin() + sv * value_arity_,
                  values_.begin() + (sv + 1) * value_arity_,
                  ctx.value_.begin());
        const auto first = static_cast<size_t>(csr_.offsets[sv]);
        ctx.edge_dst_ = csr_.neighbors.data() + first;
        ctx.edge_weight_ = csr_.weights.data() + first;
        ctx.num_edges_ = csr_.degree(v);
        ctx.msg_data_.clear();
        ctx.num_messages_ = msgs;
        if (msgs > 0) {
          if (inbox.use_combined) {
            ctx.msg_data_.assign(
                inbox.combined.begin() + sv * msg_arity_,
                inbox.combined.begin() + (sv + 1) * msg_arity_);
          } else {
            ctx.msg_data_.assign(
                inbox.data.begin() +
                    static_cast<size_t>(inbox.offsets[sv]) * msg_arity_,
                inbox.data.begin() +
                    static_cast<size_t>(inbox.offsets[sv + 1]) * msg_arity_);
          }
        }

        program_->Compute(&ctx);

        // Write back state.
        std::copy(ctx.value_.begin(), ctx.value_.end(),
                  values_.begin() + sv * value_arity_);
        halted_[sv] = ctx.halted_ ? 1 : 0;
      }
      outbox.aggregates = std::move(local_aggs);
      active.fetch_add(local_active, std::memory_order_relaxed);
    });

    // ---- Barrier: merge aggregators, deliver messages. -----------------
    std::map<std::string, double> new_aggregates;
    for (const auto& spec : agg_specs) {
      new_aggregates[spec.name] = AggregatorIdentity(spec.kind);
    }
    for (const auto& outbox : outboxes) {
      for (const auto& [name, v] : outbox.aggregates) {
        auto it = agg_kinds.find(name);
        if (it == agg_kinds.end()) continue;
        new_aggregates[name] =
            MergeAggregate(it->second, new_aggregates[name], v);
      }
    }
    prev_aggregates_ = std::move(new_aggregates);

    int64_t sent = 0;
    for (const auto& outbox : outboxes) {
      sent += static_cast<int64_t>(outbox.messages.dst.size());
    }
    total_messages += sent;

    // A message to a vertex outside [0, n) has no receiver and is dropped,
    // as Vertexica drops it (its dst matches no vertex row).
    const auto delivered = [n](int64_t d) { return d >= 0 && d < n; };
    if (combine) {
      std::fill(inbox.has_message.begin(), inbox.has_message.end(), 0);
      for (const auto& outbox : outboxes) {
        const MessageColumns& out = outbox.messages;
        for (size_t m = 0; m < out.dst.size(); ++m) {
          if (!delivered(out.dst[m])) continue;
          const auto d = static_cast<size_t>(out.dst[m]);
          double* slot = inbox.combined.data() + d * msg_arity_;
          if (inbox.has_message[d] == 0) {
            for (int c = 0; c < msg_arity_; ++c) slot[c] = out.values[c][m];
            inbox.has_message[d] = 1;
          } else {
            for (int c = 0; c < msg_arity_; ++c) {
              const double p = out.values[c][m];
              switch (combiner) {
                case MessageCombiner::kSum:
                  slot[c] += p;
                  break;
                case MessageCombiner::kMin:
                  slot[c] = std::min(slot[c], p);
                  break;
                case MessageCombiner::kMax:
                  slot[c] = std::max(slot[c], p);
                  break;
                case MessageCombiner::kNone:
                  break;
              }
            }
          }
        }
      }
    } else {
      // Counting-sort delivery into a bucketed inbox.
      std::vector<int64_t> counts(static_cast<size_t>(n) + 1, 0);
      for (const auto& outbox : outboxes) {
        for (int64_t d : outbox.messages.dst) {
          if (delivered(d)) counts[static_cast<size_t>(d) + 1]++;
        }
      }
      for (size_t v = 1; v < counts.size(); ++v) counts[v] += counts[v - 1];
      inbox.offsets = counts;
      inbox.data.assign(static_cast<size_t>(counts.back()) * msg_arity_, 0.0);
      std::vector<int64_t> cursor(inbox.offsets.begin(),
                                  inbox.offsets.end() - 1);
      for (const auto& outbox : outboxes) {
        const MessageColumns& out = outbox.messages;
        for (size_t m = 0; m < out.dst.size(); ++m) {
          if (!delivered(out.dst[m])) continue;
          const auto d = static_cast<size_t>(out.dst[m]);
          double* slot =
              inbox.data.data() + static_cast<size_t>(cursor[d]++) * msg_arity_;
          for (int c = 0; c < msg_arity_; ++c) slot[c] = out.values[c][m];
        }
      }
    }
    inbox.total_messages = sent;

    if (active.load() == 0 && sent == 0) {
      ++superstep;
      break;
    }
  }

  if (stats != nullptr) {
    stats->supersteps = superstep;
    stats->total_messages = total_messages;
    stats->compute_seconds = timer.ElapsedSeconds();
    stats->startup_seconds = options_.startup_overhead_ms / 1000.0;
    stats->message_seconds = static_cast<double>(total_messages) *
                             options_.per_message_overhead_ns * 1e-9;
    stats->total_seconds = stats->compute_seconds + stats->startup_seconds +
                           stats->message_seconds;
  }
  return Status::OK();
}

}  // namespace vertexica
