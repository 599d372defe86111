#include "pipeline/dataflow.h"

#include <algorithm>

#include "common/exec_knobs.h"
#include "common/logging.h"
#include "common/threadpool.h"
#include "common/timer.h"

namespace vertexica {

int Pipeline::AddNode(PipelineNodePtr node, std::vector<int> inputs) {
  for (int in : inputs) {
    VX_CHECK(in >= 0 && in < num_nodes()) << "bad pipeline input id " << in;
  }
  nodes_.push_back(Entry{std::move(node), std::move(inputs), false, Table()});
  return num_nodes() - 1;
}

Status Pipeline::ComputeNode(int node_id) {
  Entry& entry = nodes_[static_cast<size_t>(node_id)];
  std::vector<Table> inputs;
  inputs.reserve(entry.inputs.size());
  for (int in : entry.inputs) {
    inputs.push_back(nodes_[static_cast<size_t>(in)].output);
  }
  WallTimer timer;
  VX_ASSIGN_OR_RETURN(entry.output, entry.node->Run(inputs));
  {
    std::lock_guard<std::mutex> lock(timings_mutex_);
    timings_.push_back(
        NodeTiming{node_id, entry.node->name(), timer.ElapsedSeconds()});
  }
  entry.computed = true;
  return Status::OK();
}

Result<Table> Pipeline::Run(int node_id) {
  if (node_id < 0 || node_id >= num_nodes()) {
    return Status::InvalidArgument("no such pipeline node");
  }

  // Mark the sub-DAG the target depends on (DAG ⇒ the stack terminates).
  std::vector<bool> needed(nodes_.size(), false);
  std::vector<int> stack{node_id};
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    if (needed[static_cast<size_t>(id)]) continue;
    needed[static_cast<size_t>(id)] = true;
    if (nodes_[static_cast<size_t>(id)].computed) continue;
    for (int in : nodes_[static_cast<size_t>(id)].inputs) stack.push_back(in);
  }

  // Evaluate in waves of ready nodes; each wave fans out on the pool,
  // whose tasks run under the caller's request context.
  const int threads = ExecThreads();
  while (!nodes_[static_cast<size_t>(node_id)].computed) {
    std::vector<int> ready;
    for (size_t id = 0; id < nodes_.size(); ++id) {
      if (!needed[id] || nodes_[id].computed) continue;
      const auto& inputs = nodes_[id].inputs;
      const bool runnable =
          std::all_of(inputs.begin(), inputs.end(), [this](int in) {
            return nodes_[static_cast<size_t>(in)].computed;
          });
      if (runnable) ready.push_back(static_cast<int>(id));
    }
    VX_CHECK(!ready.empty()) << "pipeline DAG made no progress";

    if (ready.size() == 1 || threads <= 1) {
      for (int id : ready) {
        VX_RETURN_NOT_OK(ComputeNode(id));
      }
    } else {
      VX_RETURN_NOT_OK(ThreadPool::Default()->ParallelFor(
          0, ready.size(), /*grain=*/1,
          [&](size_t begin, size_t end) -> Status {
            for (size_t i = begin; i < end; ++i) {
              VX_RETURN_NOT_OK(ComputeNode(ready[i]));
            }
            return Status::OK();
          },
          threads));
    }
  }
  return nodes_[static_cast<size_t>(node_id)].output;
}

void Pipeline::Reset() {
  for (auto& entry : nodes_) {
    entry.computed = false;
    entry.output = Table();
  }
  timings_.clear();
}

}  // namespace vertexica
