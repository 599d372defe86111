#include "exec/exec_knobs.h"

namespace vertexica {

ExecKnobs ExecKnobs::Capture() {
  ExecKnobs knobs;
  knobs.threads = ExecThreads();
  knobs.shards = ExecShards();
  knobs.encoding = AmbientEncodingMode();
  knobs.frontier = AmbientFrontierMode();
  knobs.vectorized = VectorizedEnabled();
  knobs.cancel = AmbientCancelToken();
  knobs.kernel_stats = AmbientKernelStats();
  return knobs;
}

}  // namespace vertexica
