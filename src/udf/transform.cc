#include "udf/transform.h"

#include <algorithm>

#include "exec/parallel.h"
#include "storage/partition.h"
#include "storage/sort.h"

namespace vertexica {

TransformParallelism ResolveTransformParallelism(const TransformOptions& opts) {
  TransformParallelism out;
  out.partitions = opts.num_partitions > 0 ? opts.num_partitions
                                           : kDefaultTransformPartitions;
  out.workers = opts.num_workers > 0 ? opts.num_workers : ExecThreads();
  // Enforce the documented partitions >= workers invariant.
  out.workers = std::max(1, std::min(out.workers, out.partitions));
  return out;
}

Result<Table> ApplyTransform(const Table& input, int partition_column,
                             const TransformUdfFactory& factory,
                             const TransformOptions& options) {
  if (partition_column < 0 || partition_column >= input.num_columns()) {
    return Status::InvalidArgument("ApplyTransform: bad partition column");
  }
  const TransformParallelism par = ResolveTransformParallelism(options);

  std::vector<Table> parts =
      HashPartition(input, partition_column, par.partitions);

  // Pre-sort partitions (the §2.3 "each partition is sorted on vertex id"
  // step) and prepare one output slot per partition so emission order is
  // deterministic regardless of scheduling.
  std::vector<SortKey> keys;
  for (int c : options.sort_columns) keys.push_back(SortKey{c, true});

  // Discover the output schema from a throwaway instance.
  const Schema out_schema = factory()->output_schema();

  std::vector<Table> outputs(parts.size(), Table(out_schema));

  VX_RETURN_NOT_OK(ThreadPool::Default()->ParallelFor(
      0, parts.size(), /*grain=*/1,
      [&](size_t begin, size_t end) -> Status {
        for (size_t p = begin; p < end; ++p) {
          Table partition =
              keys.empty() ? std::move(parts[p]) : SortTable(parts[p], keys);
          if (partition.num_rows() == 0) continue;
          auto udf = factory();
          Table& out = outputs[p];
          VX_RETURN_NOT_OK(udf->ProcessPartition(
              partition, [&out](Table batch) { return out.Append(batch); }));
        }
        return Status::OK();
      },
      par.workers));

  Table result(out_schema);
  for (auto& out : outputs) {
    VX_RETURN_NOT_OK(result.Append(out));
  }
  return result;
}

}  // namespace vertexica
