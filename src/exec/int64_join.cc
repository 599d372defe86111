#include "exec/int64_join.h"

#include "common/threadpool.h"

namespace vertexica {

Result<Int64JoinProbe> Int64JoinProbe::Make(const Column& probe_key,
                                            const Column& build_key,
                                            JoinType type, int threads,
                                            int64_t grain) {
  Int64JoinProbe probe;
  probe.index_ = CsrIndex::Build(build_key);
  if (probe.index_ == nullptr) {
    return Status::Internal("Int64JoinProbe: build key is not NULL-free INT64");
  }
  probe.keys_ = probe_key.ints().data();
  probe.probe_rows_ = probe_key.length();
  probe.grain_ = grain;
  const auto chunks =
      static_cast<size_t>((probe.probe_rows_ + grain - 1) / grain);

  // Output rows per morsel, then each morsel's first output row;
  // `one_each[j]`: every probe row of morsel j yields exactly one row.
  probe.offset_.assign(chunks + 1, 0);
  std::vector<uint8_t> one_each(chunks, 1);
  VX_RETURN_NOT_OK(ThreadPool::Default()->ParallelFor(
      0, chunks, 1,
      [&](size_t begin, size_t end) {
        for (size_t j = begin; j < end; ++j) {
          int64_t n = 0;
          probe.ForEachProbeRow(j, [&](int64_t, CsrIndex::Slice m) {
            const int64_t rows = JoinOutputRows(type, m.length());
            if (rows != 1) one_each[j] = 0;
            n += rows;
          });
          probe.offset_[j + 1] = n;
        }
        return Status::OK();
      },
      threads));
  for (size_t j = 0; j < chunks; ++j) {
    probe.offset_[j + 1] += probe.offset_[j];
    probe.one_each_ = probe.one_each_ && one_each[j] != 0;
  }
  return probe;
}

}  // namespace vertexica
