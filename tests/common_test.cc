// Unit tests for the common substrate: Status/Result, thread pool, RNG,
// hashing, string utilities.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <set>
#include <string_view>
#include <thread>

#include "common/cache_sizing.h"
#include "common/cancel.h"
#include "common/crc32.h"
#include "common/exec_knobs.h"
#include "common/fault_injection.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/threadpool.h"

namespace vertexica {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
  EXPECT_TRUE(st.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad column");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(st.message(), "bad column");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad column");
}

TEST(StatusTest, AllFactoryPredicates) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::TypeError("x").IsTypeError());
  EXPECT_TRUE(Status::IoError("x").IsIoError());
  EXPECT_TRUE(Status::NotImplemented("x").IsNotImplemented());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
}

TEST(StatusTest, CopyPreservesState) {
  Status a = Status::NotFound("missing");
  Status b = a;
  EXPECT_TRUE(b.IsNotFound());
  EXPECT_EQ(b.message(), "missing");
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x * 2;
}

Status UseParse(int x, int* out) {
  VX_ASSIGN_OR_RETURN(*out, ParsePositive(x));
  return Status::OK();
}

TEST(ResultTest, ValuePath) {
  Result<int> r = ParsePositive(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, ErrorPath) {
  Result<int> r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseParse(5, &out).ok());
  EXPECT_EQ(out, 10);
  EXPECT_TRUE(UseParse(-5, &out).IsInvalidArgument());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).MoveValueUnsafe();
  EXPECT_EQ(*v, 7);
}

TEST(ThreadPoolTest, SubmitReturnsFutures) {
  ThreadPool pool(4);
  auto f1 = pool.Submit([] { return 1 + 1; });
  auto f2 = pool.Submit([] { return std::string("hi"); });
  EXPECT_EQ(f1.get(), 2);
  EXPECT_EQ(f2.get(), "hi");
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroAndOne) {
  ThreadPool pool(2);
  int count = 0;
  pool.ParallelFor(0, [&](size_t) { ++count; });
  EXPECT_EQ(count, 0);
  pool.ParallelFor(1, [&](size_t) { ++count; });
  EXPECT_EQ(count, 1);
}

TEST(BarrierTest, SynchronizesPhases) {
  constexpr int kThreads = 4;
  Barrier barrier(kThreads);
  std::atomic<int> phase0{0};
  std::atomic<int> phase1_saw_full_phase0{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      phase0++;
      barrier.ArriveAndWait();
      if (phase0.load() == kThreads) phase1_saw_full_phase0++;
      barrier.ArriveAndWait();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(phase1_saw_full_phase0.load(), kThreads);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    const int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, NextStringLowercase) {
  Rng rng(3);
  const std::string s = rng.NextString(64);
  EXPECT_EQ(s.size(), 64u);
  for (char c : s) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
}

TEST(ZipfTest, SkewsTowardSmallValues) {
  Rng rng(5);
  ZipfDistribution zipf(1000, 1.2);
  int64_t small = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const uint64_t v = zipf.Sample(&rng);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 1000u);
    if (v <= 10) ++small;
  }
  // With s=1.2, the top-10 values hold well over a third of the mass.
  EXPECT_GT(small, n / 3);
}

TEST(ZipfTest, ExponentZeroIsUniformish) {
  Rng rng(5);
  ZipfDistribution zipf(10, 0.0);
  std::vector<int> counts(11, 0);
  for (int i = 0; i < 10000; ++i) counts[zipf.Sample(&rng)]++;
  for (int k = 1; k <= 10; ++k) EXPECT_GT(counts[k], 700);
}

TEST(HashTest, Int64HashSpreads) {
  std::set<uint64_t> hashes;
  for (int64_t i = 0; i < 1000; ++i) {
    hashes.insert(HashInt64(static_cast<uint64_t>(i)));
  }
  EXPECT_EQ(hashes.size(), 1000u);
}

TEST(HashTest, PartitionOfIsInRangeAndBalanced) {
  // Vertex batching's bucket function: every key lands in [0, n), the
  // same key always in the same bucket, and sequential ids spread evenly.
  std::vector<int> counts(8, 0);
  for (int64_t i = 0; i < 10000; ++i) {
    const int p = PartitionOf(i, 8);
    ASSERT_GE(p, 0);
    ASSERT_LT(p, 8);
    EXPECT_EQ(PartitionOf(i, 8), p);
    ++counts[static_cast<size_t>(p)];
  }
  for (const int c : counts) {
    EXPECT_GT(c, 900);
    EXPECT_LT(c, 1600);
  }
}

TEST(HashTest, StringHashDistinguishes) {
  EXPECT_NE(HashString("abc"), HashString("abd"));
  EXPECT_EQ(HashString("abc"), HashString("abc"));
}

TEST(Int64HashMapTest, InsertFindGrow) {
  Int64HashMap<int> map;
  for (int64_t i = -500; i < 500; ++i) {
    map.GetOrInsert(i, static_cast<int>(i * 3));
  }
  EXPECT_EQ(map.size(), 1000u);
  for (int64_t i = -500; i < 500; ++i) {
    const int* v = map.Find(i);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, static_cast<int>(i * 3));
  }
  EXPECT_EQ(map.Find(10000), nullptr);
}

TEST(Int64HashMapTest, GetOrInsertReturnsExisting) {
  Int64HashMap<int> map;
  map.GetOrInsert(7, 1);
  int& v = map.GetOrInsert(7, 99);
  EXPECT_EQ(v, 1);
  v = 2;
  EXPECT_EQ(*map.Find(7), 2);
}

TEST(Int64HashMapTest, ForEachVisitsAll) {
  Int64HashMap<int64_t> map;
  for (int64_t i = 0; i < 100; ++i) map.GetOrInsert(i, i);
  int64_t sum = 0;
  map.ForEach([&](int64_t k, int64_t& v) { sum += k + v; });
  EXPECT_EQ(sum, 2 * (99 * 100 / 2));
}

TEST(Int64HashMapTest, ClearEmpties) {
  Int64HashMap<int> map;
  map.GetOrInsert(1, 1);
  map.Clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(1), nullptr);
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, JoinRoundTrip) {
  EXPECT_EQ(Join({"x", "y", "z"}, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, TrimWhitespace) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("vertex_table", "vertex"));
  EXPECT_FALSE(StartsWith("vert", "vertex"));
}

TEST(StringUtilTest, StringFormat) {
  EXPECT_EQ(StringFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StringFormat("%.2f", 3.14159), "3.14");
}

// ------------------------------------------------------------------ crc32

TEST(Crc32Test, KnownVectors) {
  // The canonical CRC-32 check value.
  EXPECT_EQ(Crc32(std::string_view("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32(std::string_view("")), 0u);
  EXPECT_NE(Crc32(std::string_view("a")), Crc32(std::string_view("b")));
}

TEST(Crc32Test, SeedChainingEqualsOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32(data);
  const uint32_t part = Crc32(data.data() + 10, data.size() - 10,
                              Crc32(data.data(), 10));
  EXPECT_EQ(part, whole);
}

// ------------------------------------------------------------ CancelToken

TEST(CancelTokenTest, NullTokenNeverFires) {
  CancelToken token;
  EXPECT_TRUE(token.null());
  EXPECT_FALSE(token.ShouldStop());
  EXPECT_TRUE(token.Check().ok());
  token.Cancel();  // no-op, not a crash
  EXPECT_TRUE(token.Check().ok());
  std::chrono::steady_clock::time_point unused;
  EXPECT_FALSE(token.deadline(&unused));
}

TEST(CancelTokenTest, CancelReachesEveryCopy) {
  CancelToken token = CancelToken::Make();
  CancelToken copy = token;
  EXPECT_TRUE(copy.Check().ok());
  token.Cancel();
  EXPECT_TRUE(copy.ShouldStop());
  EXPECT_TRUE(copy.Check().IsCancelled());
}

TEST(CancelTokenTest, DeadlineExpires) {
  CancelToken token = CancelToken().WithDeadlineAfter(0.0);
  EXPECT_TRUE(token.Check().IsDeadlineExceeded());
  std::chrono::steady_clock::time_point deadline;
  EXPECT_TRUE(token.deadline(&deadline));

  CancelToken far = CancelToken().WithDeadlineAfter(3600.0);
  EXPECT_TRUE(far.Check().ok());
}

TEST(CancelTokenTest, HugeDeadlineNeverExpires) {
  // Past the clock's range the seconds → ticks conversion would overflow;
  // such a deadline means none, not one already in the past.
  for (const double seconds :
       {1e10, 1e297, std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    const CancelToken token = CancelToken().WithDeadlineAfter(seconds);
    EXPECT_FALSE(token.ShouldStop()) << seconds;
    EXPECT_TRUE(token.Check().ok()) << seconds;
  }
  // A huge child deadline leaves the parent's deadline in charge.
  const CancelToken near = CancelToken().WithDeadlineAfter(0.0);
  EXPECT_TRUE(near.WithDeadlineAfter(1e297).Check().IsDeadlineExceeded());
}

TEST(CancelTokenTest, ChildObservesAncestorCancellation) {
  CancelToken parent = CancelToken::Make();
  CancelToken child = parent.WithDeadlineAfter(3600.0);
  EXPECT_TRUE(child.Check().ok());
  parent.Cancel();
  // Cancellation wins over the (distant) deadline and crosses the chain.
  EXPECT_TRUE(child.Check().IsCancelled());
  // The parent itself stays deadline-free.
  std::chrono::steady_clock::time_point deadline;
  EXPECT_FALSE(parent.deadline(&deadline));
  EXPECT_TRUE(child.deadline(&deadline));
}

TEST(CancelTokenTest, TightestDeadlineInChainWins) {
  CancelToken near = CancelToken().WithDeadlineAfter(1.0);
  CancelToken far = near.WithDeadlineAfter(3600.0);
  std::chrono::steady_clock::time_point tight, parent_deadline;
  ASSERT_TRUE(far.deadline(&tight));
  ASSERT_TRUE(near.deadline(&parent_deadline));
  EXPECT_EQ(tight, parent_deadline);  // the 1s ancestor bounds the child
}

TEST(CancelTokenTest, AmbientScopeInstallsAndRestores) {
  EXPECT_TRUE(ExecKnobs::Current().cancel.null());
  CancelToken token = CancelToken::Make();
  {
    ExecKnobs knobs = ExecKnobs::Current();
    knobs.cancel = token;
    ScopedExecKnobs scope(knobs);
    EXPECT_EQ(ExecKnobs::Current().cancel, token);
    token.Cancel();
    EXPECT_TRUE(ExecKnobs::Current().cancel.Check().IsCancelled());
  }
  EXPECT_TRUE(ExecKnobs::Current().cancel.null());
  EXPECT_TRUE(ExecKnobs::Current().cancel.Check().ok());
}

// -------------------------------------------------------- fault injection

namespace {
Status HitSite(const char* site) {
  VX_FAULT_POINT(site);
  return Status::OK();
}
}  // namespace

TEST(FaultInjectionTest, DisarmedIsANoOp) {
  DisarmAllFaults();
  EXPECT_FALSE(FaultInjectionArmed());
  EXPECT_TRUE(HitSite("test.nosite").ok());
  EXPECT_EQ(FaultHits("test.nosite"), 0);  // hits only counted while armed
}

TEST(FaultInjectionTest, NthHitFiresDeterministically) {
  ArmFault("test.site", 3);
  EXPECT_TRUE(FaultInjectionArmed());
  EXPECT_TRUE(HitSite("test.site").ok());
  EXPECT_TRUE(HitSite("test.site").ok());
  const Status fired = HitSite("test.site");
  EXPECT_TRUE(fired.IsAborted()) << fired.ToString();
  EXPECT_NE(fired.ToString().find("test.site"), std::string::npos);
  EXPECT_TRUE(HitSite("test.site").ok());  // one-shot: only the 3rd hit
  EXPECT_EQ(FaultHits("test.site"), 4);
  // An unrelated site armed at the same time is unaffected.
  EXPECT_TRUE(HitSite("test.other").ok());
  DisarmAllFaults();
  EXPECT_FALSE(FaultInjectionArmed());
}

TEST(FaultInjectionTest, EveryNthIsADeterministicFailureRate) {
  ArmFaultEvery("test.periodic", 3);
  int failures = 0;
  for (int i = 0; i < 9; ++i) {
    if (!HitSite("test.periodic").ok()) ++failures;
  }
  EXPECT_EQ(failures, 3);  // hits 3, 6, 9
  DisarmAllFaults();
}

TEST(FaultInjectionTest, SpecParsing) {
  ASSERT_TRUE(
      ArmFaultsFromSpec("a.one=1,b.two=%5:error,c.three=2:crash").ok());
  EXPECT_EQ(ArmedFaultSites(),
            (std::vector<std::string>{"a.one", "b.two", "c.three"}));
  DisarmAllFaults();

  // Malformed specs are rejected without arming anything.
  EXPECT_FALSE(ArmFaultsFromSpec("a.one").ok());
  EXPECT_FALSE(ArmFaultsFromSpec("a.one=0").ok());
  EXPECT_FALSE(ArmFaultsFromSpec("a.one=x").ok());
  EXPECT_FALSE(ArmFaultsFromSpec("a.one=1:explode").ok());
  EXPECT_FALSE(ArmFaultsFromSpec("=1").ok());
  EXPECT_FALSE(FaultInjectionArmed());
}

TEST(FaultInjectionTest, RearmResetsHitCount) {
  ArmFault("test.rearm", 2);
  EXPECT_TRUE(HitSite("test.rearm").ok());
  ArmFault("test.rearm", 2);  // reset: the next hit is #1 again
  EXPECT_TRUE(HitSite("test.rearm").ok());
  EXPECT_FALSE(HitSite("test.rearm").ok());
  DisarmAllFaults();
}

TEST(CacheSizingTest, PartitionCountScalesWithWorkingSet) {
  // One L2-sized budget per partition: below the budget → 1 partition.
  EXPECT_EQ(CacheSizedPartitionCount(0, 48, 64), 1);
  EXPECT_EQ(CacheSizedPartitionCount(1000, 48, 64), 1);
  // Exactly three partitions' worth of working set (floor division).
  const int64_t rows_3_parts = kCachePartitionBytes * 3 / 48;
  EXPECT_EQ(CacheSizedPartitionCount(rows_3_parts, 48, 64), 3);
  // Clamped to the caller's maximum, however large the build is.
  EXPECT_EQ(CacheSizedPartitionCount(int64_t{1} << 40, 48, 64), 64);
  EXPECT_EQ(CacheSizedPartitionCount(int64_t{1} << 40, 48, 16), 16);
}

TEST(CacheSizingTest, DegenerateBytesPerRowStaysValid) {
  // bytes_per_row <= 0 is treated as 1, never a divide-by-zero or a
  // zero-partition result.
  EXPECT_EQ(CacheSizedPartitionCount(100, 0, 64), 1);
  EXPECT_EQ(CacheSizedPartitionCount(100, -5, 64), 1);
  EXPECT_GE(CacheSizedPartitionCount(int64_t{1} << 30, 0, 64), 1);
}

TEST(CacheSizingTest, VertexBatchConstantIsNotDerived) {
  // The order-defining count is a constant of the dataflow; this pin keeps
  // an accidental "tune it" change from silently reordering results.
  EXPECT_EQ(kVertexBatchPartitions, 64);
}

}  // namespace
}  // namespace vertexica
