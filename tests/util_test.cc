// Tests for the utility substrate: PRNG, status, env knobs, parallel loop,
// table rendering, and the wall timer.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <set>
#include <vector>

#include "util/env.h"
#include "util/parallel_for.h"
#include "util/prng.h"
#include "util/status.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace atr {
namespace {

TEST(Rng, DeterministicStreams) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  Rng c(124);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= (a.Next() != c.Next());
  EXPECT_TRUE(any_diff);
}

TEST(Rng, BoundedValuesStayInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
    const int64_t v = rng.NextInRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BoundedCoversAllResidues) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.NextBounded(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, SampleWithoutReplacementProperties) {
  Rng rng(21);
  const std::vector<uint32_t> sample = rng.SampleWithoutReplacement(100, 30);
  ASSERT_EQ(sample.size(), 30u);
  for (size_t i = 1; i < sample.size(); ++i) {
    EXPECT_LT(sample[i - 1], sample[i]);  // sorted, distinct
  }
  EXPECT_LT(sample.back(), 100u);
  // Full draw returns everything.
  const std::vector<uint32_t> all = rng.SampleWithoutReplacement(10, 10);
  EXPECT_EQ(all.size(), 10u);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(33);
  std::vector<int> v = {0, 1, 2, 3, 4, 5, 6, 7};
  rng.Shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Status, OkAndErrorStates) {
  EXPECT_TRUE(Status::Ok().ok());
  const Status err = Status::InvalidArgument("bad input");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(err.message(), "bad input");
}

TEST(StatusOr, HoldsValueOrStatus) {
  StatusOr<int> value(42);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 42);
  StatusOr<int> error(Status::NotFound("missing"));
  EXPECT_FALSE(error.ok());
  EXPECT_EQ(error.status().code(), StatusCode::kNotFound);
}

TEST(Env, ParsesAndDefaults) {
  ::setenv("ATR_TEST_INT", "123", 1);
  ::setenv("ATR_TEST_BAD", "12x", 1);
  ::setenv("ATR_TEST_DBL", "0.5", 1);
  EXPECT_EQ(GetEnvInt64("ATR_TEST_INT", 7), 123);
  EXPECT_EQ(GetEnvInt64("ATR_TEST_BAD", 7), 7);
  EXPECT_EQ(GetEnvInt64("ATR_TEST_UNSET_XYZ", 7), 7);
  EXPECT_DOUBLE_EQ(GetEnvDouble("ATR_TEST_DBL", 1.0), 0.5);
  EXPECT_EQ(GetEnvString("ATR_TEST_INT", ""), "123");
  ::unsetenv("ATR_TEST_INT");
  ::unsetenv("ATR_TEST_BAD");
  ::unsetenv("ATR_TEST_DBL");
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  constexpr int64_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(kN, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (int64_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, HandlesEmptyAndTinyRanges) {
  int calls = 0;
  ParallelFor(0, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int64_t> sum{0};
  ParallelFor(3, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 3);
}

TEST(ScopedParallelism, NestedOverridesRestoreInDestructionOrder) {
  const int ambient = ParallelWorkerCount();
  {
    ScopedParallelism outer(5);
    EXPECT_EQ(ParallelWorkerCount(), 5);
    {
      ScopedParallelism inner(2);
      EXPECT_EQ(ParallelWorkerCount(), 2);
      {
        ScopedParallelism noop(0);  // non-positive: leaves setting untouched
        EXPECT_EQ(ParallelWorkerCount(), 2);
        ScopedParallelism negative(-3);
        EXPECT_EQ(ParallelWorkerCount(), 2);
      }
      EXPECT_EQ(ParallelWorkerCount(), 2);
    }
    EXPECT_EQ(ParallelWorkerCount(), 5);
  }
  EXPECT_EQ(ParallelWorkerCount(), ambient);
}

TEST(ParallelFor, RangeSmallerThanWorkerCount) {
  // n < workers: at most n chunks run, still covering [0, n) exactly once.
  ScopedParallelism parallelism(16);
  constexpr int64_t kN = 5;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(kN, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (int64_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelForChunked, ChunkOrdinalsAreDenseAndBoundariesExact) {
  // Sweep n around worker-count multiples to hit every chunk-boundary
  // shape: n % workers == 0, == 1, == workers - 1, and n < workers.
  for (const int workers : {1, 2, 3, 4, 8}) {
    ScopedParallelism parallelism(workers);
    for (const int64_t n : {0, 1, 2, 7, 8, 9, 15, 16, 17, 100}) {
      const int expected_chunks = ParallelChunkCount(n);
      std::mutex mu;
      std::vector<std::array<int64_t, 3>> seen;  // (chunk, begin, end)
      ParallelForChunked(n, [&](int chunk, int64_t begin, int64_t end) {
        std::lock_guard<std::mutex> lock(mu);
        seen.push_back({chunk, begin, end});
      });
      if (n == 0) {
        EXPECT_EQ(expected_chunks, 0);
        EXPECT_TRUE(seen.empty());
        continue;
      }
      ASSERT_EQ(static_cast<int>(seen.size()), expected_chunks)
          << "workers " << workers << " n " << n;
      std::sort(seen.begin(), seen.end());
      int64_t cursor = 0;
      for (int c = 0; c < expected_chunks; ++c) {
        EXPECT_EQ(seen[c][0], c) << "dense ordinals";
        EXPECT_EQ(seen[c][1], cursor) << "contiguous begin";
        EXPECT_LT(seen[c][1], seen[c][2]) << "non-empty chunk";
        cursor = seen[c][2];
      }
      EXPECT_EQ(cursor, n) << "chunks cover [0, n)";
    }
  }
}

TEST(ParallelChunkCount, OneNonEmptyChunkPerEffectiveWorker) {
  // The old ceil(n / workers) chunk-length rounding starved workers on
  // tiny ranges: n = 5 with 4 workers made length-2 chunks — 2/2/1 across
  // three chunks, one worker idle. The contract now is min(workers, n)
  // chunks, always all non-empty.
  {
    ScopedParallelism parallelism(4);
    EXPECT_EQ(ParallelChunkCount(5), 4);
    EXPECT_EQ(ParallelChunkCount(3), 3);
    EXPECT_EQ(ParallelChunkCount(4), 4);
    EXPECT_EQ(ParallelChunkCount(100), 4);
    EXPECT_EQ(ParallelChunkCount(1), 1);
    EXPECT_EQ(ParallelChunkCount(0), 0);
    EXPECT_EQ(ParallelChunkCount(-7), 0);
  }
  {
    ScopedParallelism parallelism(8);
    EXPECT_EQ(ParallelChunkCount(8), 8);
    EXPECT_EQ(ParallelChunkCount(9), 8);
    EXPECT_EQ(ParallelChunkCount(7), 7);
  }
}

TEST(ParallelForChunked, ChunksAreBalancedAndNonEmpty) {
  // The balanced partition: every chunk non-empty, lengths differ by at
  // most one, larger chunks first-come in index order.
  for (const int workers : {2, 3, 4, 8}) {
    ScopedParallelism parallelism(workers);
    for (const int64_t n : {1, 2, 5, 7, 9, 31}) {
      std::mutex mu;
      std::vector<int64_t> lengths(static_cast<size_t>(ParallelChunkCount(n)),
                                   -1);
      ParallelForChunked(n, [&](int chunk, int64_t begin, int64_t end) {
        std::lock_guard<std::mutex> lock(mu);
        lengths[static_cast<size_t>(chunk)] = end - begin;
      });
      int64_t lo = n;
      int64_t hi = 0;
      for (const int64_t len : lengths) {
        ASSERT_GT(len, 0) << "workers " << workers << " n " << n
                          << ": empty or unvisited chunk";
        lo = std::min(lo, len);
        hi = std::max(hi, len);
      }
      EXPECT_LE(hi - lo, 1) << "workers " << workers << " n " << n;
    }
  }
}

TEST(ParallelFor, NestedCallsRunInlineInsideWorkers) {
  // A ParallelFor issued from inside a worker body must not fan out a
  // second level of threads: the nested call sees one worker and runs
  // inline, so per-chunk state in the outer loop stays single-writer.
  ScopedParallelism parallelism(4);
  std::atomic<int> nested_violations{0};
  std::atomic<int64_t> covered{0};
  ParallelFor(8, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      if (ParallelWorkerCount() != 1) nested_violations.fetch_add(1);
      if (ParallelChunkCount(100) != 1) nested_violations.fetch_add(1);
      ParallelFor(10, [&](int64_t b, int64_t e) {
        covered.fetch_add(e - b);
      });
    }
  });
  EXPECT_EQ(nested_violations.load(), 0);
  EXPECT_EQ(covered.load(), 80);  // 8 outer iterations x 10 inner elements
}

TEST(TablePrinter, AlignsColumnsAndFormatsNumbers) {
  TablePrinter t({"Dataset", "Edges"});
  t.AddRow({"college", TablePrinter::FormatInt(13838)});
  t.AddRow({"x", "1"});
  const std::string rendered = t.ToString();
  EXPECT_NE(rendered.find("13,838"), std::string::npos);
  EXPECT_NE(rendered.find("Dataset"), std::string::npos);
  EXPECT_EQ(TablePrinter::FormatInt(1234567), "1,234,567");
  EXPECT_EQ(TablePrinter::FormatInt(-42), "-42");
  EXPECT_EQ(TablePrinter::FormatPercent(0.817), "81.7%");
  EXPECT_EQ(TablePrinter::FormatSeconds(1.23456), "1.235");
}

TEST(WallTimer, IsMonotone) {
  WallTimer timer;
  const double first = timer.ElapsedSeconds();
  const double second = timer.ElapsedSeconds();
  EXPECT_GE(second, first);
  EXPECT_GE(first, 0.0);
}

}  // namespace
}  // namespace atr
