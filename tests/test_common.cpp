// Unit tests for the common substrate: bitsets, RNG, thread pool, the env
// table, formatting, parallel helpers.
#include <gtest/gtest.h>

#include <fstream>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "common/bitset.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "common/format.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"

namespace mlvc {
namespace {

// ---- DynamicBitset ---------------------------------------------------------

TEST(DynamicBitset, SetTestClear) {
  DynamicBitset b(100);
  EXPECT_EQ(b.count(), 0u);
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(99);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(99));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 4u);
  b.set(63, false);
  EXPECT_FALSE(b.test(63));
  EXPECT_EQ(b.count(), 3u);
}

TEST(DynamicBitset, OutOfRangeThrows) {
  DynamicBitset b(10);
  EXPECT_THROW(b.test(10), Error);
  EXPECT_THROW(b.set(10), Error);
}

TEST(DynamicBitset, SetAllRespectsSize) {
  DynamicBitset b(70);  // not a multiple of 64
  b.set_all();
  EXPECT_EQ(b.count(), 70u);
}

TEST(DynamicBitset, ForEachSetAscending) {
  DynamicBitset b(200);
  const std::vector<std::size_t> expected = {3, 64, 65, 127, 128, 199};
  for (auto i : expected) b.set(i);
  std::vector<std::size_t> seen;
  b.for_each_set([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, expected);
}

TEST(DynamicBitset, ForEachSetInRange) {
  DynamicBitset b(256);
  for (std::size_t i = 0; i < 256; i += 3) b.set(i);
  std::vector<std::size_t> seen;
  b.for_each_set_in_range(10, 70, [&](std::size_t i) { seen.push_back(i); });
  for (std::size_t i : seen) {
    EXPECT_GE(i, 10u);
    EXPECT_LT(i, 70u);
    EXPECT_EQ(i % 3, 0u);
  }
  EXPECT_EQ(seen.size(), (69 - 12) / 3 + 1u);
}

TEST(DynamicBitset, ForEachSetInRangeEdgeCases) {
  DynamicBitset b(128);
  b.set(0);
  b.set(127);
  std::size_t calls = 0;
  b.for_each_set_in_range(5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0u);
  b.for_each_set_in_range(0, 128, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 2u);
  b.for_each_set_in_range(127, 128, [&](std::size_t i) { EXPECT_EQ(i, 127u); });
}

TEST(DynamicBitset, OrAssign) {
  DynamicBitset a(100), b(100);
  a.set(1);
  b.set(2);
  a |= b;
  EXPECT_TRUE(a.test(1));
  EXPECT_TRUE(a.test(2));
}

// ---- AtomicBitset ----------------------------------------------------------

TEST(AtomicBitset, FirstSetterWins) {
  AtomicBitset b(64);
  EXPECT_TRUE(b.set(7));
  EXPECT_FALSE(b.set(7));
  EXPECT_TRUE(b.test(7));
  EXPECT_EQ(b.count(), 1u);
}

TEST(AtomicBitset, ConcurrentSetsAllLand) {
  AtomicBitset b(10000);
  parallel_for(0, 10000, [&](int i) { b.set(static_cast<std::size_t>(i)); });
  EXPECT_EQ(b.count(), 10000u);
}

TEST(AtomicBitset, SnapshotMatches) {
  AtomicBitset b(130);
  b.set(0);
  b.set(129);
  const DynamicBitset s = b.snapshot();
  EXPECT_TRUE(s.test(0));
  EXPECT_TRUE(s.test(129));
  EXPECT_EQ(s.count(), 2u);
}

// ---- SplitMix64 ------------------------------------------------------------

TEST(SplitMix64, DeterministicPerSeed) {
  SplitMix64 a(42), b(42), c(43);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(SplitMix64, NextBelowInRange) {
  SplitMix64 rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(SplitMix64, NextDoubleInUnitInterval) {
  SplitMix64 rng(2);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(SplitMix64, NextBelowRoughlyUniform) {
  SplitMix64 rng(3);
  std::vector<int> buckets(10, 0);
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) ++buckets[rng.next_below(10)];
  for (int count : buckets) {
    EXPECT_NEAR(count, kN / 10, kN / 100);  // within 10% of expectation
  }
}

TEST(StreamFor, IndependentStreams) {
  // Streams for different (vertex, superstep) pairs must differ.
  std::set<std::uint64_t> firsts;
  for (std::uint64_t v = 0; v < 100; ++v) {
    for (std::uint64_t s = 0; s < 4; ++s) {
      firsts.insert(stream_for(1, v, s).next());
    }
  }
  EXPECT_EQ(firsts.size(), 400u);
}

// ---- ThreadPool ------------------------------------------------------------

TEST(ThreadPool, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ReturnsValues) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 7 * 6; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, WaitIdleDrains) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 50);
}

// ---- env table -------------------------------------------------------------

TEST(EnvTable, ReadmeListsExactlyItsRows) {
  // README's "Environment variables" table documents the code table: one
  // line per row, in order, with the same accepted values, flag and doc.
  std::vector<std::string> want;
  for (const env::Var* var : env::kVars) {
    std::string accepted = var->accepted;
    for (std::size_t at = 0; (at = accepted.find('|', at)) != accepted.npos;
         at += 2) {
      accepted.insert(at, "\\");
    }
    const std::string flag = *var->flag ? "`--" + std::string(var->flag) + "`"
                                        : std::string();
    want.push_back("| `" + std::string(var->name) + "` | " + accepted + " | " +
                   flag + " | " + var->doc + " |");
  }
  std::ifstream in(README_PATH);
  ASSERT_TRUE(in.good());
  std::vector<std::string> listed;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("| `MLVC_", 0) == 0) listed.push_back(line);
  }
  EXPECT_EQ(listed, want);
}

// ---- format helpers --------------------------------------------------------

TEST(Format, Bytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2.00 KiB");
  EXPECT_EQ(format_bytes(3u << 20), "3.00 MiB");
}

TEST(Format, Count) {
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(1000), "1,000");
  EXPECT_EQ(format_count(1234567), "1,234,567");
}

TEST(Format, Fixed) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
}

// ---- parallel helpers ------------------------------------------------------

TEST(Parallel, ForCoversRange) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(std::size_t{0}, std::size_t{1000},
               [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, SortMatchesStdSort) {
  SplitMix64 rng(5);
  std::vector<std::uint64_t> v(100000);
  for (auto& x : v) x = rng.next();
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  parallel_sort(v.begin(), v.end());
  EXPECT_EQ(v, expected);
}

// ---- MLVC_CHECK ------------------------------------------------------------

TEST(Check, ThrowsWithMessage) {
  try {
    MLVC_CHECK_MSG(1 == 2, "custom detail " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("custom detail 42"),
              std::string::npos);
  }
}

TEST(Timer, MeasuresElapsed) {
  WallTimer t;
  double acc = 0;
  {
    ScopedAccumulator scope(acc);
    volatile double x = 0;
    for (int i = 0; i < 100000; ++i) x = x + 1;
  }
  EXPECT_GE(acc, 0.0);
  EXPECT_GE(t.elapsed_seconds(), acc * 0.5);
}

}  // namespace
}  // namespace mlvc
