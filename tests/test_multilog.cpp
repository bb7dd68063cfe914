// Tests for the multi-log machinery: the per-interval message store (top
// pages, batched eviction, generations, async drain), sort-and-group,
// the active set, the history predictor, and the page-utilization tracker.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <thread>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "multilog/active_set.hpp"
#include "multilog/multilog_store.hpp"
#include "multilog/page_util.hpp"
#include "multilog/predictor.hpp"
#include "multilog/record.hpp"
#include "multilog/sort_group.hpp"
#include "ssd/async_io.hpp"
#include "tests/test_util.hpp"

namespace mlvc::multilog {
namespace {

struct Env {
  ssd::TempDir dir;
  ssd::Storage storage;
  Env() : storage(dir.path(), [] {
            ssd::DeviceConfig d;
            d.page_size = 4_KiB;
            return d;
          }()) {}
};

using TestRecord = Record<std::uint32_t>;

std::vector<TestRecord> load_records(MultiLogStore& store, IntervalId i) {
  std::vector<std::byte> bytes;
  store.load_interval(i, bytes);
  return decode_records<std::uint32_t>(bytes);
}

/// Commit `sends` the way the engine does: batches of `batch` records, each
/// cut into producer chunks of `depth` records, committed in chunk order.
/// Returns the intervals committed over all batches.
template <typename Message>
std::size_t commit_sends(MultiLogStore& store,
                         const std::vector<Record<Message>>& sends,
                         std::size_t depth, std::size_t batch = 4096) {
  std::size_t commits = 0;
  for (std::size_t b = 0; b < sends.size(); b += batch) {
    const std::size_t end = std::min(sends.size(), b + batch);
    std::vector<std::vector<Record<Message>>> chunks;
    for (std::size_t k = b; k < end; k += depth) {
      chunks.emplace_back(sends.begin() + k,
                          sends.begin() + std::min(end, k + depth));
    }
    commits += commit_records<Message>(store, chunks);
  }
  return commits;
}

/// Every byte of a store's generation blob (flushed pages, in page order).
std::vector<std::byte> blob_bytes(ssd::Storage& storage,
                                  const std::string& name) {
  ssd::Blob& blob = storage.open_blob(name);
  std::vector<std::byte> bytes(blob.size());
  if (!bytes.empty()) blob.read(0, bytes.data(), bytes.size());
  return bytes;
}

// ---- MultiLogStore ---------------------------------------------------------

TEST(MultiLogStore, MessagesLandInDestinationIntervalLog) {
  Env env;
  const auto iv = graph::VertexIntervals::uniform(100, 10);
  MultiLogStore store(env.storage, "t", iv, {.record_size = 8});

  append_record<std::uint32_t>(store, 5, 100);    // interval 0
  append_record<std::uint32_t>(store, 15, 200);   // interval 1
  append_record<std::uint32_t>(store, 17, 300);   // interval 1
  append_record<std::uint32_t>(store, 99, 400);   // interval 9

  EXPECT_EQ(store.produced_count(0), 1u);
  EXPECT_EQ(store.produced_count(1), 2u);
  EXPECT_EQ(store.produced_count(9), 1u);
  EXPECT_EQ(store.produced_count(5), 0u);

  store.swap_generations();
  EXPECT_EQ(store.current_count(1), 2u);
  EXPECT_EQ(store.total_current_count(), 4u);

  const auto recs = load_records(store, 1);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].dst, 15u);
  EXPECT_EQ(recs[0].payload, 200u);
  EXPECT_EQ(recs[1].dst, 17u);
  EXPECT_EQ(recs[1].payload, 300u);
}

TEST(MultiLogStore, GenerationsAreIsolated) {
  Env env;
  const auto iv = graph::VertexIntervals::uniform(10, 5);
  MultiLogStore store(env.storage, "t", iv, {.record_size = 8});
  append_record<std::uint32_t>(store, 1, 1);
  store.swap_generations();
  // New sends go to the produce generation, not the consumable one.
  append_record<std::uint32_t>(store, 1, 2);
  EXPECT_EQ(store.current_count(0), 1u);
  const auto recs = load_records(store, 0);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].payload, 1u);
  store.swap_generations();
  const auto next = load_records(store, 0);
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].payload, 2u);
}

TEST(MultiLogStore, SpillsToStorageAndReloads) {
  Env env;
  const auto iv = graph::VertexIntervals::uniform(10, 5);
  MultiLogStore store(env.storage, "t", iv, {.record_size = 8});
  // Far more than one 4 KiB top page per interval.
  constexpr std::uint32_t kN = 50000;
  for (std::uint32_t k = 0; k < kN; ++k) {
    append_record<std::uint32_t>(store, k % 10, k);
  }
  store.swap_generations();
  EXPECT_GT(store.current_pages(0), 0u);  // something was spilled

  std::uint64_t total = 0;
  std::map<std::uint32_t, std::uint32_t> next_payload;  // per dst, expected
  for (IntervalId i = 0; i < iv.count(); ++i) {
    for (const auto& rec : load_records(store, i)) {
      // Messages to one destination arrive in append order.
      auto [it, inserted] = next_payload.try_emplace(rec.dst, rec.dst);
      EXPECT_EQ(rec.payload, it->second) << "dst " << rec.dst;
      it->second += 10;
      ++total;
    }
  }
  EXPECT_EQ(total, kN);
}

TEST(MultiLogStore, RecordsMayStraddlePages) {
  Env env;
  const auto iv = graph::VertexIntervals::uniform(4, 4);
  // 12-byte records do not divide the 4096-byte page.
  struct Wide {
    std::uint32_t a, b;
  };
  MultiLogStore store(env.storage, "t", iv,
                      {.record_size = sizeof(Record<Wide>)});
  constexpr std::uint32_t kN = 3000;
  for (std::uint32_t k = 0; k < kN; ++k) {
    append_record<Wide>(store, k % 4, {k, k * 2});
  }
  store.swap_generations();
  std::uint64_t seen = 0;
  std::vector<std::byte> bytes;
  store.load_interval(0, bytes);
  for (const auto& rec : decode_records<Wide>(bytes)) {
    EXPECT_EQ(rec.payload.b, rec.payload.a * 2);
    ++seen;
  }
  EXPECT_EQ(seen, store.current_count(0));
}

TEST(MultiLogStore, ConcurrentAppendsPreserveEveryMessage) {
  Env env;
  const auto iv = graph::VertexIntervals::uniform(64, 8);
  MultiLogStore store(env.storage, "t", iv, {.record_size = 8});
  constexpr int kThreads = 8, kPerThread = 5000;
  {
    ThreadPool pool(kThreads);
    std::vector<std::future<void>> futures;
    for (int t = 0; t < kThreads; ++t) {
      futures.push_back(pool.submit([&, t] {
        SplitMix64 rng(static_cast<std::uint64_t>(t) + 1);
        for (int k = 0; k < kPerThread; ++k) {
          const auto dst = static_cast<VertexId>(rng.next_below(64));
          append_record<std::uint32_t>(store, dst,
                                       static_cast<std::uint32_t>(t));
        }
      }));
    }
    for (auto& f : futures) f.get();
  }
  store.swap_generations();
  EXPECT_EQ(store.total_current_count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t decoded = 0;
  for (IntervalId i = 0; i < iv.count(); ++i) {
    decoded += load_records(store, i).size();
  }
  EXPECT_EQ(decoded, static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MultiLogStore, ConcurrentAppendsWithBackgroundEviction) {
  Env env;
  const auto iv = graph::VertexIntervals::uniform(64, 8);
  ssd::AsyncIo io(4);
  // Tiny eviction batches so the test exercises many background writes.
  MultiLogStore store(env.storage, "t", iv,
                      {.record_size = 8, .evict_batch_pages = 2,
                       .async_io = &io});
  constexpr int kThreads = 8, kPerThread = 5000;
  {
    ThreadPool pool(kThreads);
    std::vector<std::future<void>> futures;
    for (int t = 0; t < kThreads; ++t) {
      futures.push_back(pool.submit([&, t] {
        SplitMix64 rng(static_cast<std::uint64_t>(t) + 1);
        for (int k = 0; k < kPerThread; ++k) {
          const auto dst = static_cast<VertexId>(rng.next_below(64));
          append_record<std::uint32_t>(
              store, dst, static_cast<std::uint32_t>(t * kPerThread + k));
        }
      }));
    }
    for (auto& f : futures) f.get();
  }
  store.swap_generations();

  // Replay the same per-thread RNG streams to build the expected multiset
  // per destination, then compare against what the logs actually hold.
  std::map<VertexId, std::multiset<std::uint32_t>> expected;
  for (int t = 0; t < kThreads; ++t) {
    SplitMix64 rng(static_cast<std::uint64_t>(t) + 1);
    for (int k = 0; k < kPerThread; ++k) {
      const auto dst = static_cast<VertexId>(rng.next_below(64));
      expected[dst].insert(static_cast<std::uint32_t>(t * kPerThread + k));
    }
  }
  std::map<VertexId, std::multiset<std::uint32_t>> actual;
  for (IntervalId i = 0; i < iv.count(); ++i) {
    for (const auto& rec : load_records(store, i)) {
      EXPECT_GE(rec.dst, iv.begin(i));
      EXPECT_LT(rec.dst, iv.end(i));
      actual[rec.dst].insert(rec.payload);
    }
  }
  EXPECT_EQ(actual, expected);
}

TEST(MultiLogStore, BackgroundEvictionMatchesInlineLayout) {
  // Offsets (and so page numbers) are assigned synchronously even when the
  // data is written by I/O threads, so a single-threaded append sequence
  // must yield byte-identical logs and identical page accounting either way.
  Env inline_env;
  Env async_env;
  ssd::AsyncIo io(2);
  const auto iv = graph::VertexIntervals::uniform(40, 4);
  MultiLogStore inline_store(inline_env.storage, "t", iv,
                             {.record_size = 8, .evict_batch_pages = 2});
  MultiLogStore async_store(async_env.storage, "t", iv,
                            {.record_size = 8, .evict_batch_pages = 2,
                             .async_io = &io});
  SplitMix64 rng(7);
  for (std::uint32_t k = 0; k < 30000; ++k) {
    const auto dst = static_cast<VertexId>(rng.next_below(40));
    append_record<std::uint32_t>(inline_store, dst, k);
    append_record<std::uint32_t>(async_store, dst, k);
  }
  inline_store.swap_generations();
  async_store.swap_generations();
  for (IntervalId i = 0; i < iv.count(); ++i) {
    std::vector<std::byte> a;
    std::vector<std::byte> b;
    inline_store.load_interval(i, a);
    async_store.load_interval(i, b);
    EXPECT_EQ(a, b) << "interval " << i;
  }
  const auto a_io = inline_env.storage.stats().snapshot();
  const auto b_io = async_env.storage.stats().snapshot();
  EXPECT_EQ(a_io.total_pages_written(), b_io.total_pages_written());
  EXPECT_EQ(a_io.total_pages_read(), b_io.total_pages_read());
}

TEST(MultiLogStore, DrainProduceForAsyncMode) {
  Env env;
  const auto iv = graph::VertexIntervals::uniform(20, 10);
  MultiLogStore store(env.storage, "t", iv, {.record_size = 8});
  for (std::uint32_t k = 0; k < 1000; ++k) {
    append_record<std::uint32_t>(store, 15, k);  // interval 1
  }
  std::vector<std::byte> bytes;
  const auto drained = store.drain_produce_interval(1, bytes);
  EXPECT_EQ(drained, 1000u);
  EXPECT_EQ(decode_records<std::uint32_t>(bytes).size(), 1000u);
  EXPECT_EQ(store.produced_count(1), 0u);
  // Drained messages must not reappear after the swap.
  store.swap_generations();
  EXPECT_EQ(store.current_count(1), 0u);
}

TEST(MultiLogStore, DrainReadsCostTheSameAsLoads) {
  // A drain reads an interval's adjacent spilled pages as one transfer, as
  // a load does, so both pay the same modeled device time for the same log.
  const auto iv = graph::VertexIntervals::uniform(20, 10);
  const auto fill = [](MultiLogStore& store) {
    for (std::uint32_t k = 0; k < 5000; ++k) {  // ~10 pages, adjacent
      append_record<std::uint32_t>(store, 15, k);
    }
  };
  const auto read_cost = [](Env& env, const auto& read) {
    const auto before = env.storage.device().snapshot();
    read();
    return env.storage.device().modeled_seconds_between(
        before, env.storage.device().snapshot());
  };

  Env drain_env;
  MultiLogStore drained(drain_env.storage, "t", iv, {.record_size = 8});
  fill(drained);
  std::vector<std::byte> drain_bytes;
  // Flushes the eviction queue first, outside the measured read.
  drained.drain_produce_interval(0, drain_bytes);
  const double drain_cost = read_cost(
      drain_env, [&] { drained.drain_produce_interval(1, drain_bytes); });

  Env load_env;
  MultiLogStore loaded(load_env.storage, "t", iv, {.record_size = 8});
  fill(loaded);
  loaded.swap_generations();
  std::vector<std::byte> load_bytes;
  const double load_cost =
      read_cost(load_env, [&] { loaded.load_interval(1, load_bytes); });

  ASSERT_GT(loaded.current_pages(1), 1u);
  EXPECT_EQ(drain_bytes, load_bytes);
  EXPECT_GT(load_cost, 0.0);
  EXPECT_DOUBLE_EQ(drain_cost, load_cost);
}

TEST(MultiLogStore, BatchedEvictionKeepsAccountingExact) {
  Env env;
  const auto iv = graph::VertexIntervals::uniform(16, 4);
  MultiLogConfig cfg{.record_size = 8};
  cfg.evict_batch_pages = 8;
  MultiLogStore store(env.storage, "t", iv, cfg);
  for (std::uint32_t k = 0; k < 40000; ++k) {
    append_record<std::uint32_t>(store, k % 16, k);
  }
  store.swap_generations();
  std::uint64_t total = 0;
  for (IntervalId i = 0; i < iv.count(); ++i) {
    total += load_records(store, i).size();
  }
  EXPECT_EQ(total, 40000u);
}

TEST(MultiLogStore, FlushedPagesHoldWholeRecords) {
  // 12-byte records don't divide the 4096-byte page; each flushed page must
  // hold floor(4096/12) = 341 whole records with a zero slack tail, so a
  // single page decodes cleanly on its own (no split record at the seam).
  Env env;
  const auto iv = graph::VertexIntervals::uniform(4, 4);  // one interval
  struct Wide {
    std::uint32_t a, b;
  };
  MultiLogStore store(env.storage, "t", iv,
                      {.record_size = sizeof(Record<Wide>)});
  EXPECT_EQ(store.usable_page_bytes(), (4096u / 12u) * 12u);
  constexpr std::uint32_t kN = 1000;
  for (std::uint32_t k = 0; k < kN; ++k) {
    append_record<Wide>(store, k % 4, {k, k * 2});
  }
  store.swap_generations();
  const std::uint64_t per_page = store.usable_page_bytes() / 12;
  EXPECT_EQ(store.current_pages(0), kN / per_page);
  // Read one raw flushed page straight from the generation blob (the first
  // produce generation is named t/log_gen0) and decode it in isolation.
  ssd::Blob& blob = env.storage.open_blob("t/log_gen0");
  EXPECT_EQ(blob.size(), store.current_pages(0) * 4096u);
  std::vector<std::byte> page(store.usable_page_bytes());
  blob.read(0, page.data(), page.size());
  const auto recs = decode_records<Wide>(page);
  ASSERT_EQ(recs.size(), per_page);
  for (std::uint32_t j = 0; j < recs.size(); ++j) {
    EXPECT_EQ(recs[j].dst, j % 4);
    EXPECT_EQ(recs[j].payload.a, j);
    EXPECT_EQ(recs[j].payload.b, j * 2);
  }
}

TEST(MultiLogStore, StagedAppendMatchesLockedPath) {
  // v1 without a fold: records committed in 7-record chunks land exactly as
  // the same records appended one by one through the locked path.
  Env locked_env;
  Env staged_env;
  const auto iv = graph::VertexIntervals::uniform(64, 8);
  MultiLogStore locked(locked_env.storage, "t", iv, {.record_size = 8});
  MultiLogStore staged(staged_env.storage, "t", iv, {.record_size = 8});
  std::vector<TestRecord> sends;
  SplitMix64 rng(11);
  for (std::uint32_t k = 0; k < 20000; ++k) {
    const auto dst = static_cast<VertexId>(rng.next_below(64));
    append_record<std::uint32_t>(locked, dst, k);
    sends.push_back({dst, k});
  }
  EXPECT_GT(commit_sends(staged, sends, 7), 0u);
  locked.swap_generations();
  staged.swap_generations();
  for (IntervalId i = 0; i < iv.count(); ++i) {
    std::vector<std::byte> a;
    std::vector<std::byte> b;
    locked.load_interval(i, a);
    staged.load_interval(i, b);
    EXPECT_EQ(a, b) << "interval " << i;
    EXPECT_EQ(locked.current_pages(i), staged.current_pages(i));
  }
}

TEST(MultiLogStore, StagedRecordsInvisibleUntilFlushed) {
  // A producer chunk is the caller's buffer: the store sees its records
  // only at commit, which reports one commit per interval reached.
  Env env;
  const auto iv = graph::VertexIntervals::uniform(20, 10);
  MultiLogStore store(env.storage, "t", iv, {.record_size = 8});
  std::vector<std::vector<TestRecord>> chunks(2);
  for (std::uint32_t k = 0; k < 100; ++k) {
    chunks[k % 2].push_back({15, k});  // interval 1
  }
  EXPECT_EQ(store.produced_count(1), 0u);
  EXPECT_EQ(commit_records<std::uint32_t>(store, chunks), 1u);
  EXPECT_EQ(store.produced_count(1), 100u);
  EXPECT_EQ(store.produce_seq(1), 100u);
  EXPECT_EQ(commit_records<std::uint32_t>(store, {}), 0u);
}

TEST(MultiLogStore, ConcurrentChunksCommitLikeOneSerialChunk) {
  // The commit-order contract: producers fill chunks of random size
  // concurrently, each batch commits them in chunk order (big enough to
  // group and encode on several threads), and the logs — the generation
  // blob's pages and every interval's stream — equal a one-thread oracle
  // that commits each batch's records as one chunk. Both formats, with and
  // without the fold, with background eviction.
  for (const OnDiskFormat format : {OnDiskFormat::kV1, OnDiskFormat::kV2}) {
    for (const bool fold : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << (format == OnDiskFormat::kV1 ? "v1" : "v2")
                   << (fold ? " fold" : " no fold"));
      MultiLogConfig cfg{.record_size = sizeof(TestRecord),
                         .format = format,
                         .payload_varint = kPayloadVarint<std::uint32_t>,
                         .evict_batch_pages = 2};
      if (fold) {
        cfg.combine = record_combiner<std::uint32_t>(
            [](std::uint32_t a, std::uint32_t b) { return a + b; });
      }
      const auto iv = graph::VertexIntervals::uniform(3000, 6);
      Env env;
      Env oracle_env;
      ssd::AsyncIo io(2);
      MultiLogConfig concurrent_cfg = cfg;
      concurrent_cfg.async_io = &io;
      MultiLogStore store(env.storage, "t", iv, concurrent_cfg);
      MultiLogStore oracle(oracle_env.storage, "t", iv, cfg);
      constexpr int kThreads = 4, kChunksPerThread = 64, kBatches = 4;
      for (int batch = 0; batch < kBatches; ++batch) {
        std::vector<std::vector<TestRecord>> chunks(kThreads *
                                                    kChunksPerThread);
        {
          ThreadPool pool(kThreads);
          std::vector<std::future<void>> futures;
          for (int t = 0; t < kThreads; ++t) {
            futures.push_back(pool.submit([&, t] {
              SplitMix64 rng(static_cast<std::uint64_t>(batch * 31 + t + 1));
              for (int c = t; c < kThreads * kChunksPerThread;
                   c += kThreads) {
                const auto n = rng.next_below(400);
                for (std::uint64_t k = 0; k < n; ++k) {
                  chunks[c].push_back(
                      {static_cast<VertexId>(rng.next_below(3000)),
                       static_cast<std::uint32_t>(rng.next_below(1000))});
                }
              }
            }));
          }
          for (auto& f : futures) f.get();
        }
        std::vector<TestRecord> serial;
        for (const auto& chunk : chunks) {
          serial.insert(serial.end(), chunk.begin(), chunk.end());
        }
        commit_records<std::uint32_t>(store, chunks);
        ThreadCount one(1);
        commit_records<std::uint32_t>(
            oracle, std::vector<std::vector<TestRecord>>{serial});
      }
      store.swap_generations();
      oracle.swap_generations();
      EXPECT_EQ(blob_bytes(env.storage, "t/log_gen0"),
                blob_bytes(oracle_env.storage, "t/log_gen0"));
      for (IntervalId i = 0; i < iv.count(); ++i) {
        EXPECT_EQ(store.current_count(i), oracle.current_count(i));
        EXPECT_EQ(store.current_sends(i), oracle.current_sends(i));
        EXPECT_EQ(store.current_pages(i), oracle.current_pages(i));
        std::vector<std::byte> a;
        std::vector<std::byte> b;
        store.load_interval(i, a);
        oracle.load_interval(i, b);
        EXPECT_EQ(a, b) << "interval " << i;
      }
    }
  }
}

TEST(MultiLogStore, StagedAppendsWithConcurrentDrainsMatchOracle) {
  // The §V.F concurrency surface: producers fill 2-record chunks
  // concurrently, the main thread commits them while a drainer empties
  // random produce intervals and background eviction runs, across several
  // generation swaps. Every message must land exactly once — in a drain or
  // in the swapped-in log — matching a replay of the producers' RNG streams.
  Env env;
  const auto iv = graph::VertexIntervals::uniform(64, 8);
  ssd::AsyncIo io(2);
  MultiLogStore store(env.storage, "t", iv,
                      {.record_size = 8, .evict_batch_pages = 2,
                       .async_io = &io});
  constexpr int kThreads = 4, kPerThread = 3000, kRounds = 3;
  const auto payload = [](int round, int t, int k) {
    return static_cast<std::uint32_t>((round * kThreads + t) * kPerThread + k);
  };
  const auto thread_seed = [](int round, int t) {
    return static_cast<std::uint64_t>(round * kThreads + t + 1);
  };

  std::map<VertexId, std::multiset<std::uint32_t>> actual;
  std::vector<std::byte> drained;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::vector<TestRecord>> sends(kThreads);
    {
      ThreadPool pool(kThreads);
      std::vector<std::future<void>> futures;
      for (int t = 0; t < kThreads; ++t) {
        futures.push_back(pool.submit([&, t] {
          SplitMix64 rng(thread_seed(round, t));
          for (int k = 0; k < kPerThread; ++k) {
            const auto dst = static_cast<VertexId>(rng.next_below(64));
            sends[t].push_back({dst, payload(round, t, k)});
          }
        }));
      }
      for (auto& f : futures) f.get();
    }
    std::atomic<bool> stop{false};
    std::thread drainer([&] {
      SplitMix64 rng(static_cast<std::uint64_t>(997 + round));
      while (!stop.load(std::memory_order_relaxed)) {
        store.drain_produce_interval(
            static_cast<IntervalId>(rng.next_below(iv.count())), drained);
      }
    });
    for (int t = 0; t < kThreads; ++t) {
      commit_sends(store, sends[t], 2, 256);
    }
    stop.store(true, std::memory_order_relaxed);
    drainer.join();
    // Whatever the drains missed rides the swap into the current generation.
    store.swap_generations();
    for (IntervalId i = 0; i < iv.count(); ++i) {
      for (const auto& rec : load_records(store, i)) {
        EXPECT_GE(rec.dst, iv.begin(i));
        EXPECT_LT(rec.dst, iv.end(i));
        actual[rec.dst].insert(rec.payload);
      }
    }
    store.swap_generations();  // discard the consumed generation
  }
  for (const auto& rec : decode_records<std::uint32_t>(drained)) {
    actual[rec.dst].insert(rec.payload);
  }

  std::map<VertexId, std::multiset<std::uint32_t>> expected;
  for (int round = 0; round < kRounds; ++round) {
    for (int t = 0; t < kThreads; ++t) {
      SplitMix64 rng(thread_seed(round, t));
      for (int k = 0; k < kPerThread; ++k) {
        const auto dst = static_cast<VertexId>(rng.next_below(64));
        expected[dst].insert(payload(round, t, k));
      }
    }
  }
  EXPECT_EQ(actual, expected);
}

TEST(MultiLogStore, RejectsBadRecordGeometry) {
  Env env;
  const auto iv = graph::VertexIntervals::uniform(4, 4);
  EXPECT_THROW(MultiLogStore(env.storage, "t", iv, {.record_size = 2}),
               Error);
  EXPECT_THROW(MultiLogStore(env.storage, "t", iv, {.record_size = 8_KiB}),
               Error);
}

// ---- produce-side fold ------------------------------------------------------
//
// Parameterized over the on-disk format and the producer chunk depth (the
// records per chunk each commit receives): depth 1 makes every record a
// chunk of its own, depth 64 fills chunks.

class LogFold
    : public ::testing::TestWithParam<std::tuple<OnDiskFormat, std::size_t>> {
 protected:
  MultiLogConfig config() const {
    MultiLogConfig cfg{.record_size = sizeof(TestRecord),
                       .format = std::get<0>(GetParam()),
                       .payload_varint = kPayloadVarint<std::uint32_t>};
    cfg.combine = record_combiner<std::uint32_t>(
        [](std::uint32_t a, std::uint32_t b) { return a + b; });
    return cfg;
  }

  static std::size_t depth() { return std::get<1>(GetParam()); }

  /// Interval i's current log decoded to raw records, under either format.
  static std::vector<TestRecord> load(MultiLogStore& store, IntervalId i) {
    std::vector<std::byte> bytes;
    store.load_interval(i, bytes);
    return decode(store, bytes);
  }

  static std::vector<TestRecord> decode(const MultiLogStore& store,
                                        const std::vector<std::byte>& bytes) {
    if (store.format() == OnDiskFormat::kV1) {
      return decode_records<std::uint32_t>(bytes);
    }
    std::vector<std::byte> raw;
    decode_chunks_to_records(bytes, sizeof(TestRecord), store.payload_varint(),
                             raw);
    return decode_records<std::uint32_t>(raw);
  }
};

using Sums = std::map<VertexId, std::uint64_t>;

Sums sum_by_dst(const std::vector<TestRecord>& recs) {
  Sums out;
  for (const auto& r : recs) out[r.dst] += r.payload;
  return out;
}

TEST_P(LogFold, DuplicateDestinationsCollapseToOneRecord) {
  // 64-wide intervals: a full 512-record buffer folds to at most 64
  // survivors, which always go back, so each interval reaches the swap
  // with one record per destination and writes nothing to storage.
  Env env;
  const auto iv = graph::VertexIntervals::uniform(256, 64);
  MultiLogStore store(env.storage, "t", iv, config());
  std::vector<TestRecord> sends;
  Sums expected;
  SplitMix64 rng(5);
  for (std::uint32_t k = 0; k < 20000; ++k) {
    const auto dst = static_cast<VertexId>(rng.next_below(256));
    sends.push_back({dst, k % 7 + 1});
    expected[dst] += k % 7 + 1;
  }
  commit_sends(store, sends, depth());
  store.swap_generations();
  Sums actual;
  for (IntervalId i = 0; i < iv.count(); ++i) {
    const auto recs = load(store, i);
    EXPECT_EQ(recs.size(), iv.width(i)) << "interval " << i;
    EXPECT_EQ(store.current_count(i), recs.size());
    EXPECT_EQ(store.current_pages(i), 0u);
    std::set<VertexId> seen;
    for (const auto& r : recs) {
      EXPECT_TRUE(seen.insert(r.dst).second) << "duplicate dst " << r.dst;
    }
    const Sums part = sum_by_dst(recs);
    actual.insert(part.begin(), part.end());
  }
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(env.storage.stats().snapshot()[ssd::IoCategory::kMessageLog]
                .bytes_written,
            0u);
  EXPECT_EQ(store.fold_stats().records_folded, 20000u - 256u);
}

TEST_P(LogFold, SpilledStreamStillDecodes) {
  // 4096-wide intervals: a full buffer keeps most of its records, so the
  // survivors spill through the top page to storage and are read back.
  Env env;
  const auto iv = graph::VertexIntervals::uniform(8192, 4096);
  MultiLogStore store(env.storage, "t", iv, config());
  std::vector<TestRecord> sends;
  Sums expected;
  SplitMix64 rng(6);
  constexpr std::uint32_t kSends = 60000;
  for (std::uint32_t k = 0; k < kSends; ++k) {
    const auto dst = static_cast<VertexId>(rng.next_below(8192));
    sends.push_back({dst, k});
    expected[dst] += k;
  }
  commit_sends(store, sends, depth());
  store.swap_generations();
  Sums actual;
  std::uint64_t stored = 0;
  for (IntervalId i = 0; i < iv.count(); ++i) {
    EXPECT_GT(store.current_pages(i), 0u) << "interval " << i;
    const auto recs = load(store, i);
    EXPECT_EQ(recs.size(), store.current_count(i));
    stored += recs.size();
    for (const auto& r : recs) {
      EXPECT_GE(r.dst, iv.begin(i));
      EXPECT_LT(r.dst, iv.end(i));
      actual[r.dst] += r.payload;
    }
  }
  EXPECT_EQ(actual, expected);
  EXPECT_LT(stored, kSends);
  EXPECT_EQ(store.fold_stats().records_folded, kSends - stored);
}

TEST_P(LogFold, ProducedCountAndProduceSeqCountSends) {
  Env env;
  const auto iv = graph::VertexIntervals::uniform(20, 10);
  MultiLogStore store(env.storage, "t", iv, config());
  std::vector<TestRecord> sends;
  for (std::uint32_t k = 0; k < 1500; ++k) {
    sends.push_back({10 + k % 3, 1});
  }
  commit_sends(store, sends, depth());
  // Three destinations: the buffer folded twice and holds the rest.
  EXPECT_EQ(store.produced_count(1), 1500u);
  EXPECT_EQ(store.produce_seq(1), 1500u);
  EXPECT_EQ(env.storage.stats().snapshot()[ssd::IoCategory::kMessageLog]
                .logical_bytes_written,
            1500u * sizeof(TestRecord));
  store.swap_generations();
  EXPECT_EQ(store.current_sends(1), 1500u);
  EXPECT_EQ(store.current_count(1), 3u);
  EXPECT_EQ(store.produce_seq(1), 1500u);  // monotone across the swap
  EXPECT_EQ(sum_by_dst(load(store, 1)),
            (Sums{{10, 500}, {11, 500}, {12, 500}}));
}

TEST_P(LogFold, SwapGenerationsFlushesTheBuffer) {
  Env env;
  const auto iv = graph::VertexIntervals::uniform(20, 10);
  MultiLogStore store(env.storage, "t", iv, config());
  std::vector<TestRecord> sends;
  for (std::uint32_t k = 0; k < 100; ++k) {  // well under one buffer
    sends.push_back({5 + k % 2, k});
  }
  commit_sends(store, sends, depth());
  EXPECT_EQ(store.fold_stats().records_folded, 0u);  // still buffered
  store.swap_generations();
  EXPECT_EQ(store.current_count(0), 2u);
  EXPECT_EQ(store.current_sends(0), 100u);
  EXPECT_EQ(store.fold_stats().records_folded, 98u);
  EXPECT_EQ(sum_by_dst(load(store, 0)), (Sums{{5, 2450}, {6, 2500}}));
  // The next generation starts with an empty buffer.
  EXPECT_EQ(store.produced_count(0), 0u);
  store.swap_generations();
  EXPECT_EQ(store.current_count(0), 0u);
  EXPECT_TRUE(load(store, 0).empty());
}

TEST_P(LogFold, DrainProduceIntervalFlushesTheBuffer) {
  Env env;
  const auto iv = graph::VertexIntervals::uniform(20, 10);
  MultiLogStore store(env.storage, "t", iv, config());
  std::vector<TestRecord> sends;
  for (std::uint32_t k = 0; k < 1000; ++k) {
    sends.push_back({15 + k % 4, 2});
  }
  commit_sends(store, sends, depth());
  std::vector<std::byte> bytes;
  EXPECT_EQ(store.drain_produce_interval(1, bytes), 1000u);  // sends
  EXPECT_EQ(sum_by_dst(decode(store, bytes)),
            (Sums{{15, 500}, {16, 500}, {17, 500}, {18, 500}}));
  EXPECT_EQ(decode(store, bytes).size(), 4u);
  EXPECT_EQ(store.produced_count(1), 0u);
  bytes.clear();
  EXPECT_EQ(store.drain_produce_interval(1, bytes), 0u);
  EXPECT_TRUE(bytes.empty());
  // Drained messages must not reappear after the swap.
  store.swap_generations();
  EXPECT_EQ(store.current_count(1), 0u);
  EXPECT_EQ(store.current_sends(1), 0u);
}

TEST_P(LogFold, ResetAllDropsTheBuffer) {
  Env env;
  const auto iv = graph::VertexIntervals::uniform(20, 10);
  MultiLogStore store(env.storage, "t", iv, config());
  std::vector<TestRecord> sends;
  for (std::uint32_t k = 0; k < 300; ++k) {
    sends.push_back({k % 20, 1});
  }
  commit_sends(store, sends, depth());
  store.reset_all();
  EXPECT_EQ(store.produced_count(0), 0u);
  store.swap_generations();
  for (IntervalId i = 0; i < iv.count(); ++i) {
    EXPECT_EQ(store.current_count(i), 0u);
    EXPECT_TRUE(load(store, i).empty());
  }
}

TEST_P(LogFold, ConcurrentProducersMatchOracle) {
  // Producers fill chunks concurrently for a few intervals about as wide as
  // half a buffer, so folds both keep survivors and spill them, with
  // background eviction on. Committed in chunk order, one batch per
  // producer, the logs equal a one-thread oracle byte for byte (each
  // batch's records as one chunk), and per-destination sums and send
  // counts match a serial replay.
  Env env;
  Env oracle_env;
  const auto iv = graph::VertexIntervals::uniform(1200, 300);
  ssd::AsyncIo io(2);
  MultiLogConfig cfg = config();
  cfg.evict_batch_pages = 2;
  MultiLogStore oracle(oracle_env.storage, "t", iv, cfg);
  cfg.async_io = &io;
  MultiLogStore store(env.storage, "t", iv, cfg);
  constexpr int kThreads = 4, kPerThread = 20000;
  std::vector<std::vector<std::vector<TestRecord>>> chunks(kThreads);
  {
    ThreadPool pool(kThreads);
    std::vector<std::future<void>> futures;
    for (int t = 0; t < kThreads; ++t) {
      futures.push_back(pool.submit([&, t] {
        SplitMix64 rng(static_cast<std::uint64_t>(t + 1));
        for (int k = 0; k < kPerThread; ++k) {
          if (k % depth() == 0) chunks[t].emplace_back();
          chunks[t].back().push_back(
              {static_cast<VertexId>(rng.next_below(1200)),
               static_cast<std::uint32_t>(k % 5)});
        }
      }));
    }
    for (auto& f : futures) f.get();
  }
  for (const auto& batch : chunks) {
    std::vector<TestRecord> serial;
    for (const auto& chunk : batch) {
      serial.insert(serial.end(), chunk.begin(), chunk.end());
    }
    commit_records<std::uint32_t>(store, batch);
    ThreadCount one(1);
    commit_records<std::uint32_t>(
        oracle, std::vector<std::vector<TestRecord>>{serial});
  }
  store.swap_generations();
  oracle.swap_generations();
  EXPECT_EQ(blob_bytes(env.storage, "t/log_gen0"),
            blob_bytes(oracle_env.storage, "t/log_gen0"));
  for (IntervalId i = 0; i < iv.count(); ++i) {
    std::vector<std::byte> a;
    std::vector<std::byte> b;
    store.load_interval(i, a);
    oracle.load_interval(i, b);
    EXPECT_EQ(a, b) << "interval " << i;
  }
  Sums expected;
  for (int t = 0; t < kThreads; ++t) {
    SplitMix64 rng(static_cast<std::uint64_t>(t + 1));
    for (int k = 0; k < kPerThread; ++k) {
      expected[static_cast<VertexId>(rng.next_below(1200))] += k % 5;
    }
  }
  Sums actual;
  std::uint64_t sends = 0;
  for (IntervalId i = 0; i < iv.count(); ++i) {
    sends += store.current_sends(i);
    for (const auto& [dst, sum] : sum_by_dst(load(store, i))) {
      actual[dst] += sum;
    }
  }
  EXPECT_EQ(sends, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_GT(store.fold_stats().records_folded, 0u);
  EXPECT_EQ(actual, expected);
}

TEST_P(LogFold, ConcurrentDrainsMatchOracle) {
  // Drains race the commits of chunks that producers filled concurrently:
  // every send must be delivered exactly once, by a drain or by the swap,
  // and the drained plus swapped send counts must add up.
  Env env;
  const auto iv = graph::VertexIntervals::uniform(1200, 300);
  MultiLogStore store(env.storage, "t", iv, config());
  constexpr int kThreads = 3, kPerThread = 20000;
  std::vector<std::vector<TestRecord>> produced(kThreads);
  {
    ThreadPool pool(kThreads);
    std::vector<std::future<void>> futures;
    for (int t = 0; t < kThreads; ++t) {
      futures.push_back(pool.submit([&, t] {
        SplitMix64 rng(static_cast<std::uint64_t>(t + 100));
        for (int k = 0; k < kPerThread; ++k) {
          produced[t].push_back(
              {static_cast<VertexId>(rng.next_below(1200)), 1});
        }
      }));
    }
    for (auto& f : futures) f.get();
  }
  std::atomic<bool> stop{false};
  std::vector<std::byte> drained;
  std::uint64_t drained_sends = 0;
  std::thread drainer([&] {
    SplitMix64 rng(17);
    while (!stop.load(std::memory_order_relaxed)) {
      drained_sends += store.drain_produce_interval(
          static_cast<IntervalId>(rng.next_below(iv.count())), drained);
    }
  });
  for (const auto& thread_sends : produced) {
    commit_sends(store, thread_sends, depth(), 512);
  }
  stop.store(true, std::memory_order_relaxed);
  drainer.join();
  store.swap_generations();
  Sums actual = sum_by_dst(decode(store, drained));
  std::uint64_t sends = drained_sends;
  for (IntervalId i = 0; i < iv.count(); ++i) {
    sends += store.current_sends(i);
    for (const auto& [dst, sum] : sum_by_dst(load(store, i))) {
      actual[dst] += sum;
    }
  }
  Sums expected;
  for (int t = 0; t < kThreads; ++t) {
    SplitMix64 rng(static_cast<std::uint64_t>(t + 100));
    for (int k = 0; k < kPerThread; ++k) {
      expected[static_cast<VertexId>(rng.next_below(1200))] += 1;
    }
  }
  EXPECT_EQ(sends, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(actual, expected);
}

// The "_staging<depth>" suffix names the producer chunk depth.
INSTANTIATE_TEST_SUITE_P(
    FormatsAndDepths, LogFold,
    ::testing::Combine(::testing::Values(OnDiskFormat::kV1, OnDiskFormat::kV2),
                       ::testing::Values(std::size_t{1}, std::size_t{64})),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == OnDiskFormat::kV1
                             ? "v1"
                             : "v2") +
             "_staging" + std::to_string(std::get<1>(info.param));
    });

TEST(LogFold, WideIntervalsBypassTheFold) {
  // An interval whose direct-addressed scratch would exceed the cap keeps
  // every record; the store reports it.
  Env env;
  const VertexId wide =
      static_cast<VertexId>(MultiLogStore::kFoldScratchMaxBytes /
                            sizeof(TestRecord)) +
      1;
  const auto iv = graph::VertexIntervals::uniform(wide + 64, wide);
  MultiLogConfig cfg{.record_size = sizeof(TestRecord)};
  cfg.combine = record_combiner<std::uint32_t>(
      [](std::uint32_t a, std::uint32_t b) { return a + b; });
  MultiLogStore store(env.storage, "t", iv, cfg);
  ASSERT_EQ(iv.count(), 2u);
  EXPECT_EQ(store.fold_wide_intervals(), 1u);
  for (std::uint32_t k = 0; k < 1000; ++k) {
    append_record<std::uint32_t>(store, 7, 1);         // wide interval 0
    append_record<std::uint32_t>(store, wide + 3, 1);  // narrow interval 1
  }
  store.swap_generations();
  EXPECT_EQ(store.current_count(0), 1000u);
  EXPECT_EQ(store.current_count(1), 1u);
  EXPECT_EQ(store.current_sends(1), 1000u);
  EXPECT_EQ(store.fold_stats().records_folded, 999u);
}

TEST(LogFold, RuntimeRecordSizeFoldsAgainstOracle) {
  // A 12-byte record takes the fold's runtime-size path. Interval 0 is
  // narrow (survivors go back into the buffer), interval 1 wide (survivors
  // spill through the top page); both formats, summing and taking the min.
  struct Pair {
    std::uint32_t sum;
    std::uint32_t min;
  };
  using WideRecord = Record<Pair>;
  static_assert(sizeof(WideRecord) == 12);
  for (const OnDiskFormat format : {OnDiskFormat::kV1, OnDiskFormat::kV2}) {
    SCOPED_TRACE(format == OnDiskFormat::kV1 ? "v1" : "v2");
    Env env;
    const auto iv = graph::VertexIntervals::from_boundaries({0, 64, 64 + 4096});
    MultiLogConfig cfg{.record_size = sizeof(WideRecord),
                       .format = format,
                       .payload_varint = kPayloadVarint<Pair>};
    cfg.combine = record_combiner<Pair>([](Pair a, Pair b) {
      return Pair{a.sum + b.sum, std::min(a.min, b.min)};
    });
    MultiLogStore store(env.storage, "t", iv, cfg);
    ASSERT_EQ(iv.count(), 2u);
    std::vector<WideRecord> sends;
    std::map<VertexId, std::pair<std::uint64_t, std::uint32_t>> expected;
    SplitMix64 rng(11);
    constexpr std::uint32_t kSends = 40000;
    for (std::uint32_t k = 0; k < kSends; ++k) {
      const auto dst = static_cast<VertexId>(
          k % 2 == 0 ? rng.next_below(64) : 64 + rng.next_below(4096));
      const Pair m{k % 5 + 1, static_cast<std::uint32_t>(rng.next_below(1000))};
      sends.push_back({dst, m});
      auto [it, fresh] = expected.try_emplace(dst, m.sum, m.min);
      if (!fresh) {
        it->second.first += m.sum;
        it->second.second = std::min(it->second.second, m.min);
      }
    }
    commit_sends(store, sends, 16);
    store.swap_generations();
    EXPECT_EQ(store.current_count(0), 64u);
    EXPECT_GT(store.current_pages(1), 0u);
    std::map<VertexId, std::pair<std::uint64_t, std::uint32_t>> actual;
    std::uint64_t stored = 0;
    for (IntervalId i = 0; i < iv.count(); ++i) {
      EXPECT_EQ(store.current_sends(i), kSends / 2);
      std::vector<std::byte> bytes;
      store.load_interval(i, bytes);
      std::vector<std::byte> raw;
      if (format == OnDiskFormat::kV1) {
        raw = bytes;
      } else {
        decode_chunks_to_records(bytes, sizeof(WideRecord),
                                 store.payload_varint(), raw);
      }
      const auto recs = decode_records<Pair>(raw);
      EXPECT_EQ(recs.size(), store.current_count(i));
      stored += recs.size();
      for (const auto& r : recs) {
        auto [it, fresh] =
            actual.try_emplace(r.dst, r.payload.sum, r.payload.min);
        if (!fresh) {
          it->second.first += r.payload.sum;
          it->second.second = std::min(it->second.second, r.payload.min);
        }
      }
    }
    EXPECT_EQ(actual, expected);
    EXPECT_LT(stored, kSends);
    EXPECT_EQ(store.fold_stats().records_folded, kSends - stored);
  }
}

TEST(LogFold, NoCombineKeepsEveryRecord) {
  Env env;
  const auto iv = graph::VertexIntervals::uniform(20, 10);
  MultiLogStore store(env.storage, "t", iv, {.record_size = 8});
  for (std::uint32_t k = 0; k < 1000; ++k) {
    append_record<std::uint32_t>(store, 3, k);
  }
  store.swap_generations();
  EXPECT_EQ(store.current_count(0), 1000u);
  EXPECT_EQ(store.current_sends(0), 1000u);
  EXPECT_EQ(store.fold_wide_intervals(), 0u);
  EXPECT_EQ(store.fold_stats().records_folded, 0u);
}

// ---- sort & group ----------------------------------------------------------

TEST(SortGroup, SortsByDestination) {
  std::vector<TestRecord> records = {{5, 1}, {2, 2}, {5, 3}, {1, 4}};
  sort_records(records);
  EXPECT_EQ(records[0].dst, 1u);
  EXPECT_EQ(records[1].dst, 2u);
  EXPECT_EQ(records[2].dst, 5u);
  EXPECT_EQ(records[3].dst, 5u);
}

TEST(SortGroup, GroupsAreContiguousAndComplete) {
  std::vector<TestRecord> records;
  SplitMix64 rng(8);
  std::map<VertexId, std::size_t> expected;
  for (int i = 0; i < 10000; ++i) {
    const auto dst = static_cast<VertexId>(rng.next_below(100));
    records.push_back({dst, 0});
    ++expected[dst];
  }
  sort_records(records);
  std::map<VertexId, std::size_t> seen;
  for_each_group(std::span<const TestRecord>(records),
                 [&](VertexId dst, std::span<const TestRecord> group) {
                   EXPECT_EQ(seen.count(dst), 0u) << "group visited twice";
                   seen[dst] = group.size();
                 });
  EXPECT_EQ(seen, expected);
}

TEST(SortGroup, GroupOffsetsMatchForEachGroup) {
  std::vector<TestRecord> records = {{1, 0}, {1, 0}, {3, 0}, {7, 0}, {7, 0}};
  const auto offsets = group_offsets(std::span<const TestRecord>(records));
  EXPECT_EQ(offsets, (std::vector<std::size_t>{0, 2, 3, 5}));
}

TEST(SortGroup, GroupOffsetsEmpty) {
  std::vector<TestRecord> records;
  const auto offsets = group_offsets(std::span<const TestRecord>(records));
  EXPECT_EQ(offsets, std::vector<std::size_t>{0});
}

TEST(SortGroup, CombineSumsPerDestination) {
  std::vector<TestRecord> records = {{1, 10}, {1, 20}, {2, 5}, {3, 1}, {3, 2}};
  const auto n = combine_sorted(
      records, [](std::uint32_t a, std::uint32_t b) { return a + b; });
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(records[0].payload, 30u);
  EXPECT_EQ(records[1].payload, 5u);
  EXPECT_EQ(records[2].payload, 3u);
}

/// Property: processing with combine on or off gives the same per-vertex
/// reduction for an associative+commutative operator.
class CombineEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CombineEquivalence, SumsMatch) {
  SplitMix64 rng(GetParam());
  std::vector<TestRecord> records;
  for (int i = 0; i < 5000; ++i) {
    records.push_back({static_cast<VertexId>(rng.next_below(64)),
                       static_cast<std::uint32_t>(rng.next_below(100))});
  }
  auto combined = records;
  sort_records(records);
  sort_records(combined);
  combine_sorted(combined,
                 [](std::uint32_t a, std::uint32_t b) { return a + b; });

  std::map<VertexId, std::uint64_t> by_group;
  for_each_group(std::span<const TestRecord>(records),
                 [&](VertexId dst, std::span<const TestRecord> group) {
                   std::uint64_t sum = 0;
                   for (const auto& r : group) sum += r.payload;
                   by_group[dst] = sum;
                 });
  for (const auto& rec : combined) {
    EXPECT_EQ(by_group.at(rec.dst), rec.payload);
  }
  EXPECT_EQ(combined.size(), by_group.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CombineEquivalence,
                         ::testing::Values(3, 6, 9, 12));

// ---- ActiveSet -------------------------------------------------------------

TEST(ActiveSet, ActivateAndRange) {
  ActiveSet set(100);
  set.activate(5);
  set.activate(50);
  set.activate(95);
  EXPECT_TRUE(set.is_active(5));
  EXPECT_FALSE(set.is_active(6));
  EXPECT_EQ(set.count(), 3u);
  EXPECT_EQ(set.active_in_range(0, 60),
            (std::vector<VertexId>{5, 50}));
  set.clear();
  EXPECT_TRUE(set.empty());
}

TEST(ActiveSet, ConcurrentActivation) {
  ActiveSet set(10000);
  parallel_for(0, 10000, [&](int i) {
    if (i % 3 == 0) set.activate(static_cast<VertexId>(i));
  });
  EXPECT_EQ(set.count(), (10000 + 2) / 3);
}

// ---- HistoryPredictor ------------------------------------------------------

TEST(Predictor, DepthOneUsesLastSuperstepOnly) {
  HistoryPredictor pred(10, 1);
  DynamicBitset a(10);
  a.set(3);
  pred.observe(a);
  EXPECT_TRUE(pred.predict_active(3));
  EXPECT_FALSE(pred.predict_active(4));

  DynamicBitset b(10);
  b.set(4);
  pred.observe(b);  // depth 1: superstep with vertex 3 forgotten
  EXPECT_FALSE(pred.predict_active(3));
  EXPECT_TRUE(pred.predict_active(4));
}

TEST(Predictor, DeeperHistoryRemembersLonger) {
  HistoryPredictor pred(10, 3);
  DynamicBitset a(10);
  a.set(1);
  pred.observe(a);
  DynamicBitset empty(10);
  pred.observe(empty);
  pred.observe(empty);
  EXPECT_TRUE(pred.predict_active(1));
  pred.observe(empty);
  EXPECT_FALSE(pred.predict_active(1));
}

TEST(Predictor, DepthZeroNeverPredicts) {
  HistoryPredictor pred(10, 0);
  DynamicBitset a(10);
  a.set_all();
  pred.observe(a);
  EXPECT_FALSE(pred.predict_active(0));
}

// ---- PageUtilTracker -------------------------------------------------------

TEST(PageUtil, ClassifiesInefficientPages) {
  PageUtilTracker tracker(4096);
  tracker.record(1, 0, 100);    // 2.4% -> inefficient
  tracker.record(1, 1, 2000);   // 48%  -> fine
  tracker.record(1, 2, 300);    // 7.3% -> inefficient
  const auto s = tracker.finish_superstep();
  EXPECT_EQ(s.pages_touched, 3u);
  EXPECT_EQ(s.pages_inefficient, 2u);
  EXPECT_DOUBLE_EQ(s.inefficient_fraction(), 2.0 / 3.0);
}

TEST(PageUtil, AccumulatesWithinSuperstep) {
  PageUtilTracker tracker(4096);
  tracker.record(1, 0, 200);
  tracker.record(1, 0, 300);  // same page: 500 bytes total -> 12%, fine
  const auto s = tracker.finish_superstep();
  EXPECT_EQ(s.pages_inefficient, 0u);
}

TEST(PageUtil, PredictsFromPreviousSuperstep) {
  PageUtilTracker tracker(4096);
  tracker.record(1, 7, 50);
  tracker.finish_superstep();
  EXPECT_TRUE(tracker.was_inefficient(1, 7));
  EXPECT_FALSE(tracker.was_inefficient(1, 8));

  tracker.record(1, 7, 60);  // inefficient again
  tracker.record(1, 9, 10);  // new inefficient page, not predicted
  const auto s = tracker.finish_superstep();
  EXPECT_EQ(s.pages_inefficient, 2u);
  EXPECT_EQ(s.inefficient_predicted, 1u);
  EXPECT_DOUBLE_EQ(s.prediction_recall(), 0.5);
}

}  // namespace
}  // namespace mlvc::multilog
