// RuntimeContext / multi-tenant serving tests: the budget arbiter, the
// per-query IoStats sink, snapshot-isolated checkpoint publication, the
// shared admission-controlled page cache, and — the acceptance bar — N
// engines racing over one RuntimeContext producing results bit-identical to
// serial one-shot runs. Labeled sanitizer-scope: most of these are exactly
// the interleavings TSan should chew on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "apps/bfs.hpp"
#include "common/memory_budget.hpp"
#include "core/engine.hpp"
#include "core/runtime_context.hpp"
#include "graph/generators.hpp"
#include "ssd/page_cache.hpp"
#include "ssd/storage.hpp"
#include "tests/test_util.hpp"

namespace mlvc {
namespace {

graph::CsrGraph ctx_graph(std::uint64_t seed = 17) {
  graph::RmatParams p;
  p.scale = 9;
  p.edge_factor = 6;
  p.seed = seed;
  return graph::CsrGraph::from_edge_list(graph::generate_rmat(p));
}

core::RuntimeContextOptions ctx_testing_options() {
  core::RuntimeContextOptions o;
  o.device.page_size = 4_KiB;  // small pages → real out-of-core pressure
  o.shared_cache_bytes = 64_KiB;
  o.memory_pool_bytes = 64_MiB;
  return o;
}

// ---- BudgetArbiter ---------------------------------------------------------

TEST(BudgetArbiter, AccountingAndTryAcquire) {
  BudgetArbiter arb("t", 100);
  EXPECT_EQ(arb.total(), 100u);
  EXPECT_EQ(arb.used(), 0u);
  {
    BudgetLease a = arb.acquire(60);
    EXPECT_EQ(arb.used(), 60u);
    EXPECT_EQ(arb.available(), 40u);
    auto b = arb.try_acquire(50);
    EXPECT_FALSE(b.has_value());  // 60 + 50 > 100
    auto c = arb.try_acquire(40);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(arb.used(), 100u);
    c->reset();
    EXPECT_EQ(arb.used(), 60u);
  }
  EXPECT_EQ(arb.used(), 0u);  // lease released on scope exit
}

TEST(BudgetArbiter, OversizeRequestThrows) {
  BudgetArbiter arb("t", 100);
  EXPECT_THROW(arb.acquire(101), BudgetError);
  EXPECT_THROW(arb.try_acquire(101), BudgetError);
  EXPECT_EQ(arb.used(), 0u);
}

TEST(BudgetArbiter, BlockingAcquireWakesOnRelease) {
  BudgetArbiter arb("t", 100);
  BudgetLease big = arb.acquire(80);
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    BudgetLease lease = arb.acquire(50);  // parks: 80 + 50 > 100
    admitted.store(true);
  });
  // Give the waiter time to park, then confirm it is actually parked.
  while (arb.waiters() == 0) std::this_thread::yield();
  EXPECT_FALSE(admitted.load());
  big.reset();  // frees 80 → the 50 fits
  waiter.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(arb.used(), 0u);
}

// ---- per-query IoStats sink ------------------------------------------------

TEST(IoStats, ScopedSinkMirrorsRecords) {
  ssd::IoStats global;
  ssd::IoStats query;
  global.record_read(ssd::IoCategory::kCsrColIdx, 2, 8192);
  {
    ssd::IoStats::ScopedSink scope(&query);
    global.record_read(ssd::IoCategory::kCsrColIdx, 3, 12288);
    global.record_cache_hit(5);
  }
  global.record_cache_hit(1);  // after the scope: not mirrored
  const auto g = global.snapshot();
  const auto q = query.snapshot();
  EXPECT_EQ(g.total_pages_read(), 5u);
  EXPECT_EQ(q.total_pages_read(), 3u);  // only the in-scope read
  EXPECT_EQ(g.cache_hit_pages, 6u);
  EXPECT_EQ(q.cache_hit_pages, 5u);
}

TEST(IoStats, SinkSelfMirrorIsHarmless) {
  ssd::IoStats stats;
  ssd::IoStats::ScopedSink scope(&stats);  // sink == recorder
  stats.record_write(ssd::IoCategory::kMessageLog, 4, 16384);
  EXPECT_EQ(stats.snapshot().total_pages_written(), 4u);  // not doubled
}

// ---- SnapshotTable ---------------------------------------------------------

TEST(SnapshotTable, PublishPinResolveGc) {
  ssd::TempDir dir;
  ssd::Storage storage(dir.path());
  core::SnapshotTable table(storage);
  EXPECT_EQ(table.epoch(), 0u);
  EXPECT_EQ(table.generation("ckpt/a"), 0u);

  const auto stage = [&](const char* tmp, const char* payload) {
    ssd::Blob& b = storage.create_blob(tmp, ssd::IoCategory::kMisc);
    b.append(payload, std::strlen(payload));
  };
  stage("tmp1", "one");
  EXPECT_EQ(table.publish("ckpt/a", "tmp1"), 1u);
  EXPECT_EQ(table.epoch(), 1u);
  EXPECT_TRUE(storage.has_blob("ckpt/a@g1"));

  core::SnapshotTable::Ref pinned = table.pin();
  EXPECT_TRUE(pinned.contains("ckpt/a"));
  EXPECT_EQ(pinned.resolve("ckpt/a"), "ckpt/a@g1");

  // Publish generation 2 while g1 is pinned: both blobs stay live and the
  // pinned reader still resolves to g1.
  stage("tmp2", "two");
  EXPECT_EQ(table.publish("ckpt/a", "tmp2"), 2u);
  EXPECT_EQ(table.live_generations("ckpt/a"), 2u);
  EXPECT_TRUE(storage.has_blob("ckpt/a@g1"));
  EXPECT_TRUE(storage.has_blob("ckpt/a@g2"));
  EXPECT_EQ(pinned.resolve("ckpt/a"), "ckpt/a@g1");
  {
    char buf[3];
    storage.open_blob(pinned.resolve("ckpt/a")).read(0, buf, 3);
    EXPECT_EQ(std::string(buf, 3), "one");
  }
  core::SnapshotTable::Ref latest = table.pin();
  EXPECT_EQ(latest.resolve("ckpt/a"), "ckpt/a@g2");

  // Unpin g1 → the superseded generation is collected; g2 survives.
  pinned.reset();
  EXPECT_EQ(table.live_generations("ckpt/a"), 1u);
  EXPECT_FALSE(storage.has_blob("ckpt/a@g1"));
  EXPECT_TRUE(storage.has_blob("ckpt/a@g2"));
}

TEST(SnapshotTable, UnknownNameThrows) {
  ssd::TempDir dir;
  ssd::Storage storage(dir.path());
  core::SnapshotTable table(storage);
  core::SnapshotTable::Ref ref = table.pin();
  EXPECT_FALSE(ref.contains("nope"));
  EXPECT_THROW(ref.resolve("nope"), InvalidArgument);
}

TEST(SnapshotTable, ConcurrentPublishAndPin) {
  ssd::TempDir dir;
  ssd::Storage storage(dir.path());
  core::SnapshotTable table(storage);
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> failures{0};
  std::thread publisher([&] {
    for (int i = 0; i < 50; ++i) {
      const std::string tmp = "tmp" + std::to_string(i);
      ssd::Blob& b = storage.create_blob(tmp, ssd::IoCategory::kMisc);
      b.append("xy", 2);
      table.publish("ckpt/hot", tmp);
    }
    stop.store(true);
  });
  std::thread reader([&] {
    char buf[2];
    while (!stop.load()) {
      core::SnapshotTable::Ref ref = table.pin();
      if (!ref.contains("ckpt/hot")) continue;  // nothing published yet
      try {
        // The pin must keep this generation's blob alive for the whole read.
        storage.open_blob(ref.resolve("ckpt/hot")).read(0, buf, 2);
      } catch (...) {
        failures.fetch_add(1);
      }
    }
  });
  publisher.join();
  reader.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(table.generation("ckpt/hot"), 50u);
  EXPECT_EQ(table.live_generations("ckpt/hot"), 1u);  // all pins dropped
}

// ---- shared io-backend probe -----------------------------------------------

TEST(SharedProbe, ConcurrentSetIoBackendIsStable) {
  // Two storages and many threads all racing set_io_backend must resolve to
  // the one process-wide probe — same answer, same (normalized) reason.
  const auto& probe = ssd::shared_io_backend_probe();
  ssd::TempDir da, db;
  ssd::Storage a(da.path()), b(db.path());
  std::vector<std::thread> threads;
  std::vector<ssd::IoBackendKind> got(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      ssd::Storage& s = (t % 2 != 0) ? a : b;
      got[static_cast<std::size_t>(t)] =
          s.set_io_backend(ssd::IoBackendKind::kUring);
    });
  }
  for (auto& t : threads) t.join();
  const auto expected = probe.uring_available ? ssd::IoBackendKind::kUring
                                              : ssd::IoBackendKind::kThreadPool;
  for (const auto k : got) EXPECT_EQ(k, expected);
  if (!probe.uring_available) {
    EXPECT_FALSE(probe.fallback_reason.empty());
    EXPECT_EQ(a.io_backend_fallback(), probe.fallback_reason);
    EXPECT_EQ(b.io_backend_fallback(), probe.fallback_reason);
  }
  // The probe result is a process-wide singleton.
  EXPECT_EQ(&probe, &ssd::shared_io_backend_probe());
}

// ---- shared PageCache admission --------------------------------------------

TEST(SharedCache, PerQuerySplitAndAdmission) {
  ssd::TempDir dir;
  ssd::DeviceConfig dev;
  dev.page_size = 4_KiB;
  ssd::Storage storage(dir.path(), dev);
  const std::size_t page = storage.page_size();
  ssd::Blob& blob = storage.create_blob("data", ssd::IoCategory::kCsrColIdx);
  std::vector<char> pattern(page * 8);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<char>(i * 31 + 7);
  }
  blob.append(pattern.data(), pattern.size());

  ssd::PageCache cache(storage, page * 8);
  auto quota2 = cache.register_query(page * 2);   // may keep 2 pages
  auto open_q = cache.register_query(0);          // unlimited
  ASSERT_NE(quota2.slot(), nullptr);
  EXPECT_EQ(quota2.slot()->quota_pages(), 2u);

  std::vector<char> buf(page);
  const auto read_page = [&](std::size_t p) {
    cache.read(blob, p * page, buf.data(), page);
    EXPECT_EQ(std::memcmp(buf.data(), pattern.data() + p * page, page), 0);
  };

  {
    ssd::PageCache::ScopedQuery scope(quota2.slot());
    read_page(0);
    read_page(1);  // fills the quota
    read_page(2);  // at quota → served around the cache
    read_page(3);
    EXPECT_EQ(quota2.slot()->misses(), 2u);
    EXPECT_EQ(quota2.slot()->bypasses(), 2u);
    EXPECT_EQ(quota2.slot()->resident_pages(), 2u);
    read_page(0);  // resident → hit, no quota effect
    EXPECT_EQ(quota2.slot()->hits(), 1u);
  }
  {
    // The unlimited query hits the page the quota'd query already cached
    // and can fill the rest of the cache; its split is its own.
    ssd::PageCache::ScopedQuery scope(open_q.slot());
    read_page(0);
    EXPECT_EQ(open_q.slot()->hits(), 1u);
    read_page(2);
    read_page(3);
    EXPECT_EQ(open_q.slot()->misses(), 2u);
    EXPECT_EQ(open_q.slot()->bypasses(), 0u);
  }
  EXPECT_LE(cache.bytes_high_water(), cache.capacity_bytes());
  const auto snap = storage.stats().snapshot();
  EXPECT_EQ(snap.cache_bypass_pages, 2u);
  EXPECT_EQ(snap.cache_hit_pages, 2u);

  // Unregistering releases the quota'd query's frame ownership; the pages
  // stay cached for everyone else.
  quota2.reset();
  ssd::PageCache::ScopedQuery scope(open_q.slot());
  read_page(1);
  EXPECT_EQ(open_q.slot()->hits(), 2u);
}

TEST(SharedCache, EvictionCountersAndBudget) {
  ssd::TempDir dir;
  ssd::DeviceConfig dev;
  dev.page_size = 4_KiB;
  ssd::Storage storage(dir.path(), dev);
  const std::size_t page = storage.page_size();
  ssd::Blob& blob = storage.create_blob("data", ssd::IoCategory::kCsrColIdx);
  std::vector<char> zeros(page * 6, 3);
  blob.append(zeros.data(), zeros.size());

  ssd::PageCache cache(storage, page * 2);  // room for 2 pages only
  std::vector<char> buf(page);
  for (std::size_t p = 0; p < 6; ++p) cache.read(blob, p * page, buf.data(), page);
  EXPECT_EQ(cache.misses(), 6u);
  EXPECT_EQ(cache.evictions(), 4u);  // 6 fills into 2 frames
  EXPECT_EQ(cache.bytes_high_water(), cache.capacity_bytes());
  const auto snap = storage.stats().snapshot();
  EXPECT_EQ(snap.cache_evictions, 4u);
  EXPECT_EQ(snap.cache_bytes_high_water, cache.capacity_bytes());
}

// ---- the acceptance bar: concurrent engines == serial one-shots ------------

TEST(RuntimeContext, ConcurrentEnginesMatchSerialOneShots) {
  const auto csr = ctx_graph();
  const std::vector<VertexId> sources = {0, 7, 33, 100, 211, 350, 401, 499};

  // Serial ground truth: one-shot engines, each with its own substrate.
  std::vector<std::vector<apps::Bfs::Value>> expected;
  for (const VertexId src : sources) {
    ssd::TempDir dir;
    ssd::DeviceConfig dev;
    dev.page_size = 4_KiB;
    ssd::Storage storage(dir.path(), dev);
    auto opts = testing_options();
    graph::StoredCsrGraph stored(
        storage, "g", csr, core::partition_for_app<apps::Bfs>(csr, opts), {});
    core::MultiLogVCEngine<apps::Bfs> engine(stored, apps::Bfs{.source = src},
                                             opts);
    engine.run();
    expected.push_back(engine.values());
  }

  // Concurrent runs: one RuntimeContext, one stored graph, one shared
  // cache; every query races the others.
  ssd::TempDir dir;
  core::RuntimeContext ctx(dir.path(), ctx_testing_options());
  auto opts = testing_options();
  graph::StoredCsrGraph stored(
      ctx.storage(), "g", csr, core::partition_for_app<apps::Bfs>(csr, opts),
      {});
  ctx.adopt_graph(stored);

  std::vector<std::vector<apps::Bfs::Value>> got(sources.size());
  std::vector<core::RunStats> run_stats(sources.size());
  std::vector<std::thread> threads;
  std::atomic<std::size_t> thread_failures{0};
  for (std::size_t i = 0; i < sources.size(); ++i) {
    threads.emplace_back([&, i] {
      try {
        core::MultiLogVCEngine<apps::Bfs> engine(
            ctx, stored, apps::Bfs{.source = sources[i]}, opts);
        run_stats[i] = engine.run();
        got[i] = engine.values();
        ctx.merge_run(run_stats[i]);
      } catch (...) {
        thread_failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(thread_failures.load(), 0u);

  for (std::size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "source " << sources[i];
  }

  // Per-query attribution: distinct ids, each query saw its own (nonzero)
  // log traffic even while all shared one Storage.
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    ids.push_back(run_stats[i].query_id);
    EXPECT_GT(run_stats[i].total_pages(), 0u) << "source " << sources[i];
    EXPECT_EQ(run_stats[i].io_backend, ctx.io_backend_name());
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());

  const auto agg = ctx.aggregates();
  EXPECT_EQ(agg.queries_completed, sources.size());
  EXPECT_GT(agg.supersteps, 0u);
  EXPECT_GT(agg.pages_read, 0u);

  // The shared cache never outgrew its configured budget.
  EXPECT_LE(ctx.shared_cache()->bytes_high_water(),
            ctx.shared_cache()->capacity_bytes());
}

std::size_t open_fd_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

TEST(RuntimeContext, FinishedQueriesReleaseTheirBlobs) {
  const auto csr = ctx_graph();
  ssd::TempDir dir;
  core::RuntimeContext ctx(dir.path(), ctx_testing_options());
  auto opts = testing_options();
  graph::StoredCsrGraph stored(
      ctx.storage(), "g", csr, core::partition_for_app<apps::Bfs>(csr, opts),
      {});
  ctx.adopt_graph(stored);
  const auto run_query = [&](VertexId source, bool checkpoint) {
    core::MultiLogVCEngine<apps::Bfs> engine(ctx, stored,
                                             apps::Bfs{.source = source}, opts);
    engine.run();
    if (checkpoint) engine.save_checkpoint("kept");
    return engine.query_id();
  };
  // The first query also warms whatever the process opens lazily.
  const std::uint64_t first = run_query(0, /*checkpoint=*/true);
  const std::size_t fds = open_fd_count();
  for (VertexId source = 1; source <= 8; ++source) run_query(source, false);
  EXPECT_EQ(open_fd_count(), fds);

  const std::string prefix = core::RuntimeContext::query_prefix(first);
  EXPECT_FALSE(ctx.storage().has_blob(prefix + "/values"));
  EXPECT_FALSE(ctx.storage().has_blob(prefix + "/log_gen0"));
  // What the SnapshotTable published outlives the engine that saved it.
  EXPECT_TRUE(ctx.storage().has_blob("ckpt/kept@g1"));
  core::MultiLogVCEngine<apps::Bfs> reader(ctx, stored,
                                           apps::Bfs{.source = 0}, opts);
  reader.load_checkpoint("kept");
}

TEST(RuntimeContext, HonorsStorageEnvOverrides) {
  // A default-constructed context resolves the storage rows of the env
  // table like a raw Storage and a one-shot engine do, so the CI uring and
  // fault legs reach context mode too.
  const bool uring = ssd::shared_io_backend_probe().uring_available;
  ScopedEnv retries("MLVC_FAULT_RETRIES", "9");
  ScopedEnv backend("MLVC_IO_BACKEND", uring ? "uring" : nullptr);
  ssd::TempDir dir;
  core::RuntimeContext ctx(dir.path());
  EXPECT_EQ(ctx.storage().retry_policy().max_attempts, 9u);
  EXPECT_EQ(ctx.io_backend(), uring ? ssd::IoBackendKind::kUring
                                    : ssd::IoBackendKind::kThreadPool);
}

// ---- snapshot isolation over checkpoints -----------------------------------

TEST(RuntimeContext, CheckpointSnapshotIsolationAcrossPublish) {
  const auto csr = ctx_graph(23);
  ssd::TempDir dir;
  core::RuntimeContext ctx(dir.path(), ctx_testing_options());
  auto opts = testing_options();
  opts.max_supersteps = 12;
  graph::StoredCsrGraph stored(
      ctx.storage(), "g", csr, core::partition_for_app<apps::Bfs>(csr, opts),
      {});
  ctx.adopt_graph(stored);

  // Query 1 runs three supersteps and checkpoints.
  core::MultiLogVCEngine<apps::Bfs> e1(ctx, stored, apps::Bfs{.source = 0},
                                       opts);
  int steps = 0;
  e1.run_with_callback(
      [&](const core::SuperstepStats&) { return ++steps < 3; });
  e1.save_checkpoint("iso");
  EXPECT_EQ(ctx.snapshots().generation("ckpt/iso"), 1u);

  // A reader pins the table (as load_checkpoint does), then the engine
  // publishes generation 2 over the same name.
  core::SnapshotTable::Ref pinned = ctx.snapshots().pin();
  e1.run_with_callback(
      [&](const core::SuperstepStats&) { return ++steps < 5; });
  e1.save_checkpoint("iso");
  EXPECT_EQ(ctx.snapshots().generation("ckpt/iso"), 2u);
  EXPECT_EQ(pinned.resolve("ckpt/iso"), "ckpt/iso@g1");
  EXPECT_TRUE(ctx.storage().has_blob("ckpt/iso@g1"));  // pin kept it alive
  pinned.reset();
  EXPECT_FALSE(ctx.storage().has_blob("ckpt/iso@g1"));  // collected

  // A second query restores the latest checkpoint and finishes; it must
  // land exactly where query 1 lands from the same point.
  e1.run();
  core::MultiLogVCEngine<apps::Bfs> e2(ctx, stored, apps::Bfs{.source = 0},
                                       opts);
  e2.load_checkpoint("iso");
  e2.run();
  EXPECT_EQ(e2.values(), e1.values());
}

}  // namespace
}  // namespace mlvc
