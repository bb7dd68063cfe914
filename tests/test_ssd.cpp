// Unit tests for the storage layer: blobs, page accounting, the device
// model (channels, sequential discount), the page cache, and async I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <map>
#include <string_view>

#include "common/rng.hpp"
#include "ssd/async_io.hpp"
#include "ssd/page_cache.hpp"
#include "ssd/storage.hpp"

namespace mlvc {
namespace {

ssd::DeviceConfig small_pages() {
  ssd::DeviceConfig d;
  d.page_size = 4_KiB;
  return d;
}

TEST(Storage, BlobRoundTrip) {
  ssd::TempDir dir;
  ssd::Storage storage(dir.path(), small_pages());
  ssd::Blob& blob = storage.create_blob("a", ssd::IoCategory::kMisc);
  const std::string payload = "hello multilog";
  blob.append(payload.data(), payload.size());
  EXPECT_EQ(blob.size(), payload.size());

  std::string back(payload.size(), '\0');
  blob.read(0, back.data(), back.size());
  EXPECT_EQ(back, payload);
}

TEST(Storage, ReadPastEndThrows) {
  ssd::TempDir dir;
  ssd::Storage storage(dir.path(), small_pages());
  ssd::Blob& blob = storage.create_blob("a", ssd::IoCategory::kMisc);
  char c = 'x';
  blob.append(&c, 1);
  EXPECT_THROW(blob.read(0, &c, 2), Error);
  EXPECT_THROW(blob.read(5, &c, 1), Error);
}

TEST(Storage, WriteExtendsAndOverwrites) {
  ssd::TempDir dir;
  ssd::Storage storage(dir.path(), small_pages());
  ssd::Blob& blob = storage.create_blob("a", ssd::IoCategory::kMisc);
  std::uint32_t v = 1;
  blob.write(100, &v, sizeof(v));
  EXPECT_EQ(blob.size(), 104u);
  v = 2;
  blob.write(100, &v, sizeof(v));
  EXPECT_EQ(blob.size(), 104u);
  std::uint32_t back = 0;
  blob.read(100, &back, sizeof(back));
  EXPECT_EQ(back, 2u);
}

TEST(Storage, TruncateShrinks) {
  ssd::TempDir dir;
  ssd::Storage storage(dir.path(), small_pages());
  ssd::Blob& blob = storage.create_blob("a", ssd::IoCategory::kMisc);
  std::vector<char> data(10000, 'z');
  blob.append(data.data(), data.size());
  blob.truncate(100);
  EXPECT_EQ(blob.size(), 100u);
  char c;
  EXPECT_THROW(blob.read(100, &c, 1), Error);
}

TEST(Storage, PageAccountingCountsTouchedPages) {
  ssd::TempDir dir;
  ssd::Storage storage(dir.path(), small_pages());
  ssd::Blob& blob = storage.create_blob("a", ssd::IoCategory::kCsrColIdx);
  std::vector<char> data(16_KiB, 'x');  // 4 pages
  blob.append(data.data(), data.size());
  auto snap = storage.stats().snapshot();
  EXPECT_EQ(snap[ssd::IoCategory::kCsrColIdx].pages_written, 4u);

  // A 100-byte read straddling a page boundary costs 2 pages.
  char buf[100];
  blob.read(4_KiB - 50, buf, 100);
  snap = storage.stats().snapshot();
  EXPECT_EQ(snap[ssd::IoCategory::kCsrColIdx].pages_read, 2u);
  EXPECT_EQ(snap[ssd::IoCategory::kCsrColIdx].bytes_read, 100u);
}

TEST(Storage, ConcurrentAppendsDoNotOverlap) {
  ssd::TempDir dir;
  ssd::Storage storage(dir.path(), small_pages());
  ssd::Blob& blob = storage.create_blob("a", ssd::IoCategory::kMisc);
  constexpr int kThreads = 8, kPerThread = 200;
  {
    ThreadPool pool(kThreads);
    std::vector<std::future<void>> futures;
    for (int t = 0; t < kThreads; ++t) {
      futures.push_back(pool.submit([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const std::uint64_t value =
              (static_cast<std::uint64_t>(t) << 32) | i;
          blob.append(&value, sizeof(value));
        }
      }));
    }
    for (auto& f : futures) f.get();
  }
  EXPECT_EQ(blob.size(), sizeof(std::uint64_t) * kThreads * kPerThread);
  // Every written value must be present exactly once.
  std::vector<std::uint64_t> values(kThreads * kPerThread);
  blob.read(0, values.data(), values.size() * sizeof(values[0]));
  std::sort(values.begin(), values.end());
  EXPECT_EQ(std::unique(values.begin(), values.end()), values.end());
}

TEST(Storage, BlobNamespacing) {
  ssd::TempDir dir;
  ssd::Storage storage(dir.path(), small_pages());
  storage.create_blob("csr/0/colidx", ssd::IoCategory::kCsrColIdx);
  storage.create_blob("csr/1/colidx", ssd::IoCategory::kCsrColIdx);
  EXPECT_TRUE(storage.has_blob("csr/0/colidx"));
  EXPECT_TRUE(storage.has_blob("csr/1/colidx"));
  EXPECT_FALSE(storage.has_blob("csr/2/colidx"));
  EXPECT_THROW(storage.open_blob("csr/2/colidx"), InvalidArgument);
  storage.remove_blob("csr/0/colidx");
  EXPECT_FALSE(storage.has_blob("csr/0/colidx"));
}

TEST(Storage, CreateBlobTruncatesExisting) {
  ssd::TempDir dir;
  ssd::Storage storage(dir.path(), small_pages());
  ssd::Blob& a = storage.create_blob("a", ssd::IoCategory::kMisc);
  char c = 'x';
  a.append(&c, 1);
  ssd::Blob& b = storage.create_blob("a", ssd::IoCategory::kMisc);
  EXPECT_EQ(b.size(), 0u);
}

TEST(Storage, TypedHelpers) {
  ssd::TempDir dir;
  ssd::Storage storage(dir.path(), small_pages());
  ssd::Blob& blob = storage.create_blob("a", ssd::IoCategory::kMisc);
  std::vector<std::uint32_t> values = {1, 2, 3, 4, 5};
  blob.append_span<std::uint32_t>(values);
  EXPECT_EQ(blob.element_count<std::uint32_t>(), 5u);
  const auto back = blob.read_vector<std::uint32_t>(1, 3);
  EXPECT_EQ(back, (std::vector<std::uint32_t>{2, 3, 4}));
}

// ---- DeviceModel -----------------------------------------------------------

TEST(DeviceModel, ChannelsAccumulateIndependently) {
  ssd::DeviceConfig cfg;
  cfg.num_channels = 4;
  cfg.page_read_us = 100;
  cfg.sequential_factor = 1.0;
  ssd::DeviceModel dev(cfg);
  // All pages to the same (blob, page) -> one channel: serial time.
  for (int i = 0; i < 10; ++i) dev.record(1, 0, /*device=*/0, false, 1.0);
  EXPECT_DOUBLE_EQ(dev.modeled_seconds(), 10 * 100e-6);
  dev.reset();
  // Consecutive pages stripe across channels: parallel time.
  for (std::uint64_t p = 0; p < 8; ++p) dev.record(1, p, /*device=*/0, false, 1.0);
  EXPECT_DOUBLE_EQ(dev.modeled_seconds(), 2 * 100e-6);  // 8 pages / 4 channels
}

TEST(DeviceModel, SequentialDiscountApplied) {
  ssd::DeviceConfig cfg;
  cfg.page_size = 4_KiB;
  cfg.num_channels = 1;
  cfg.page_read_us = 100;
  cfg.sequential_factor = 0.5;
  ssd::TempDir dir;
  ssd::Storage storage(dir.path(), cfg);
  ssd::Blob& blob = storage.create_blob("a", ssd::IoCategory::kMisc);
  std::vector<char> data(16_KiB, 'x');
  blob.append(data.data(), data.size());  // 4 pages: 1 full + 3 discounted
  const double write_time = storage.device().modeled_seconds();
  const double expected_w = (1.0 + 3 * 0.5) * cfg.page_write_us * 1e-6;
  EXPECT_NEAR(write_time, expected_w, 1e-9);

  const auto before = storage.device().snapshot();
  blob.read(0, data.data(), data.size());
  const double read_time = storage.device().modeled_seconds_between(
      before, storage.device().snapshot());
  EXPECT_NEAR(read_time, (1.0 + 3 * 0.5) * 100e-6, 1e-9);
}

TEST(DeviceModel, SeparateCallsPayFullFirstPage) {
  ssd::DeviceConfig cfg;
  cfg.page_size = 4_KiB;
  cfg.num_channels = 1;
  cfg.page_read_us = 100;
  cfg.sequential_factor = 0.5;
  ssd::TempDir dir;
  ssd::Storage storage(dir.path(), cfg);
  ssd::Blob& blob = storage.create_blob("a", ssd::IoCategory::kMisc);
  std::vector<char> data(16_KiB, 'x');
  blob.append(data.data(), data.size());

  const auto before = storage.device().snapshot();
  char buf[64];
  for (std::uint64_t p = 0; p < 4; ++p) {
    blob.read(p * 4_KiB, buf, sizeof(buf));  // 4 separate commands
  }
  const double t = storage.device().modeled_seconds_between(
      before, storage.device().snapshot());
  EXPECT_NEAR(t, 4 * 100e-6, 1e-9);  // no discount across calls
}

TEST(DeviceModel, InvalidConfigRejected) {
  ssd::DeviceConfig cfg;
  cfg.page_size = 1000;  // not a power of two
  EXPECT_THROW(ssd::DeviceModel{cfg}, Error);
  cfg = ssd::DeviceConfig{};
  cfg.sequential_factor = 0.0;
  EXPECT_THROW(ssd::DeviceModel{cfg}, Error);
  cfg = ssd::DeviceConfig{};
  cfg.num_channels = 0;
  EXPECT_THROW(ssd::DeviceModel{cfg}, Error);
}

// ---- IoStats ---------------------------------------------------------------

TEST(IoStats, SnapshotDiff) {
  ssd::IoStats stats;
  stats.record_read(ssd::IoCategory::kShard, 5, 5000);
  const auto a = stats.snapshot();
  stats.record_read(ssd::IoCategory::kShard, 3, 3000);
  stats.record_write(ssd::IoCategory::kMessageLog, 2, 2000);
  const auto diff = stats.snapshot() - a;
  EXPECT_EQ(diff[ssd::IoCategory::kShard].pages_read, 3u);
  EXPECT_EQ(diff[ssd::IoCategory::kMessageLog].pages_written, 2u);
  EXPECT_EQ(diff.total_pages(), 5u);

  // Every list entry: each record_* call lands in its listed field, diffs
  // subtract counters and carry gauges, += adds counters and takes the max
  // of gauges, and reset() zeroes everything.
  using ssd::IoCategory;
  using ssd::IoFieldKind;
  stats.reset();
  stats.record_read(IoCategory::kShard, 1, 2);
  stats.record_write(IoCategory::kShard, 3, 4);
  stats.record_logical_read(IoCategory::kShard, 5);
  stats.record_logical_write(IoCategory::kShard, 6);
  stats.record_cache_hit(7);
  stats.record_cache_miss(8);
  stats.record_cache_eviction(9);
  stats.record_cache_bypass(10);
  stats.record_cache_high_water(11);
  for (int i = 0; i < 2; ++i) stats.record_io_retry();
  for (int i = 0; i < 3; ++i) stats.record_io_giveup();
  for (int i = 0; i < 4; ++i) stats.record_submit_batch();
  stats.record_sqe_coalesced(12);
  stats.record_inflight_depth(13);

  const std::map<std::string_view, std::uint64_t> want_category = {
      {"pages_read", 1},         {"pages_written", 3},
      {"bytes_read", 2},         {"bytes_written", 4},
      {"logical_bytes_read", 5}, {"logical_bytes_written", 6}};
  const std::map<std::string_view, std::uint64_t> want_scalar = {
      {"cache_hit_pages", 7},        {"cache_miss_pages", 8},
      {"cache_evictions", 9},        {"cache_bypass_pages", 10},
      {"cache_bytes_high_water", 11}, {"io_retries", 2},
      {"io_giveups", 3},             {"submit_batches", 4},
      {"sqe_coalesced_ops", 12},     {"max_inflight_depth", 13}};
  ASSERT_EQ(want_category.size(), std::size(ssd::kIoCategoryFields));
  ASSERT_EQ(want_scalar.size(), std::size(ssd::kIoScalarFields));
  const auto first = stats.snapshot();
  for (unsigned c = 0; c < ssd::kNumIoCategories; ++c) {
    const bool shard = c == static_cast<unsigned>(IoCategory::kShard);
    for (const auto& f : ssd::kIoCategoryFields) {
      EXPECT_EQ(first.categories[c].*f.member,
                shard ? want_category.at(f.key) : 0u)
          << f.key;
    }
  }
  for (const auto& f : ssd::kIoScalarFields) {
    EXPECT_EQ(first.*f.member, want_scalar.at(f.key)) << f.key;
  }
  EXPECT_EQ(first.io_retry_count, 2u);
  EXPECT_EQ(first.max_inflight_depth, 13u);

  // A diff subtracts counters; both gauges carry their current mark.
  stats.record_cache_hit(1);
  stats.record_cache_high_water(5);   // below the mark: unchanged
  stats.record_inflight_depth(20);    // raises the mark
  const auto second = stats.snapshot();
  const auto delta = second - first;
  for (const auto& f : ssd::kIoScalarFields) {
    const bool gauge = f.kind == IoFieldKind::kGauge;
    EXPECT_EQ(delta.*f.member,
              gauge ? second.*f.member : second.*f.member - first.*f.member)
        << f.key;
  }
  EXPECT_EQ(delta.cache_hit_pages, 1u);
  EXPECT_EQ(delta.cache_bytes_high_water, 11u);
  EXPECT_EQ(delta.max_inflight_depth, 20u);
  EXPECT_EQ(delta.total_pages(), 0u);

  // += adds counters and takes the max of gauges, whichever side holds it.
  ssd::IoStatsSnapshot lhs, rhs;
  std::uint64_t i = 0;
  for (const auto& f : ssd::kIoScalarFields) {
    lhs.*f.member = 10 * (i + 1);
    rhs.*f.member = i % 2 == 0 ? 1000 : 1;
    ++i;
  }
  lhs[IoCategory::kMisc].bytes_read = 6;
  rhs[IoCategory::kMisc].bytes_read = 7;
  auto sum = lhs;
  sum += rhs;
  for (const auto& f : ssd::kIoScalarFields) {
    const bool gauge = f.kind == IoFieldKind::kGauge;
    EXPECT_EQ(sum.*f.member, gauge ? std::max(lhs.*f.member, rhs.*f.member)
                                   : lhs.*f.member + rhs.*f.member)
        << f.key;
  }
  EXPECT_EQ(sum.cache_bytes_high_water, 1000u);  // rhs holds the max
  EXPECT_EQ(sum.max_inflight_depth, 100u);       // lhs holds the max
  EXPECT_EQ(sum[IoCategory::kMisc].bytes_read, 13u);

  stats.reset();
  const auto zero = stats.snapshot();
  for (const auto& cat : zero.categories) {
    for (const auto& f : ssd::kIoCategoryFields) {
      EXPECT_EQ(cat.*f.member, 0u) << f.key;
    }
  }
  for (const auto& f : ssd::kIoScalarFields) {
    EXPECT_EQ(zero.*f.member, 0u) << f.key;
  }
}

// ---- PageCache -------------------------------------------------------------

TEST(PageCache, HitsAvoidDeviceTraffic) {
  ssd::TempDir dir;
  ssd::Storage storage(dir.path(), small_pages());
  ssd::Blob& blob = storage.create_blob("a", ssd::IoCategory::kMisc);
  std::vector<std::uint32_t> data(4096);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint32_t>(i);
  }
  blob.append(data.data(), data.size() * 4);

  ssd::PageCache cache(storage, 64_KiB);
  std::uint32_t v = 0;
  cache.read(blob, 100 * 4, &v, 4);
  EXPECT_EQ(v, 100u);
  const auto after_first = storage.stats().snapshot();
  cache.read(blob, 104 * 4, &v, 4);  // same page: must be a hit
  EXPECT_EQ(v, 104u);
  EXPECT_EQ(storage.stats().snapshot().total_pages_read(),
            after_first.total_pages_read());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(PageCache, EvictsUnderPressure) {
  ssd::TempDir dir;
  ssd::Storage storage(dir.path(), small_pages());
  ssd::Blob& blob = storage.create_blob("a", ssd::IoCategory::kMisc);
  std::vector<char> data(64_KiB, 'x');
  blob.append(data.data(), data.size());

  ssd::PageCache cache(storage, 8_KiB);  // 2 frames of 4 KiB
  char c;
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t p = 0; p < 8; ++p) {
      cache.read(blob, p * 4_KiB, &c, 1);
    }
  }
  EXPECT_GT(cache.misses(), 8u);  // capacity misses occurred
}

TEST(PageCache, CrossPageRead) {
  ssd::TempDir dir;
  ssd::Storage storage(dir.path(), small_pages());
  ssd::Blob& blob = storage.create_blob("a", ssd::IoCategory::kMisc);
  std::vector<char> data(8_KiB);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>(i % 251);
  }
  blob.append(data.data(), data.size());
  ssd::PageCache cache(storage, 16_KiB);
  std::vector<char> out(300);
  cache.read(blob, 4_KiB - 150, out.data(), out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<char>((4_KiB - 150 + i) % 251));
  }
}

TEST(PageCache, InvalidateDropsEverything) {
  ssd::TempDir dir;
  ssd::Storage storage(dir.path(), small_pages());
  ssd::Blob& blob = storage.create_blob("a", ssd::IoCategory::kMisc);
  std::uint32_t v = 7;
  blob.append(&v, 4);
  ssd::PageCache cache(storage, 8_KiB);
  std::uint32_t out;
  cache.read(blob, 0, &out, 4);
  EXPECT_EQ(out, 7u);
  v = 9;
  blob.write(0, &v, 4);
  cache.read(blob, 0, &out, 4);
  EXPECT_EQ(out, 7u);  // stale: cache not invalidated yet
  cache.invalidate();
  cache.read(blob, 0, &out, 4);
  EXPECT_EQ(out, 9u);
}

// ---- AsyncIo ---------------------------------------------------------------

TEST(AsyncIo, ParallelReadsComplete) {
  ssd::TempDir dir;
  ssd::Storage storage(dir.path(), small_pages());
  ssd::Blob& blob = storage.create_blob("a", ssd::IoCategory::kMisc);
  std::vector<std::uint64_t> data(8192);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = i * 3;
  blob.append(data.data(), data.size() * 8);

  ssd::AsyncIo io(4);
  std::vector<std::uint64_t> out(data.size());
  ssd::IoBatch batch;
  constexpr std::size_t kChunk = 512;
  for (std::size_t off = 0; off < data.size(); off += kChunk) {
    batch.add(io.read(&blob, off * 8, out.data() + off, kChunk * 8));
  }
  batch.wait();
  EXPECT_EQ(out, data);
}

TEST(Storage, ReadMultiRoundTrip) {
  ssd::TempDir dir;
  ssd::Storage storage(dir.path(), small_pages());
  ssd::Blob& blob = storage.create_blob("a", ssd::IoCategory::kMisc);
  std::vector<std::uint32_t> data(8192);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint32_t>(i * 7);
  }
  blob.append(data.data(), data.size() * 4);

  // Mix of contiguous, gapped, and empty ranges in one vectored call.
  std::vector<std::uint32_t> a(100), b(200), c(50);
  std::vector<ssd::ReadOp> ops = {
      {0, a.data(), a.size() * 4},
      {400, b.data(), b.size() * 4},  // contiguous with the first
      {0, nullptr, 0},                // empty op is legal
      {20000, c.data(), c.size() * 4},
  };
  blob.read_multi(ops);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], data[i]);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_EQ(b[i], data[100 + i]);
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_EQ(c[i], data[5000 + i]);
}

TEST(Storage, ReadMultiAccountsLikeScalarReads) {
  ssd::TempDir dir;
  ssd::Storage scalar_storage(dir.path() / "s", small_pages());
  ssd::Storage multi_storage(dir.path() / "m", small_pages());
  ssd::Blob& scalar_blob =
      scalar_storage.create_blob("a", ssd::IoCategory::kMisc);
  ssd::Blob& multi_blob = multi_storage.create_blob("a", ssd::IoCategory::kMisc);
  std::vector<char> data(64_KiB, 'x');
  scalar_blob.append(data.data(), data.size());
  multi_blob.append(data.data(), data.size());

  const std::vector<std::pair<std::uint64_t, std::size_t>> reads = {
      {100, 5000}, {5100, 2000}, {40000, 123}, {0, 4096}};
  std::vector<char> buf(8_KiB);
  const auto s_io_before = scalar_storage.stats().snapshot();
  const auto m_io_before = multi_storage.stats().snapshot();
  const auto s_dev_before = scalar_storage.device().snapshot();
  const auto m_dev_before = multi_storage.device().snapshot();
  std::vector<ssd::ReadOp> ops;
  for (const auto& [off, len] : reads) {
    scalar_blob.read(off, buf.data(), len);
    ops.push_back({off, buf.data(), len});
  }
  multi_blob.read_multi(ops);
  const auto s_io = scalar_storage.stats().snapshot() - s_io_before;
  const auto m_io = multi_storage.stats().snapshot() - m_io_before;
  EXPECT_EQ(s_io.total_pages_read(), m_io.total_pages_read());
  EXPECT_EQ(scalar_storage.device().modeled_seconds_between(
                s_dev_before, scalar_storage.device().snapshot()),
            multi_storage.device().modeled_seconds_between(
                m_dev_before, multi_storage.device().snapshot()));
}

TEST(Storage, ReadMultiPastEndThrowsBeforeReading) {
  ssd::TempDir dir;
  ssd::Storage storage(dir.path(), small_pages());
  ssd::Blob& blob = storage.create_blob("a", ssd::IoCategory::kMisc);
  std::vector<char> data(100, 'x');
  blob.append(data.data(), data.size());
  char buf[64];
  std::vector<ssd::ReadOp> ops = {{0, buf, 64}, {80, buf, 64}};
  EXPECT_THROW(blob.read_multi(ops), Error);
}

TEST(Storage, ReserveAssignsDisjointRegions) {
  ssd::TempDir dir;
  ssd::Storage storage(dir.path(), small_pages());
  ssd::Blob& blob = storage.create_blob("a", ssd::IoCategory::kMisc);
  const std::uint64_t first = blob.reserve(100);
  const std::uint64_t second = blob.reserve(50);
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(second, 100u);
  EXPECT_EQ(blob.size(), 150u);
  // Reserved regions accept writes and read back intact.
  std::vector<char> payload(50, 'z');
  blob.write(second, payload.data(), payload.size());
  std::vector<char> back(50);
  blob.read(second, back.data(), back.size());
  EXPECT_EQ(back, payload);
}

TEST(AsyncIo, ErrorsSurfaceOnWait) {
  ssd::TempDir dir;
  ssd::Storage storage(dir.path(), small_pages());
  ssd::Blob& blob = storage.create_blob("a", ssd::IoCategory::kMisc);
  char c = 'x';
  blob.append(&c, 1);
  ssd::AsyncIo io(2);
  ssd::IoBatch batch;
  char buf[64];
  batch.add(io.read(&blob, 1000, buf, 64));  // past EOF
  EXPECT_THROW(batch.wait(), Error);
}

TEST(AsyncIo, WaitDrainsEveryOpBeforeThrowing) {
  ssd::TempDir dir;
  ssd::Storage storage(dir.path(), small_pages());
  ssd::Blob& blob = storage.create_blob("a", ssd::IoCategory::kMisc);
  std::vector<char> data(4096, 'y');
  blob.append(data.data(), data.size());
  ssd::AsyncIo io(1);  // one thread => ops complete in submission order
  ssd::IoBatch batch;
  char bad[64];
  std::vector<char> good(data.size(), '\0');
  batch.add(io.read(&blob, 100000, bad, 64));               // fails
  batch.add(io.read(&blob, 0, good.data(), good.size()));   // queued after
  EXPECT_THROW(batch.wait(), Error);
  // wait() joins the ops submitted after the failing one before rethrowing,
  // so their buffers are safe to release as soon as it returns.
  EXPECT_EQ(good, data);
}

TEST(TempDir, CreatesUniqueAndCleansUp) {
  std::filesystem::path p;
  {
    ssd::TempDir a, b;
    p = a.path();
    EXPECT_NE(a.path(), b.path());
    EXPECT_TRUE(std::filesystem::exists(a.path()));
  }
  EXPECT_FALSE(std::filesystem::exists(p));
}

}  // namespace
}  // namespace mlvc
