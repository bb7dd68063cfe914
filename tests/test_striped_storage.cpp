// Multi-device striped storage: stripe-mapping algebra, byte-identity of
// striped blobs vs the single-file layout, manifest versioning / v1
// compatibility, per-device ring isolation under concurrent batches (the
// TSan job builds this binary), typed give-up errors naming the failing
// device, the DeviceModel per-device channel fix, and the engine
// equivalence matrix across devices × pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <optional>
#include <random>
#include <string>
#include <thread>

#include "apps/bfs.hpp"
#include "apps/pagerank.hpp"
#include "apps/wcc.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "ssd/fault_injector.hpp"
#include "ssd/storage.hpp"
#include "ssd/uring_io.hpp"
#include "tests/reference.hpp"
#include "tests/test_util.hpp"

namespace mlvc {
namespace {

/// Scrub the stripe env overrides for the test's duration — Storage
/// construction reads MLVC_DEVICES/MLVC_STRIPE_UNIT, and a CI matrix leg
/// exporting them must not change what these tests assert.
class ScopedStripeEnv {
 public:
  ScopedStripeEnv() {
    save("MLVC_DEVICES", devices_);
    save("MLVC_STRIPE_UNIT", unit_);
    ::unsetenv("MLVC_DEVICES");
    ::unsetenv("MLVC_STRIPE_UNIT");
  }
  ~ScopedStripeEnv() {
    restore("MLVC_DEVICES", devices_);
    restore("MLVC_STRIPE_UNIT", unit_);
  }

 private:
  static void save(const char* name, std::optional<std::string>& slot) {
    if (const char* v = std::getenv(name)) slot = v;
  }
  static void restore(const char* name,
                      const std::optional<std::string>& slot) {
    if (slot) {
      ::setenv(name, slot->c_str(), 1);
    } else {
      ::unsetenv(name);
    }
  }
  std::optional<std::string> devices_;
  std::optional<std::string> unit_;
};

ssd::DeviceConfig striped_config(unsigned devices,
                                 std::size_t unit = 16_KiB,
                                 std::size_t page = 4_KiB) {
  ssd::DeviceConfig d;
  d.page_size = page;
  d.num_devices = devices;
  d.stripe_unit_bytes = unit;
  return d;
}

std::vector<char> pattern_bytes(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<char> out(n);
  for (auto& c : out) c = static_cast<char>(rng());
  return out;
}

// ---- stripe mapping algebra ------------------------------------------------

TEST(StripeMapping, SingleDeviceIsIdentity) {
  unsigned calls = 0;
  ssd::for_each_stripe_segment(
      12345, 678, 16_KiB, 1,
      [&](unsigned dev, std::uint64_t dev_off, std::size_t buf_off,
          std::size_t len) {
        ++calls;
        EXPECT_EQ(dev, 0u);
        EXPECT_EQ(dev_off, 12345u);
        EXPECT_EQ(buf_off, 0u);
        EXPECT_EQ(len, 678u);
      });
  EXPECT_EQ(calls, 1u);
}

TEST(StripeMapping, SegmentsTileTheRangeExactlyOnce) {
  const std::size_t unit = 4096;
  for (unsigned ndev : {2u, 3u, 4u, 7u}) {
    for (const auto& [offset, len] :
         {std::pair<std::uint64_t, std::size_t>{0, 10 * unit},
          {unit - 1, 2 * unit},
          {5 * unit + 17, 3 * unit + 100},
          {123, 1}}) {
      std::vector<char> covered(len, 0);
      ssd::for_each_stripe_segment(
          offset, len, unit, ndev,
          [&](unsigned dev, std::uint64_t dev_off, std::size_t buf_off,
              std::size_t seg) {
            ASSERT_LT(dev, ndev);
            // The inverse map must land back on the logical offset.
            const std::uint64_t stripe =
                (dev_off / unit) * ndev + dev;
            EXPECT_EQ(stripe * unit + dev_off % unit, offset + buf_off);
            for (std::size_t k = 0; k < seg; ++k) covered[buf_off + k]++;
          });
      for (std::size_t k = 0; k < len; ++k) {
        ASSERT_EQ(covered[k], 1) << "byte " << k << " covered wrong";
      }
    }
  }
}

// ---- byte identity vs single file ------------------------------------------

TEST(StripedStorage, RoundTripMatchesSingleFile) {
  ScopedStripeEnv env;
  const auto data = pattern_bytes(700 * 1024 + 333, 42);

  ssd::TempDir flat_dir;
  ssd::Storage flat(flat_dir.path(), striped_config(1));
  ssd::Blob& flat_blob = flat.create_blob("b", ssd::IoCategory::kMisc);
  flat_blob.write(0, data.data(), data.size());

  for (unsigned ndev : {2u, 4u}) {
    ssd::TempDir dir;
    ssd::Storage storage(dir.path(), striped_config(ndev));
    ASSERT_EQ(storage.num_devices(), ndev);
    ssd::Blob& blob = storage.create_blob("b", ssd::IoCategory::kMisc);
    blob.write(0, data.data(), data.size());
    EXPECT_EQ(blob.size(), flat_blob.size());

    // Whole-extent read, scattered read_multi, and unaligned slices must
    // all see the exact bytes the single-file layout serves.
    std::vector<char> back(data.size());
    blob.read(0, back.data(), back.size());
    EXPECT_EQ(back, data);

    std::vector<char> s1(40000), s2(1), s3(17000);
    std::vector<ssd::ReadOp> ops = {
        {16_KiB - 7, s1.data(), s1.size()},
        {0, s2.data(), s2.size()},
        {data.size() - s3.size(), s3.data(), s3.size()},
    };
    blob.read_multi(ops);
    EXPECT_TRUE(std::equal(s1.begin(), s1.end(), data.begin() + 16_KiB - 7));
    EXPECT_EQ(s2[0], data[0]);
    EXPECT_TRUE(std::equal(s3.begin(), s3.end(),
                           data.end() - static_cast<long>(s3.size())));
  }
}

TEST(StripedStorage, AppendTruncateMatchReferenceBuffer) {
  ScopedStripeEnv env;
  ssd::TempDir dir;
  ssd::Storage storage(dir.path(), striped_config(3, 8_KiB));
  ssd::Blob& blob = storage.create_blob("log", ssd::IoCategory::kMessageLog);

  std::vector<char> reference;
  std::mt19937 rng(7);
  for (int round = 0; round < 40; ++round) {
    const std::size_t n = 1 + rng() % (20 * 1024);
    const auto chunk = pattern_bytes(n, rng());
    const std::uint64_t at = blob.append(chunk.data(), chunk.size());
    EXPECT_EQ(at, reference.size());
    reference.insert(reference.end(), chunk.begin(), chunk.end());
    if (round % 11 == 10) {
      const std::uint64_t cut = reference.size() * 2 / 3;
      blob.truncate(cut);
      reference.resize(cut);
    }
  }
  std::vector<char> back(reference.size());
  blob.read(0, back.data(), back.size());
  EXPECT_EQ(back, reference);
}

TEST(StripedStorage, ReopenReconstructsSizeAndBytes) {
  ScopedStripeEnv env;
  ssd::TempDir dir;
  const auto data = pattern_bytes(200 * 1024 + 11, 9);
  {
    ssd::Storage storage(dir.path(), striped_config(4));
    ssd::Blob& blob = storage.create_blob("ckpt", ssd::IoCategory::kMisc);
    blob.write(0, data.data(), data.size());
    blob.sync();
  }
  // Fresh Storage, default config: the manifest restores the 4-device
  // layout and the inverse stripe map restores the logical size.
  ssd::Storage reopened(dir.path());
  EXPECT_EQ(reopened.num_devices(), 4u);
  ssd::Blob& blob = reopened.open_blob("ckpt");
  ASSERT_EQ(blob.size(), data.size());
  std::vector<char> back(data.size());
  blob.read(0, back.data(), back.size());
  EXPECT_EQ(back, data);
}

// ---- manifest versioning & v1 compatibility --------------------------------

TEST(StripeManifest, V1StoreWithoutManifestOpensSingleDevice) {
  ScopedStripeEnv env;
  ssd::TempDir dir;
  const auto data = pattern_bytes(50 * 1024, 3);
  {
    ssd::Storage v1(dir.path(), striped_config(1));
    v1.create_blob("g", ssd::IoCategory::kMisc).write(0, data.data(),
                                                      data.size());
  }
  // Even under MLVC_DEVICES=4 a manifest-less, non-empty directory must
  // keep its single-file layout — restriping in place would scramble it.
  ::setenv("MLVC_DEVICES", "4", 1);
  ssd::Storage reopened(dir.path());
  EXPECT_EQ(reopened.num_devices(), 1u);
  std::vector<char> back(data.size());
  reopened.open_blob("g").read(0, back.data(), back.size());
  EXPECT_EQ(back, data);
}

TEST(StripeManifest, EnvCreatesStripedStoreOnFreshDir) {
  ScopedStripeEnv env;
  ::setenv("MLVC_DEVICES", "2", 1);
  ::setenv("MLVC_STRIPE_UNIT", "32768", 1);
  ssd::TempDir dir;
  ssd::Storage storage(dir.path());
  EXPECT_EQ(storage.num_devices(), 2u);
  EXPECT_EQ(storage.stripe_unit(), 32768u);
  ssd::StripeManifest m;
  ASSERT_TRUE(ssd::read_stripe_manifest(dir.path(), &m));
  EXPECT_EQ(m.num_devices, 2u);
  EXPECT_EQ(m.stripe_unit_bytes, 32768u);
}

TEST(StripeManifest, UnknownVersionIsATypedError) {
  ScopedStripeEnv env;
  ssd::TempDir dir;
  ssd::StripeManifest m;
  m.version = 99;
  m.num_devices = 2;
  m.stripe_unit_bytes = 128_KiB;
  ssd::write_stripe_manifest(dir.path(), m);
  EXPECT_THROW(ssd::Storage(dir.path()), Error);
}

// ---- per-device rings under concurrency (TSan scope) -----------------------

TEST(StripedStorage, ConcurrentReadBatchesAreIsolatedPerDevice) {
  ScopedStripeEnv env;
  ssd::TempDir dir;
  ssd::Storage storage(dir.path(), striped_config(4));
  // uring if the kernel allows, else the threadpool path — the isolation
  // property (no shared mutable state between device submissions) must
  // hold under whichever backend is active.
  if (ssd::UringIo::probe().available) {
    storage.set_io_backend(ssd::IoBackendKind::kUring, 16);
  }
  const auto data = pattern_bytes(2 * 1024 * 1024, 21);
  ssd::Blob& blob = storage.create_blob("hot", ssd::IoCategory::kCsrColIdx);
  blob.write(0, data.data(), data.size());

  constexpr unsigned kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<unsigned> mismatches{0};
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(100 + t);
      std::vector<char> buf;
      for (int round = 0; round < 25; ++round) {
        std::vector<ssd::ReadOp> ops;
        std::size_t total = 0;
        std::vector<std::pair<std::size_t, std::size_t>> slices;
        for (int k = 0; k < 12; ++k) {
          const std::size_t len = 1 + rng() % 60000;
          const std::size_t off = rng() % (data.size() - len);
          slices.emplace_back(off, len);
          total += len;
        }
        buf.assign(total, 0);
        std::size_t cursor = 0;
        for (const auto& [off, len] : slices) {
          ops.push_back({off, buf.data() + cursor, len});
          cursor += len;
        }
        blob.read_multi(ops);
        cursor = 0;
        for (const auto& [off, len] : slices) {
          if (!std::equal(buf.begin() + cursor, buf.begin() + cursor + len,
                          data.begin() + off)) {
            mismatches.fetch_add(1);
          }
          cursor += len;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

// ---- faults on striped stores ----------------------------------------------

TEST(StripedStorage, GiveUpRaisesTypedIoErrorNamingADeviceFile) {
  ScopedStripeEnv env;
  ssd::TempDir dir;
  ssd::Storage storage(dir.path(), striped_config(4));
  ssd::RetryPolicy fast;
  fast.max_attempts = 2;
  fast.base_delay_us = 0;
  storage.set_retry_policy(fast);
  ssd::Blob& blob = storage.create_blob("t", ssd::IoCategory::kMisc);
  const auto data = pattern_bytes(64 * 1024, 5);
  blob.write(0, data.data(), data.size());

  storage.set_fault_injector(std::make_shared<ssd::FaultInjector>(
      ssd::FaultInjector::named_profile("giveup", 1.0), 17));
  std::vector<char> out(data.size());
  try {
    blob.read(0, out.data(), out.size());
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    // The error must name the backing file of the device that failed.
    EXPECT_NE(std::string(e.what()).find("dev"), std::string::npos)
        << e.what();
  }
  EXPECT_GT(storage.stats().snapshot().io_giveup_count, 0u);
}

// ---- DeviceModel: per-device channel groups --------------------------------

TEST(DeviceModelStriped, ChannelGroupsComeFromTheDeviceId) {
  ssd::DeviceConfig cfg;
  cfg.num_channels = 4;
  cfg.num_devices = 4;
  cfg.sequential_factor = 1.0;
  ssd::DeviceModel dev(cfg);
  // Same (blob, page) hash on different devices must land in different
  // channel groups — this is exactly the double-counting fix: parallelism
  // comes from the stripe layout, not from the offset hash.
  for (unsigned d = 0; d < 4; ++d) {
    for (std::uint64_t p = 0; p < 8; ++p) {
      dev.record(1, p, d, /*is_write=*/false, 1.0);
    }
  }
  // 32 pages over 4 devices × 4 channels = 2 pages per channel.
  EXPECT_DOUBLE_EQ(dev.modeled_seconds(), 2 * cfg.page_read_us * 1e-6);
}

TEST(DeviceModelStriped, StripedReadsModelFasterThanSingleDevice) {
  ScopedStripeEnv env;
  const auto data = pattern_bytes(4 * 1024 * 1024, 77);
  const auto modeled = [&](unsigned ndev) {
    ssd::TempDir dir;
    auto cfg = striped_config(ndev, 128_KiB, 16_KiB);
    cfg.sequential_factor = 1.0;  // isolate channel parallelism
    ssd::Storage storage(dir.path(), cfg);
    ssd::Blob& blob = storage.create_blob("log", ssd::IoCategory::kMessageLog);
    blob.write(0, data.data(), data.size());
    const auto before = storage.device().snapshot();
    std::vector<char> buf(data.size());
    blob.read(0, buf.data(), buf.size());
    return storage.device().modeled_seconds_between(before,
                                                    storage.device().snapshot());
  };
  const double t1 = modeled(1);
  const double t4 = modeled(4);
  // 4 devices contribute 4× the channels; the same page traffic must model
  // meaningfully faster (allow slack for hash imbalance across channels).
  EXPECT_LT(t4, t1 / 2.0);
}

// ---- engine equivalence matrix ---------------------------------------------

graph::CsrGraph stripe_graph() {
  graph::RmatParams p;
  p.scale = 9;
  p.edge_factor = 6;
  p.seed = 23;
  return graph::CsrGraph::from_edge_list(graph::generate_rmat(p));
}

template <core::VertexApp App>
std::vector<typename App::Value> run_striped(const graph::CsrGraph& csr,
                                             App app, unsigned devices,
                                             bool pipeline) {
  ssd::TempDir dir;
  ssd::Storage storage(dir.path(), striped_config(devices, 16_KiB));
  auto opts = testing_options();
  opts.max_supersteps = 60;
  opts.enable_pipeline = pipeline;
  auto intervals = core::partition_for_app<App>(csr, opts);
  graph::StoredCsrGraph stored(storage, "g", csr, intervals);
  core::MultiLogVCEngine<App> engine(stored, app, opts);
  engine.run();
  return engine.values();
}

TEST(StripedEngineMatrix, BfsAndWccAreExactAcrossTheMatrix) {
  ScopedStripeEnv env;
  const auto csr = stripe_graph();
  const auto bfs_ref =
      run_striped(csr, apps::Bfs{.source = 3}, 1, /*pipeline=*/true);
  const auto wcc_ref = run_striped(csr, apps::Wcc{}, 1, /*pipeline=*/true);
  for (unsigned devices : {2u, 4u}) {
    for (const bool pipeline : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "devices=" << devices << " pipeline=" << pipeline);
      // min-combines are idempotent: fold order cannot change the result,
      // so the matrix must be byte-exact.
      EXPECT_EQ(
          run_striped(csr, apps::Bfs{.source = 3}, devices, pipeline),
          bfs_ref);
      EXPECT_EQ(run_striped(csr, apps::Wcc{}, devices, pipeline), wcc_ref);
    }
  }
}

TEST(StripedEngineMatrix, PageRankMatchesWithinFloatTolerance) {
  ScopedStripeEnv env;
  const auto csr = stripe_graph();
  const auto ref = run_striped(csr, apps::PageRank{}, 1, /*pipeline=*/true);
  for (unsigned devices : {2u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "devices=" << devices);
    const auto got =
        run_striped(csr, apps::PageRank{}, devices, /*pipeline=*/true);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t v = 0; v < ref.size(); ++v) {
      // Float sums: compared within rounding, not bit-for-bit.
      EXPECT_NEAR(got[v], ref[v], 1e-4) << "vertex " << v;
    }
  }
}

}  // namespace
}  // namespace mlvc
