// io_uring backend unit tests: the capability probe, backend selection and
// transparent fallback, round-trip correctness against the thread-pool
// substrate, SQE coalescing and submit-batch statistics, and concurrent
// batch isolation (each run_batch leases its own ring).
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "ssd/io_backend.hpp"
#include "ssd/storage.hpp"
#include "ssd/uring_io.hpp"
#include "tests/test_util.hpp"

namespace mlvc {
namespace {

TEST(IoBackendKind, ParseAcceptsAliasesAndRejectsJunk) {
  using ssd::IoBackendKind;
  for (const char* s : {"threadpool", "thread-pool", "pool"}) {
    const auto k = ssd::parse_io_backend(s);
    ASSERT_TRUE(k.has_value()) << s;
    EXPECT_EQ(*k, IoBackendKind::kThreadPool) << s;
  }
  for (const char* s : {"uring", "io_uring", "io-uring"}) {
    const auto k = ssd::parse_io_backend(s);
    ASSERT_TRUE(k.has_value()) << s;
    EXPECT_EQ(*k, IoBackendKind::kUring) << s;
  }
  EXPECT_FALSE(ssd::parse_io_backend("").has_value());
  EXPECT_FALSE(ssd::parse_io_backend("aio").has_value());
  EXPECT_EQ(ssd::to_string(IoBackendKind::kThreadPool),
            std::string_view("threadpool"));
  EXPECT_EQ(ssd::to_string(IoBackendKind::kUring), std::string_view("uring"));
}

TEST(UringProbe, IsCachedAndExplainsUnavailability) {
  const auto& a = ssd::UringIo::probe();
  const auto& b = ssd::UringIo::probe();
  EXPECT_EQ(&a, &b);  // one probe per process
  if (!a.available) {
    EXPECT_FALSE(a.reason.empty());
  }
}

TEST(IoBackendSelect, ThreadPoolAlwaysSucceeds) {
  ssd::TempDir dir;
  ssd::Storage storage(dir.path());
  EXPECT_EQ(storage.set_io_backend(ssd::IoBackendKind::kThreadPool),
            ssd::IoBackendKind::kThreadPool);
  EXPECT_EQ(storage.io_backend(), ssd::IoBackendKind::kThreadPool);
  EXPECT_TRUE(storage.io_backend_fallback().empty());
}

TEST(IoBackendSelect, UringRequestFollowsProbe) {
  ScopedEnv strict("MLVC_IO_STRICT", nullptr);
  ssd::TempDir dir;
  ssd::Storage storage(dir.path());
  const auto got = storage.set_io_backend(ssd::IoBackendKind::kUring, 16);
  if (ssd::UringIo::probe().available) {
    EXPECT_EQ(got, ssd::IoBackendKind::kUring);
    EXPECT_EQ(storage.io_backend(), ssd::IoBackendKind::kUring);
    EXPECT_TRUE(storage.io_backend_fallback().empty());
  } else {
    // Transparent fallback: the request lands on the thread pool with the
    // probe's reason recorded, and strict mode turns it into an error.
    EXPECT_EQ(got, ssd::IoBackendKind::kThreadPool);
    EXPECT_EQ(storage.io_backend(), ssd::IoBackendKind::kThreadPool);
    EXPECT_FALSE(storage.io_backend_fallback().empty());
    ScopedEnv env("MLVC_IO_STRICT", "1");
    EXPECT_THROW(storage.set_io_backend(ssd::IoBackendKind::kUring), Error);
  }
}

TEST(IoBackendSelect, EnvOverrideAppliesAtStorageConstruction) {
  {
    ScopedEnv env("MLVC_IO_BACKEND", "threadpool");
    ssd::TempDir dir;
    ssd::Storage storage(dir.path());
    EXPECT_EQ(storage.io_backend(), ssd::IoBackendKind::kThreadPool);
  }
  if (ssd::UringIo::probe().available) {
    ScopedEnv env("MLVC_IO_BACKEND", "uring");
    ScopedEnv strict("MLVC_IO_STRICT", nullptr);
    ssd::TempDir dir;
    ssd::Storage storage(dir.path());
    EXPECT_EQ(storage.io_backend(), ssd::IoBackendKind::kUring);
  }
  {
    ScopedEnv env("MLVC_IO_BACKEND", "bogus");
    ssd::TempDir dir;
    EXPECT_THROW(ssd::Storage storage(dir.path()), InvalidArgument);
  }
}

// ---- uring data-path tests (skip when the kernel refuses io_uring) --------

class UringBackend : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!ssd::UringIo::probe().available) {
      GTEST_SKIP() << "io_uring unavailable: "
                   << ssd::UringIo::probe().reason;
    }
  }
};

std::vector<std::uint32_t> pattern_words(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint32_t> v(n);
  SplitMix64 rng(seed);
  for (auto& w : v) w = static_cast<std::uint32_t>(rng.next());
  return v;
}

TEST_F(UringBackend, RoundTripRecordsBatchStats) {
  ssd::TempDir dir;
  ssd::Storage storage(dir.path());
  ASSERT_EQ(storage.set_io_backend(ssd::IoBackendKind::kUring, 32),
            ssd::IoBackendKind::kUring);
  ssd::Blob& blob = storage.create_blob("t", ssd::IoCategory::kMisc);
  const auto data = pattern_words(32 * 1024, 11);
  blob.append(data.data(), data.size() * 4);
  std::vector<std::uint32_t> back(data.size());
  blob.read(0, back.data(), back.size() * 4);
  EXPECT_EQ(back, data);

  const auto io = storage.stats().snapshot();
  EXPECT_GT(io.submit_batches, 0u);       // both ops went through the ring
  EXPECT_GE(io.max_inflight_depth, 1u);   // and the gauge saw them in flight
  EXPECT_EQ(io.io_giveup_count, 0u);
}

TEST_F(UringBackend, ReadMultiCoalescesAdjacentRuns) {
  // The inflight-depth bound below counts SQEs on ONE ring; a striped store
  // (CI re-runs tier-1 under MLVC_DEVICES=4) spreads the batch over
  // per-device rings and legitimately lowers it. Pin the single-file layout.
  ScopedEnv pin_devices("MLVC_DEVICES", nullptr);
  ScopedEnv pin_unit("MLVC_STRIPE_UNIT", nullptr);
  ssd::TempDir dir;
  ssd::Storage storage(dir.path());
  ASSERT_EQ(storage.set_io_backend(ssd::IoBackendKind::kUring, 32),
            ssd::IoBackendKind::kUring);
  ssd::Blob& blob = storage.create_blob("t", ssd::IoCategory::kMisc);
  const auto data = pattern_words(64 * 1024, 23);  // 256 KiB
  blob.append(data.data(), data.size() * 4);

  // Eight adjacent 4 KiB spans (one contiguous run -> one vectored SQE)
  // plus two scattered spans. 8 ops folded into 1 leaves 7 coalesced.
  constexpr std::size_t kWords = 1024;
  std::vector<std::vector<std::uint32_t>> bufs(10,
                                               std::vector<std::uint32_t>(
                                                   kWords));
  std::vector<ssd::ReadOp> ops;
  std::vector<std::size_t> starts;
  for (std::size_t i = 0; i < 8; ++i) starts.push_back(i * kWords);
  starts.push_back(20 * kWords);
  starts.push_back(40 * kWords);
  for (std::size_t i = 0; i < starts.size(); ++i) {
    ops.push_back({starts[i] * 4, bufs[i].data(), kWords * 4});
  }
  const auto before = storage.stats().snapshot();
  blob.read_multi(ops);
  const auto delta = storage.stats().snapshot() - before;

  for (std::size_t i = 0; i < starts.size(); ++i) {
    ASSERT_TRUE(std::memcmp(bufs[i].data(), data.data() + starts[i],
                            kWords * 4) == 0)
        << "span " << i;
  }
  EXPECT_EQ(delta.sqe_coalesced_ops, 7u);
  EXPECT_GE(delta.max_inflight_depth, 3u);  // 1 vectored + 2 scattered SQEs
}

TEST_F(UringBackend, MatchesThreadPoolOnRandomScatteredReads) {
  const auto data = pattern_words(128 * 1024, 37);  // 512 KiB
  ssd::TempDir dir_tp, dir_ur;
  ssd::Storage tp(dir_tp.path()), ur(dir_ur.path());
  ASSERT_EQ(ur.set_io_backend(ssd::IoBackendKind::kUring, 64),
            ssd::IoBackendKind::kUring);
  ssd::Blob& blob_tp = tp.create_blob("t", ssd::IoCategory::kMisc);
  ssd::Blob& blob_ur = ur.create_blob("t", ssd::IoCategory::kMisc);
  blob_tp.append(data.data(), data.size() * 4);
  blob_ur.append(data.data(), data.size() * 4);

  SplitMix64 rng(91);
  for (int round = 0; round < 4; ++round) {
    std::vector<std::size_t> starts;
    std::vector<std::size_t> lens;
    for (int i = 0; i < 100; ++i) {
      const std::size_t len = 16 + rng.next_below(2048);
      starts.push_back(rng.next_below(data.size() - len));
      lens.push_back(len);
    }
    // read_multi expects offset-sorted ops (loader batches arrive sorted).
    std::vector<std::size_t> order(starts.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                return starts[a] < starts[b];
              });
    std::vector<std::vector<std::uint32_t>> a(starts.size()),
        b(starts.size());
    std::vector<ssd::ReadOp> ops_a, ops_b;
    for (const auto i : order) {
      a[i].resize(lens[i]);
      b[i].resize(lens[i]);
      ops_a.push_back({starts[i] * 4, a[i].data(), lens[i] * 4});
      ops_b.push_back({starts[i] * 4, b[i].data(), lens[i] * 4});
    }
    blob_tp.read_multi(ops_a);
    blob_ur.read_multi(ops_b);
    for (std::size_t i = 0; i < starts.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << "round " << round << " op " << i;
      ASSERT_TRUE(std::memcmp(a[i].data(), data.data() + starts[i],
                              lens[i] * 4) == 0)
          << "round " << round << " op " << i;
    }
  }
}

TEST_F(UringBackend, ConcurrentBatchesLeaseSeparateRings) {
  // Multiple threads drive read_multi through one Storage at once; each
  // run_batch must lease its own ring (shared SQ/CQ indices would corrupt
  // completions). TSan runs this test too (tier-1 + sanitizer-scope label).
  ssd::TempDir dir;
  ssd::Storage storage(dir.path());
  ASSERT_EQ(storage.set_io_backend(ssd::IoBackendKind::kUring, 8),
            ssd::IoBackendKind::kUring);
  ssd::Blob& blob = storage.create_blob("t", ssd::IoCategory::kMisc);
  const auto data = pattern_words(64 * 1024, 53);
  blob.append(data.data(), data.size() * 4);

  constexpr unsigned kThreads = 4;
  constexpr std::size_t kSlice = 64 * 1024 / kThreads;  // words per thread
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::size_t base = t * kSlice;
      constexpr std::size_t kPieces = 4;
      std::vector<std::vector<std::uint32_t>> bufs(
          kPieces, std::vector<std::uint32_t>(kSlice / kPieces));
      for (int round = 0; round < 8; ++round) {
        std::vector<ssd::ReadOp> ops;
        for (std::size_t piece = 0; piece < kPieces; ++piece) {
          const std::size_t start = base + piece * bufs[piece].size();
          ops.push_back({start * 4, bufs[piece].data(),
                         bufs[piece].size() * 4});
        }
        blob.read_multi(ops);
        for (std::size_t piece = 0; piece < kPieces; ++piece) {
          const std::size_t start = base + piece * bufs[piece].size();
          if (std::memcmp(bufs[piece].data(), data.data() + start,
                          bufs[piece].size() * 4) != 0) {
            ++failures[t];
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (unsigned t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace mlvc
