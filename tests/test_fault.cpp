// Fault-injection substrate tests: seeded injector determinism, the storage
// retry/giveup policy, torn-page truncate-and-continue, atomic CRC-checked
// checkpoints, the crash failpoint, and a mid-wave giveup unwinding the
// pipelined engine.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "apps/bfs.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/engine.hpp"
#include "core/options.hpp"
#include "graph/generators.hpp"
#include "multilog/record.hpp"
#include "multilog/sort_group.hpp"
#include "ssd/fault_injector.hpp"
#include "ssd/io_backend.hpp"
#include "ssd/storage.hpp"
#include "ssd/uring_io.hpp"
#include "tests/test_util.hpp"

#if defined(__SANITIZE_THREAD__)
#define MLVC_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MLVC_TSAN 1
#endif
#endif

namespace mlvc {
namespace {

using ssd::FaultDecision;
using ssd::FaultInjector;
using ssd::FaultProfile;
using ssd::FaultSite;

/// The MLVC_FAULT_* rows a test clears (ScopedEnv restores them on exit):
/// the suite itself may be running under a CI fault-matrix schedule.
const std::vector<const char*> kFaultVars = {
    "MLVC_FAULT_PROFILE",       "MLVC_FAULT_RATE",
    "MLVC_FAULT_SEED",          "MLVC_FAULT_CRASH_AFTER",
    "MLVC_FAULT_RETRIES",       "MLVC_FAULT_RETRY_BASE_US",
    "MLVC_FAULT_TORN_RECOVERY"};

ssd::RetryPolicy fast_retries() {
  ssd::RetryPolicy p;
  p.max_attempts = 4;
  p.base_delay_us = 0;
  p.max_delay_us = 0;
  return p;
}

TEST(FaultInjector, SeededDecisionStreamIsDeterministic) {
  FaultProfile profile = FaultInjector::named_profile("mixed", 0.3);
  FaultInjector a(profile, 42);
  FaultInjector b(profile, 42);
  FaultInjector c(profile, 43);
  bool any_fault = false;
  bool differs = false;
  for (int i = 0; i < 2000; ++i) {
    const auto site = (i % 2 == 0) ? FaultSite::kRead : FaultSite::kWrite;
    const auto da = a.decide(site, 4096);
    const auto db = b.decide(site, 4096);
    const auto dc = c.decide(site, 4096);
    ASSERT_EQ(da.kind, db.kind);
    ASSERT_EQ(da.err, db.err);
    ASSERT_EQ(da.max_len, db.max_len);
    any_fault |= da.kind != FaultDecision::Kind::kNone;
    differs |= da.kind != dc.kind || da.max_len != dc.max_len;
  }
  EXPECT_TRUE(any_fault);   // the profile actually fires at this rate
  EXPECT_TRUE(differs);     // and the seed matters
  EXPECT_EQ(a.injected_transient(), b.injected_transient());
  EXPECT_EQ(a.injected_short(), b.injected_short());
}

TEST(FaultInjector, ConsecutiveTransientRunsAreCapped) {
  FaultProfile profile;
  profile.transient_read_rate = 1.0;
  profile.max_consecutive_transient = 2;
  FaultInjector inj(profile, 7);
  unsigned consecutive = 0;
  unsigned max_run = 0;
  for (int i = 0; i < 500; ++i) {
    const auto d = inj.decide(FaultSite::kRead, 64);
    if (d.kind == FaultDecision::Kind::kTransient) {
      max_run = std::max(max_run, ++consecutive);
    } else {
      consecutive = 0;
    }
  }
  EXPECT_EQ(max_run, 2u);  // every injected streak fits a retry budget of 4
}

TEST(FaultInjector, NamedProfilesAndEnvParsing) {
  ScopedEnv env_guard(kFaultVars);
  EXPECT_GT(FaultInjector::named_profile("transient", 0.1).transient_read_rate,
            0.0);
  EXPECT_GT(FaultInjector::named_profile("short-io", 0.1).short_write_rate,
            0.0);
  EXPECT_TRUE(FaultInjector::named_profile("torn-page", 0.1).tear_on_crash);
  EXPECT_EQ(FaultInjector::named_profile("torn-page", 0.1).transient_read_rate,
            0.0);  // inert in steady state
  EXPECT_EQ(FaultInjector::named_profile("giveup", 0.1)
                .max_consecutive_transient,
            0u);
  EXPECT_THROW(FaultInjector::named_profile("bogus", 0.1), InvalidArgument);

  EXPECT_EQ(FaultInjector::from_env(), nullptr);
  ::setenv("MLVC_FAULT_PROFILE", "off", 1);
  EXPECT_EQ(FaultInjector::from_env(), nullptr);
  ::setenv("MLVC_FAULT_PROFILE", "mixed", 1);
  ::setenv("MLVC_FAULT_SEED", "99", 1);
  ::setenv("MLVC_FAULT_RATE", "0.25", 1);
  ::setenv("MLVC_FAULT_CRASH_AFTER", "123", 1);
  const auto inj = FaultInjector::from_env();
  ASSERT_NE(inj, nullptr);
  EXPECT_EQ(inj->seed(), 99u);
  EXPECT_DOUBLE_EQ(inj->profile().transient_read_rate, 0.25);
  EXPECT_EQ(inj->profile().crash_after_writes, 123u);
}

TEST(FaultOptions, EngineEnvOverridesParsed) {
  ScopedEnv env_guard(kFaultVars);
  ::setenv("MLVC_FAULT_RETRIES", "7", 1);
  ::setenv("MLVC_FAULT_RETRY_BASE_US", "5", 1);
  ::setenv("MLVC_FAULT_TORN_RECOVERY", "0", 1);
  const auto opts = core::apply_env_overrides(core::EngineOptions{});
  EXPECT_EQ(opts.io_retry_attempts, 7u);
  EXPECT_EQ(opts.io_retry_base_delay_us, 5u);
  EXPECT_FALSE(opts.torn_page_recovery);
}

TEST(FaultRetry, TransientFaultsAreRetriedThenSucceed) {
  ScopedEnv env_guard(kFaultVars);
  ssd::TempDir dir;
  ssd::Storage storage(dir.path());
  storage.set_retry_policy(fast_retries());
  FaultProfile profile;
  profile.transient_read_rate = 0.5;
  profile.transient_write_rate = 0.5;
  profile.max_consecutive_transient = 2;
  storage.set_fault_injector(std::make_shared<FaultInjector>(profile, 5));

  ssd::Blob& blob = storage.create_blob("t", ssd::IoCategory::kMisc);
  std::vector<char> data(64 * 1024);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>(i * 31 + 7);
  }
  blob.write(0, data.data(), data.size());
  std::vector<char> back(data.size());
  blob.read(0, back.data(), back.size());
  EXPECT_EQ(back, data);

  const auto io = storage.stats().snapshot();
  EXPECT_GT(io.io_retry_count, 0u);   // faults actually fired
  EXPECT_EQ(io.io_giveup_count, 0u);  // and every one was absorbed
}

TEST(FaultRetry, ExhaustedBudgetEscalatesAsTypedIoError) {
  ScopedEnv env_guard(kFaultVars);
  ssd::TempDir dir;
  ssd::Storage storage(dir.path());
  storage.set_retry_policy(fast_retries());
  ssd::Blob& blob = storage.create_blob("t", ssd::IoCategory::kMisc);
  const char byte = 'x';
  blob.write(0, &byte, 1);

  // Unbounded consecutive transients ("giveup" preset at rate 1) must blow
  // through any finite retry budget.
  storage.set_fault_injector(std::make_shared<FaultInjector>(
      FaultInjector::named_profile("giveup", 1.0), 3));
  char out = 0;
  EXPECT_THROW(blob.read(0, &out, 1), IoError);
  const auto io = storage.stats().snapshot();
  EXPECT_GT(io.io_giveup_count, 0u);
  EXPECT_GT(io.io_retry_count, 0u);
}

TEST(FaultRetry, ShortIoIsAbsorbedByPartialProgressLoops) {
  ScopedEnv env_guard(kFaultVars);
  ssd::TempDir dir;
  ssd::Storage storage(dir.path());
  storage.set_retry_policy(fast_retries());
  FaultProfile profile;
  profile.short_read_rate = 1.0;  // every read attempt is clipped
  profile.short_write_rate = 1.0;
  storage.set_fault_injector(std::make_shared<FaultInjector>(profile, 9));

  ssd::Blob& blob = storage.create_blob("t", ssd::IoCategory::kMisc);
  std::vector<std::uint32_t> data(20000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint32_t>(i * 2654435761u);
  }
  blob.append(data.data(), data.size() * 4);
  std::vector<std::uint32_t> back(data.size());
  blob.read(0, back.data(), back.size() * 4);
  EXPECT_EQ(back, data);

  // read_multi under the same clipping: contiguous ops (coalesced into one
  // preadv) and a scattered op both round-trip.
  std::vector<std::uint32_t> a(1000), b(1000), c(1000);
  const std::vector<ssd::ReadOp> ops = {
      {0, a.data(), a.size() * 4},
      {a.size() * 4, b.data(), b.size() * 4},
      {10000 * 4, c.data(), c.size() * 4},
  };
  blob.read_multi(ops);
  EXPECT_TRUE(std::memcmp(a.data(), data.data(), a.size() * 4) == 0);
  EXPECT_TRUE(std::memcmp(b.data(), data.data() + 1000, b.size() * 4) == 0);
  EXPECT_TRUE(std::memcmp(c.data(), data.data() + 10000, c.size() * 4) == 0);
  EXPECT_EQ(storage.stats().snapshot().io_giveup_count, 0u);
}

TEST(FaultRetry, SyncFailureEscalatesImmediately) {
  ScopedEnv env_guard(kFaultVars);
  ssd::TempDir dir;
  ssd::Storage storage(dir.path());
  ssd::Blob& blob = storage.create_blob("t", ssd::IoCategory::kMisc);
  const char byte = 'x';
  blob.write(0, &byte, 1);
  blob.sync();  // no injector: must pass

  FaultProfile profile;
  profile.sync_fail_rate = 1.0;
  storage.set_fault_injector(std::make_shared<FaultInjector>(profile, 2));
  EXPECT_THROW(blob.sync(), IoError);
  EXPECT_GT(storage.stats().snapshot().io_giveup_count, 0u);
}

TEST(FaultStorage, PublishBlobAtomicallyRenames) {
  ScopedEnv env_guard(kFaultVars);
  ssd::TempDir dir;
  ssd::Storage storage(dir.path());
  ssd::Blob& tmp = storage.create_blob("ckpt.tmp", ssd::IoCategory::kMisc);
  const std::uint64_t payload = 0xDEADBEEFCAFEF00Dull;
  tmp.append(&payload, 8);
  // Publishing replaces an existing blob under the final name.
  ssd::Blob& stale = storage.create_blob("ckpt", ssd::IoCategory::kMisc);
  const std::uint32_t junk = 1;
  stale.append(&junk, 4);
  storage.publish_blob("ckpt.tmp", "ckpt");

  EXPECT_FALSE(storage.has_blob("ckpt.tmp"));
  ssd::Blob& final_blob = storage.open_blob("ckpt");
  EXPECT_EQ(final_blob.size(), 8u);
  std::uint64_t back = 0;
  final_blob.read(0, &back, 8);
  EXPECT_EQ(back, payload);
  EXPECT_THROW(storage.publish_blob("missing", "x"), InvalidArgument);
}

TEST(FaultStorage, OpenBlobFallsBackToOnDiskFile) {
  ScopedEnv env_guard(kFaultVars);
  ssd::TempDir dir;
  const std::uint32_t payload = 77;
  {
    ssd::Storage storage(dir.path());
    storage.create_blob("left/behind", ssd::IoCategory::kMisc)
        .append(&payload, 4);
  }
  // A fresh Storage (fresh process, conceptually) sees the file — both
  // through the presence probe and through open_blob's fallback.
  ssd::Storage reopened(dir.path());
  EXPECT_TRUE(reopened.has_blob("left/behind"));
  EXPECT_FALSE(reopened.has_blob("never/existed"));
  ssd::Blob& blob = reopened.open_blob("left/behind");
  std::uint32_t back = 0;
  blob.read(0, &back, 4);
  EXPECT_EQ(back, payload);
  EXPECT_THROW(reopened.open_blob("never/existed"), InvalidArgument);
}

// ---- torn-page truncate-and-continue --------------------------------------

TEST(TornPage, CheckedRecordCountPolicies) {
  using Rec = multilog::Record<std::uint64_t>;
  std::vector<std::byte> buf(5 * sizeof(Rec) + 3);  // 5 records + torn tail
  const std::span<const std::byte> torn(buf.data(), buf.size());
  const std::span<const std::byte> whole(buf.data(), 5 * sizeof(Rec));

  EXPECT_EQ(multilog::checked_record_count<std::uint64_t>(whole), 5u);
  EXPECT_THROW(multilog::checked_record_count<std::uint64_t>(torn), Error);
  EXPECT_EQ(multilog::checked_record_count<std::uint64_t>(
                torn, multilog::TornPagePolicy::kTruncate),
            5u);
  EXPECT_EQ(multilog::truncate_torn_tail(buf.size(), sizeof(Rec)),
            5 * sizeof(Rec));
  EXPECT_EQ(multilog::truncate_torn_tail(5 * sizeof(Rec), sizeof(Rec)),
            5 * sizeof(Rec));
}

TEST(TornPage, SortGroupOnTruncatedBufferMatchesCleanRecords) {
  using Msg = std::uint32_t;
  using Rec = multilog::Record<Msg>;
  std::vector<Rec> recs;
  SplitMix64 rng(17);
  for (int i = 0; i < 1000; ++i) {
    recs.push_back(Rec{static_cast<VertexId>(rng.next_below(64)),
                       static_cast<Msg>(rng.next_below(1u << 30))});
  }
  std::vector<std::byte> bytes(recs.size() * sizeof(Rec) + 5);  // torn tail
  std::memcpy(bytes.data(), recs.data(), recs.size() * sizeof(Rec));

  const std::size_t keep =
      multilog::truncate_torn_tail(bytes.size(), sizeof(Rec));
  ASSERT_EQ(keep, recs.size() * sizeof(Rec));
  const std::span<const std::byte> healthy(bytes.data(), keep);
  for (const auto path :
       {SortGroupPath::kCountingScatter, SortGroupPath::kComparisonSort}) {
    const auto grouped = multilog::sort_and_group<Msg>(
        healthy, OnDiskFormat::kV1, 0, 64, path);
    EXPECT_EQ(grouped.decoded, recs.size());
  }
}

// ---- engine-level robustness ----------------------------------------------

graph::CsrGraph fault_graph() {
  graph::RmatParams p;
  p.scale = 8;
  p.edge_factor = 4;
  p.seed = 21;
  return graph::CsrGraph::from_edge_list(graph::generate_rmat(p));
}

template <core::VertexApp App>
struct Rig {
  ssd::TempDir dir;
  ssd::Storage storage;
  core::EngineOptions opts;
  graph::StoredCsrGraph stored;
  core::MultiLogVCEngine<App> engine;

  explicit Rig(const graph::CsrGraph& csr, App app = App{},
               std::shared_ptr<FaultInjector> injector = nullptr)
      : storage(dir.path(),
                [] {
                  ssd::DeviceConfig d;
                  d.page_size = 4_KiB;
                  return d;
                }()),
        opts([] {
          auto o = testing_options();
          o.io_retry_base_delay_us = 0;  // keep faulted runs fast
          return o;
        }()),
        stored((storage.set_fault_injector(std::move(injector)), storage),
               "g", csr, core::partition_for_app<App>(csr, opts)),
        engine(stored, app, opts) {}
};

/// Where a seeded fault schedule fires depends on how many I/O calls a run
/// makes, so a fixed seed can go quiet when the engine issues fewer. Run
/// `faulted_run(seed)` from `first_seed` on until one run's schedule fires;
/// faulted_run checks each run's results and returns its io_retries().
template <typename RunFn>
std::uint64_t retries_of_first_firing_seed(std::uint64_t first_seed,
                                           RunFn&& faulted_run) {
  for (std::uint64_t seed = first_seed; seed < first_seed + 16; ++seed) {
    SCOPED_TRACE(::testing::Message() << "fault seed " << seed);
    const std::uint64_t retries = faulted_run(seed);
    if (retries > 0) return retries;
  }
  return 0;
}

TEST(FaultEngine, RunUnderTransientFaultsMatchesCleanRun) {
  ScopedEnv env_guard(kFaultVars);
  const auto csr = fault_graph();
  Rig<apps::Bfs> clean(csr, apps::Bfs{.source = 0});
  const auto expected = clean.engine.run();
  const auto clean_values = clean.engine.values();

  // Install the injector only after store/engine construction: the test
  // targets the run phase, and keeping construction I/O (including the
  // stored transpose build) out of the seeded fault schedule keeps the
  // fault positions stable across store-format changes.
  const std::uint64_t retries =
      retries_of_first_firing_seed(31, [&](std::uint64_t seed) {
        Rig<apps::Bfs> faulted(csr, apps::Bfs{.source = 0});
        faulted.storage.set_fault_injector(std::make_shared<FaultInjector>(
            FaultInjector::named_profile("mixed", 0.05), seed));
        const auto stats = faulted.engine.run();
        EXPECT_EQ(faulted.engine.values(), clean_values);
        EXPECT_EQ(stats.supersteps.size(), expected.supersteps.size());
        EXPECT_EQ(stats.io_giveups(), 0u);
        EXPECT_EQ(stats.torn_bytes_dropped(), 0u);
        return stats.io_retries();
      });
  // Retries happened and are visible in the per-superstep IO snapshots.
  EXPECT_GT(retries, 0u);
}

TEST(FaultEngine, GiveupMidWaveUnwindsThePipeline) {
  // A storage giveup in the middle of a pipelined wave must unwind through
  // the prefetch helper: in-flight chain and batch stages are drained,
  // run() rethrows the typed IoError, and the engine then destructs without
  // hanging (ctest's TIMEOUT turns a hang into a failure). The pull run
  // faults while pull chains are prepared on I/O threads.
  ScopedEnv env_guard(kFaultVars);
  graph::RmatParams p;
  p.scale = 11;
  p.edge_factor = 8;
  p.seed = 98;
  const auto csr = graph::CsrGraph::from_edge_list(graph::generate_rmat(p));
  for (const DirectionMode direction :
       {DirectionMode::kPush, DirectionMode::kPull}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(::testing::Message()
                   << to_string(direction) << ", fault seed " << seed);
      ScopedEnv pin("MLVC_DIRECTION", to_string(direction));
      ssd::TempDir dir;
      ssd::DeviceConfig device;
      device.page_size = 4_KiB;
      ssd::Storage storage(dir.path(), device);
      auto opts = testing_options();
      opts.memory_budget_bytes = 256_KiB;  // several chains per wave
      opts.io_threads = 4;  // pipelined
      opts.io_retry_attempts = 1;  // the first injected fault gives up
      opts.direction = direction;
      graph::StoredCsrGraph stored(
          storage, "g", csr, core::partition_for_app<apps::Bfs>(csr, opts),
          {.with_transpose = true});
      ASSERT_GE(stored.intervals().count(), 2u);
      {
        core::MultiLogVCEngine<apps::Bfs> engine(stored,
                                                 apps::Bfs{.source = 0}, opts);
        ASSERT_EQ(engine.stats().direction, to_string(direction));
        // One clean superstep first, so the pull run's next wave pulls.
        engine.run_with_callback([](const core::SuperstepStats&) {
          return false;
        });
        storage.set_fault_injector(std::make_shared<FaultInjector>(
            FaultInjector::named_profile("giveup", 0.3), seed));
        EXPECT_THROW(engine.run(), IoError);
      }
      storage.set_fault_injector(nullptr);
    }
  }
}

TEST(FaultEngine, CheckpointPublishIsAtomicAndReloadable) {
  ScopedEnv env_guard(kFaultVars);
  const auto csr = fault_graph();
  Rig<apps::Bfs> rig(csr, apps::Bfs{.source = 0});
  int steps = 0;
  rig.engine.run_with_callback(
      [&](const core::SuperstepStats&) { return ++steps < 2; });
  rig.engine.save_checkpoint("atomic");
  // No temp blob survives a successful save; the final name does, on disk.
  EXPECT_FALSE(rig.storage.has_blob("mlvc/ckpt_atomic.tmp"));
  EXPECT_TRUE(rig.storage.has_blob("mlvc/ckpt_atomic"));
  const auto at_ckpt = rig.engine.values();

  // Saving again under the same name atomically replaces the old image.
  rig.engine.run();
  const auto finished = rig.engine.values();
  rig.engine.save_checkpoint("atomic");
  rig.engine.load_checkpoint("atomic");
  EXPECT_EQ(rig.engine.values(), finished);
  EXPECT_NE(finished, at_ckpt);
}

TEST(FaultEngine, CorruptCheckpointIsRejectedWithoutPartialRestore) {
  ScopedEnv env_guard(kFaultVars);
  const auto csr = fault_graph();
  Rig<apps::Bfs> rig(csr, apps::Bfs{.source = 0});
  rig.engine.run();
  const auto finished = rig.engine.values();
  rig.engine.save_checkpoint("crc");

  // Flip one payload byte: load must fail on the CRC pass and leave the
  // engine exactly as it was.
  ssd::Blob& blob = rig.storage.open_blob("mlvc/ckpt_crc");
  std::uint8_t byte = 0;
  blob.read(40, &byte, 1);
  byte ^= 0xFF;
  blob.write(40, &byte, 1);
  EXPECT_THROW(rig.engine.load_checkpoint("crc"), Error);
  EXPECT_EQ(rig.engine.values(), finished);

  // A truncated header is rejected too (not silently mis-parsed).
  ssd::Blob& stub = rig.storage.create_blob("mlvc/ckpt_stub",
                                            ssd::IoCategory::kMisc);
  const std::uint32_t magic = 0x4B435643u;
  stub.append(&magic, 4);
  EXPECT_THROW(rig.engine.load_checkpoint("stub"), Error);
}

TEST(FaultEngine, CheckpointSurvivesStorageReopen) {
  // Cross-"process" recovery: a second Storage over the same directory must
  // find the checkpoint through the on-disk fallback and restore it.
  ScopedEnv env_guard(kFaultVars);
  const auto csr = fault_graph();
  Rig<apps::Bfs> rig(csr, apps::Bfs{.source = 0});
  rig.engine.run();
  rig.engine.save_checkpoint("xfer");
  const auto expected = rig.engine.values();

  ssd::DeviceConfig d;
  d.page_size = 4_KiB;
  ssd::Storage reopened(rig.dir.path(), d);
  auto opts = testing_options();
  graph::StoredCsrGraph stored(reopened, "g", csr,
                               core::partition_for_app<apps::Bfs>(csr, opts));
  core::MultiLogVCEngine<apps::Bfs> engine(stored, apps::Bfs{.source = 0},
                                           opts);
  engine.load_checkpoint("xfer");
  EXPECT_EQ(engine.values(), expected);
}

// ---- fault profiles × I/O backend -----------------------------------------
//
// Every fault profile must behave identically whichever I/O substrate carries
// the bytes: the thread-pool path injects at syscall time, the io_uring path
// at completion-reap time, and both must absorb / escalate / tear the same
// way. Uring arms skip cleanly when the kernel or sandbox refuses io_uring.

class FaultBackend : public ::testing::TestWithParam<ssd::IoBackendKind> {
 protected:
  void SetUp() override {
    if (GetParam() == ssd::IoBackendKind::kUring &&
        !ssd::UringIo::probe().available) {
      GTEST_SKIP() << "io_uring unavailable: "
                   << ssd::UringIo::probe().reason;
    }
  }
  /// Route `storage` through the selected backend. SetUp skipped already
  /// when the probe says a uring request would fall back, so any fallback
  /// here is a real bug.
  void select_backend(ssd::Storage& storage) {
    ASSERT_EQ(storage.set_io_backend(GetParam(), 16), GetParam());
  }
};

std::string backend_name(
    const ::testing::TestParamInfo<ssd::IoBackendKind>& info) {
  return info.param == ssd::IoBackendKind::kUring ? "Uring" : "ThreadPool";
}

TEST_P(FaultBackend, TransientProfileIsAbsorbed) {
  ScopedEnv env_guard(kFaultVars);
  ssd::TempDir dir;
  ssd::Storage storage(dir.path());
  select_backend(storage);
  storage.set_retry_policy(fast_retries());
  storage.set_fault_injector(std::make_shared<FaultInjector>(
      FaultInjector::named_profile("transient", 0.5), 5));

  ssd::Blob& blob = storage.create_blob("t", ssd::IoCategory::kMisc);
  std::vector<char> data(64 * 1024);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>(i * 31 + 7);
  }
  blob.write(0, data.data(), data.size());
  std::vector<char> back(data.size());
  blob.read(0, back.data(), back.size());
  EXPECT_EQ(back, data);

  const auto io = storage.stats().snapshot();
  EXPECT_GT(io.io_retry_count, 0u);   // faults actually fired
  EXPECT_EQ(io.io_giveup_count, 0u);  // and every one was absorbed
}

TEST_P(FaultBackend, ShortIoProfileIsAbsorbed) {
  ScopedEnv env_guard(kFaultVars);
  ssd::TempDir dir;
  ssd::Storage storage(dir.path());
  select_backend(storage);
  storage.set_retry_policy(fast_retries());
  storage.set_fault_injector(std::make_shared<FaultInjector>(
      FaultInjector::named_profile("short-io", 1.0), 9));

  ssd::Blob& blob = storage.create_blob("t", ssd::IoCategory::kMisc);
  std::vector<std::uint32_t> data(20000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint32_t>(i * 2654435761u);
  }
  blob.append(data.data(), data.size() * 4);

  // read_multi under universal clipping: adjacent ops (coalesced into one
  // vectored request on both backends) and a scattered op all round-trip.
  std::vector<std::uint32_t> a(1000), b(1000), c(1000);
  const std::vector<ssd::ReadOp> ops = {
      {0, a.data(), a.size() * 4},
      {a.size() * 4, b.data(), b.size() * 4},
      {10000 * 4, c.data(), c.size() * 4},
  };
  blob.read_multi(ops);
  EXPECT_TRUE(std::memcmp(a.data(), data.data(), a.size() * 4) == 0);
  EXPECT_TRUE(std::memcmp(b.data(), data.data() + 1000, b.size() * 4) == 0);
  EXPECT_TRUE(std::memcmp(c.data(), data.data() + 10000, c.size() * 4) == 0);
  EXPECT_EQ(storage.stats().snapshot().io_giveup_count, 0u);
}

TEST_P(FaultBackend, GiveupProfileEscalatesAsTypedIoError) {
  ScopedEnv env_guard(kFaultVars);
  ssd::TempDir dir;
  ssd::Storage storage(dir.path());
  select_backend(storage);
  storage.set_retry_policy(fast_retries());
  ssd::Blob& blob = storage.create_blob("t", ssd::IoCategory::kMisc);
  const char byte = 'x';
  blob.write(0, &byte, 1);

  storage.set_fault_injector(std::make_shared<FaultInjector>(
      FaultInjector::named_profile("giveup", 1.0), 3));
  char out = 0;
  EXPECT_THROW(blob.read(0, &out, 1), IoError);
  const auto io = storage.stats().snapshot();
  EXPECT_GT(io.io_giveup_count, 0u);
  EXPECT_GT(io.io_retry_count, 0u);
}

TEST_P(FaultBackend, EngineRunUnderMixedFaultsMatchesClean) {
  ScopedEnv env_guard(kFaultVars);
  const auto csr = fault_graph();
  Rig<apps::Bfs> clean(csr, apps::Bfs{.source = 0});
  clean.engine.run();
  const auto clean_values = clean.engine.values();

  const std::uint64_t retries =
      retries_of_first_firing_seed(31, [&](std::uint64_t seed) {
        ssd::TempDir dir;
        ssd::DeviceConfig device;
        device.page_size = 4_KiB;
        ssd::Storage storage(dir.path(), device);
        auto opts = testing_options();
        opts.io_retry_base_delay_us = 0;
        opts.io_backend = GetParam();
        opts.io_queue_depth = 16;
        graph::StoredCsrGraph stored(
            storage, "g", csr, core::partition_for_app<apps::Bfs>(csr, opts));
        core::MultiLogVCEngine<apps::Bfs> engine(
            stored, apps::Bfs{.source = 0}, opts);
        // Injector installed after construction — the fault schedule lands
        // entirely in the run phase (see
        // RunUnderTransientFaultsMatchesCleanRun).
        storage.set_fault_injector(std::make_shared<FaultInjector>(
            FaultInjector::named_profile("mixed", 0.05), seed));
        const auto stats = engine.run();
        EXPECT_EQ(engine.values(), clean_values);
        EXPECT_EQ(stats.io_giveups(), 0u);
        EXPECT_EQ(stats.torn_bytes_dropped(), 0u);
        return stats.io_retries();
      });
  EXPECT_GT(retries, 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, FaultBackend,
                         ::testing::Values(ssd::IoBackendKind::kThreadPool,
                                           ssd::IoBackendKind::kUring),
                         backend_name);

#if !defined(MLVC_TSAN)
using FaultDeathTest = ::testing::Test;

TEST(FaultDeathTest, CrashFailpointKillsWithDedicatedExitCode) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ASSERT_EXIT(
      {
        ssd::TempDir dir;
        ssd::Storage storage(dir.path());
        FaultProfile profile;
        profile.crash_after_writes = 3;
        profile.tear_on_crash = true;
        storage.set_fault_injector(
            std::make_shared<FaultInjector>(profile, 1));
        ssd::Blob& blob = storage.create_blob("t", ssd::IoCategory::kMisc);
        std::vector<char> page(8192, 'a');
        for (int i = 0; i < 10; ++i) {
          blob.append(page.data(), page.size());
        }
      },
      ::testing::ExitedWithCode(ssd::kCrashExitCode), "");
}

// The torn-page crash failpoint must fire on both substrates: the thread
// pool tears mid-pwrite, the uring backend tears at completion reap (the
// data already landed, so the tear is emulated by truncating the extending
// append back to a partial page before _Exit).
class FaultBackendDeathTest : public FaultBackend {};

TEST_P(FaultBackendDeathTest, TornPageCrashKillsWithDedicatedExitCode) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const auto backend = GetParam();
  ASSERT_EXIT(
      {
        ssd::TempDir dir;
        ssd::Storage storage(dir.path());
        storage.set_io_backend(backend, 8);
        FaultProfile profile;
        profile.crash_after_writes = 3;
        profile.tear_on_crash = true;
        storage.set_fault_injector(
            std::make_shared<FaultInjector>(profile, 1));
        ssd::Blob& blob = storage.create_blob("t", ssd::IoCategory::kMisc);
        std::vector<char> page(8192, 'a');
        for (int i = 0; i < 10; ++i) {
          blob.append(page.data(), page.size());
        }
      },
      ::testing::ExitedWithCode(ssd::kCrashExitCode), "");
}

INSTANTIATE_TEST_SUITE_P(Backends, FaultBackendDeathTest,
                         ::testing::Values(ssd::IoBackendKind::kThreadPool,
                                           ssd::IoBackendKind::kUring),
                         backend_name);
#endif  // !MLVC_TSAN

}  // namespace
}  // namespace mlvc
