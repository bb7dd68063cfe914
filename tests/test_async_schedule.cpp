// Interval-granular scheduled execution (core/interval_scheduler.hpp):
// IntervalScheduler pop-order properties, fixed-point equivalence of
// scheduled sync/async runs against BSP and the textbook references,
// asynchronous BSP as the fifo sweep, determinism of the scheduled
// execution, the IoBatch drain-on-destruct contract, and a crashtest cycle
// over the async scheduled path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>

#include "apps/bfs.hpp"
#include "apps/pagerank_delta.hpp"
#include "apps/sssp.hpp"
#include "apps/wcc.hpp"
#include "common/env.hpp"
#include "core/engine.hpp"
#include "core/interval_scheduler.hpp"
#include "graph/generators.hpp"
#include "ssd/async_io.hpp"
#include "tests/reference.hpp"
#include "tests/test_util.hpp"

namespace mlvc {
namespace {

using core::IntervalScheduler;

// ---- IntervalScheduler pop-order properties ---------------------------------

TEST(IntervalScheduler, FifoPopsInArrivalOrder) {
  IntervalScheduler s(SchedulePolicy::kFifo, 4);
  s.mark_ready(3, /*score=*/100, /*pending_bytes=*/100);
  s.mark_ready(0, 50, 50);
  s.mark_ready(2, 999, 999);
  EXPECT_EQ(s.pop(), 3u);  // arrival order, priorities ignored
  EXPECT_EQ(s.pop(), 0u);
  EXPECT_EQ(s.pop(), 2u);
  EXPECT_EQ(s.pop(), kInvalidInterval);
  EXPECT_EQ(s.pops(), 3u);
  EXPECT_TRUE(s.processed(2));
  EXPECT_FALSE(s.processed(1));
}

TEST(IntervalScheduler, HubDegreeOrdersByScoreWithIdTieBreak) {
  IntervalScheduler s(SchedulePolicy::kHubDegree, 4);
  s.mark_ready(0, 5, 0);
  s.mark_ready(1, 9, 0);
  s.mark_ready(2, 9, 0);  // ties with 1: lower id first
  s.mark_ready(3, 1, 0);
  EXPECT_EQ(s.pop(), 1u);
  EXPECT_EQ(s.pop(), 2u);
  EXPECT_EQ(s.pop(), 0u);
  EXPECT_EQ(s.pop(), 3u);
  EXPECT_EQ(s.pop(), kInvalidInterval);
  // Interval 1 arrived at rank 1 but popped first: reorder depth >= 1.
  EXPECT_GE(s.max_reorder_depth(), 1u);
}

TEST(IntervalScheduler, LogBytesOrdersByPendingVolume) {
  IntervalScheduler s(SchedulePolicy::kLogBytes, 3);
  s.mark_ready(0, 0, 10);
  s.mark_ready(1, 0, 30);
  s.mark_ready(2, 0, 20);
  EXPECT_EQ(s.pop(), 1u);
  EXPECT_EQ(s.pop(), 2u);
  EXPECT_EQ(s.pop(), 0u);
}

TEST(IntervalScheduler, RemarkRefreshesPriorityButNotArrival) {
  // Priority inputs refresh on re-mark...
  IntervalScheduler hub(SchedulePolicy::kHubDegree, 2);
  hub.mark_ready(0, 1, 0);
  hub.mark_ready(1, 5, 0);
  hub.mark_ready(0, 10, 0);  // refreshed: now beats 1
  EXPECT_EQ(hub.pop(), 0u);
  EXPECT_EQ(hub.pop(), 1u);
  // ...but the arrival rank (fifo order) is sticky.
  IntervalScheduler fifo(SchedulePolicy::kFifo, 2);
  fifo.mark_ready(0, 0, 0);
  fifo.mark_ready(1, 0, 0);
  fifo.mark_ready(0, 99, 99);  // re-mark must not move 0 behind 1
  EXPECT_EQ(fifo.pop(), 0u);
  EXPECT_EQ(fifo.pop(), 1u);
}

TEST(IntervalScheduler, PopClearsReadyAndAllowsRequeue) {
  IntervalScheduler s(SchedulePolicy::kFifo, 2);
  s.mark_ready(0, 0, 0);
  EXPECT_TRUE(s.is_ready(0));
  EXPECT_EQ(s.pop(), 0u);
  EXPECT_FALSE(s.is_ready(0));
  EXPECT_TRUE(s.processed(0));
  s.mark_ready(0, 0, 0);  // async-mode requeue after new producer appends
  EXPECT_EQ(s.pop(), 0u);
  EXPECT_EQ(s.pops(), 2u);
}

TEST(IntervalScheduler, QuiesceSeqRoundTrip) {
  IntervalScheduler s(SchedulePolicy::kFifo, 3);
  EXPECT_EQ(s.quiesce_seq(1), 0u);
  s.record_quiesce(1, 42);
  EXPECT_EQ(s.quiesce_seq(1), 42u);
  EXPECT_EQ(s.quiesce_seq(0), 0u);
  s.record_quiesce(1, 43);  // monotone refresh after the next drain
  EXPECT_EQ(s.quiesce_seq(1), 43u);
}

// ---- fixed-point equivalence across policies --------------------------------

// Big enough that the 256 KiB budget yields several intervals, so priority
// ordering and same-wave redelivery actually happen. Weighted so the same
// graph serves the SSSP runs (weight derived from the unordered endpoint
// pair, as in test_apps_extended).
graph::CsrGraph sched_graph() {
  graph::RmatParams p;
  p.scale = 11;
  p.edge_factor = 8;
  p.seed = 98;
  auto list = graph::generate_rmat(p);
  for (auto& e : list.edges()) {
    const auto lo = std::min(e.src, e.dst), hi = std::max(e.src, e.dst);
    e.weight = 0.1f + static_cast<float>(stream_for(9, lo, hi).next_double());
  }
  return graph::CsrGraph::from_edge_list(list);
}

core::EngineOptions sched_options(core::ComputationModel model,
                                  SchedulePolicy policy) {
  auto opts = testing_options();
  opts.memory_budget_bytes = 256_KiB;  // several intervals
  opts.enable_interval_fusion = false;
  opts.max_supersteps = 100;
  opts.model = model;
  opts.schedule_policy = policy;
  return opts;
}

template <core::VertexApp App>
struct SchedRun {
  std::vector<typename App::Value> values;
  core::RunStats stats;
};

template <core::VertexApp App>
SchedRun<App> run_scheduled(const graph::CsrGraph& csr, App app,
                            core::ComputationModel model,
                            SchedulePolicy policy) {
  ssd::TempDir dir;
  ssd::DeviceConfig dev;
  dev.page_size = 4_KiB;
  ssd::Storage storage(dir.path(), dev);
  const auto opts = sched_options(model, policy);
  graph::StoredCsrGraph stored(storage, "g", csr,
                               core::partition_for_app<App>(csr, opts),
                               {.with_weights = App::kNeedsWeights});
  core::MultiLogVCEngine<App> engine(stored, app, opts);
  SchedRun<App> out;
  out.stats = engine.run();
  out.values = engine.values();
  EXPECT_GE(stored.intervals().count(), 2u)
      << "graph too small for scheduling to be exercised";
  return out;
}

// Every test below pins schedule_policy explicitly per run, so shield the
// suite from the CI leg that re-runs tier-1 under MLVC_SCHEDULE=hub-degree
// (the env override itself is covered by ScheduleOptions).
class ScheduledExecution : public ::testing::Test {
 private:
  ScopedEnv guard_{"MLVC_SCHEDULE", nullptr};
};

TEST_F(ScheduledExecution, WccReachesReferenceFixpointUnderEveryPolicy) {
  const auto csr = sched_graph();
  const auto expected = reference::wcc_labels(csr);
  const auto bsp = run_scheduled(csr, apps::Wcc{},
                                 core::ComputationModel::kSynchronous,
                                 SchedulePolicy::kBsp);
  ASSERT_EQ(bsp.values, expected);
  for (const auto model : {core::ComputationModel::kSynchronous,
                           core::ComputationModel::kAsynchronous}) {
    for (const auto policy : {SchedulePolicy::kFifo,
                              SchedulePolicy::kHubDegree,
                              SchedulePolicy::kLogBytes}) {
      const auto run = run_scheduled(csr, apps::Wcc{}, model, policy);
      EXPECT_EQ(run.values, expected)
          << to_string(policy) << " under "
          << (model == core::ComputationModel::kAsynchronous ? "async"
                                                             : "sync");
      EXPECT_EQ(run.stats.schedule_policy, to_string(policy));
      EXPECT_GT(run.stats.intervals_scheduled(), 0u);
    }
  }
}

TEST_F(ScheduledExecution, SyncScheduledBfsIsValueIdenticalToBsp) {
  // Ordering-only claim: with next-superstep delivery the schedule changes
  // WHEN an interval's chain runs, never WHAT it is delivered, so any
  // combine-based app lands on bit-identical values.
  const auto csr = sched_graph();
  const auto bsp = run_scheduled(csr, apps::Bfs{.source = 0},
                                 core::ComputationModel::kSynchronous,
                                 SchedulePolicy::kBsp);
  const auto hub = run_scheduled(csr, apps::Bfs{.source = 0},
                                 core::ComputationModel::kSynchronous,
                                 SchedulePolicy::kHubDegree);
  EXPECT_EQ(hub.values, bsp.values);
  // Same wave structure as BSP: every superstep processes every interval
  // whose log is non-empty, just in priority order.
  EXPECT_EQ(hub.stats.effective_rounds(), bsp.stats.effective_rounds());
}

TEST_F(ScheduledExecution, AsyncSsspMatchesDijkstra) {
  // SSSP relaxation is monotone min over per-path sums, so async same-wave
  // redelivery changes the trajectory but not the fixed point.
  const auto csr = sched_graph();
  const auto expected = reference::dijkstra(csr, 0);
  const auto run = run_scheduled(csr, apps::Sssp{.source = 0},
                                 core::ComputationModel::kAsynchronous,
                                 SchedulePolicy::kHubDegree);
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    if (std::isinf(expected[v])) {
      EXPECT_TRUE(std::isinf(run.values[v])) << "vertex " << v;
    } else {
      ASSERT_NEAR(run.values[v], expected[v], 1e-3) << "vertex " << v;
    }
  }
}

TEST_F(ScheduledExecution, AsyncDeltaPagerankConvergesNearBsp) {
  // PageRankDelta's residual series is absolutely convergent, so every
  // delivery order lands on the same fixed point up to epsilon truncation
  // and float summation order.
  const auto csr = sched_graph();
  const apps::PageRankDelta app;
  const auto bsp = run_scheduled(csr, app,
                                 core::ComputationModel::kSynchronous,
                                 SchedulePolicy::kBsp);
  double bsp_mass = 0;
  for (const auto& v : bsp.values) bsp_mass += v.rank;
  ASSERT_GT(bsp_mass, 0.0);
  for (const auto policy : {SchedulePolicy::kFifo,
                            SchedulePolicy::kHubDegree}) {
    const auto run = run_scheduled(csr, app,
                                   core::ComputationModel::kAsynchronous,
                                   policy);
    double mass = 0;
    for (VertexId v = 0; v < csr.num_vertices(); ++v) {
      mass += run.values[v].rank;
      EXPECT_TRUE(run.values[v].seeded) << "vertex " << v;
      // Per-vertex: the epsilon truncation bounds how far delivery orders
      // can drift (small absolute slack plus a relative term for hubs).
      ASSERT_NEAR(run.values[v].rank, bsp.values[v].rank,
                  5e-2 + 5e-2 * bsp.values[v].rank)
          << "vertex " << v << " under " << to_string(policy);
    }
    // Aggregate rank mass drifts much less than any single vertex.
    EXPECT_NEAR(mass / bsp_mass, 1.0, 1e-2) << to_string(policy);
  }
}

TEST_F(ScheduledExecution, AsyncRunIsDeterministic) {
  // Static integer priorities + ascending-id tie break + quiesce scan at
  // fixed points make the whole scheduled execution a pure function of the
  // input. Two identical runs must agree bit-for-bit, including the
  // schedule observability counters.
  const auto csr = sched_graph();
  const apps::PageRankDelta app;
  const auto a = run_scheduled(csr, app,
                               core::ComputationModel::kAsynchronous,
                               SchedulePolicy::kHubDegree);
  const auto b = run_scheduled(csr, app,
                               core::ComputationModel::kAsynchronous,
                               SchedulePolicy::kHubDegree);
  ASSERT_EQ(a.values.size(), b.values.size());
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    ASSERT_EQ(a.values[v].rank, b.values[v].rank) << "vertex " << v;
  }
  EXPECT_EQ(a.stats.effective_rounds(), b.stats.effective_rounds());
  EXPECT_EQ(a.stats.intervals_scheduled(), b.stats.intervals_scheduled());
  EXPECT_EQ(a.stats.schedule_reorder_depth(),
            b.stats.schedule_reorder_depth());
}

TEST_F(ScheduledExecution, AsyncWccNeedsNoMoreRoundsThanBsp) {
  // Same-wave delivery can only accelerate a monotone min app: every
  // message BSP would deliver next round is delivered no later.
  const auto csr = sched_graph();
  const auto bsp = run_scheduled(csr, apps::Wcc{},
                                 core::ComputationModel::kSynchronous,
                                 SchedulePolicy::kBsp);
  const auto async = run_scheduled(csr, apps::Wcc{},
                                   core::ComputationModel::kAsynchronous,
                                   SchedulePolicy::kHubDegree);
  EXPECT_LE(async.stats.effective_rounds(), bsp.stats.effective_rounds());
}

template <core::VertexApp App>
void expect_bsp_async_is_fifo_sweep(const graph::CsrGraph& csr, App app) {
  const auto bsp = run_scheduled(csr, app,
                                 core::ComputationModel::kAsynchronous,
                                 SchedulePolicy::kBsp);
  const auto fifo = run_scheduled(csr, app,
                                  core::ComputationModel::kAsynchronous,
                                  SchedulePolicy::kFifo);
  EXPECT_EQ(bsp.values, fifo.values);
  EXPECT_EQ(bsp.stats.effective_rounds(), fifo.stats.effective_rounds());
  ASSERT_EQ(bsp.stats.supersteps.size(), fifo.stats.supersteps.size());
  for (std::size_t s = 0; s < bsp.stats.supersteps.size(); ++s) {
    EXPECT_EQ(bsp.stats.supersteps[s].messages_consumed,
              fifo.stats.supersteps[s].messages_consumed)
        << "superstep " << s;
  }
}

TEST_F(ScheduledExecution, BspAsyncRunsTheFifoSweep) {
  // BSP is the fifo order: under the asynchronous model it runs the same
  // id-order sweep plus redelivery phase as fifo, so every delivery — and
  // hence every per-superstep consumed count — matches.
  const auto csr = sched_graph();
  expect_bsp_async_is_fifo_sweep(csr, apps::Bfs{.source = 0});
  expect_bsp_async_is_fifo_sweep(csr, apps::Wcc{});
}

// ---- MLVC_SCHEDULE env override ---------------------------------------------

TEST(ScheduleOptions, EnvOverrideParsesAndRejectsJunk) {
  ScopedEnv guard("MLVC_SCHEDULE", nullptr);
  EXPECT_EQ(core::apply_env_overrides(core::EngineOptions{}).schedule_policy,
            SchedulePolicy::kBsp);
  ::setenv("MLVC_SCHEDULE", "hub-degree", 1);
  EXPECT_EQ(core::apply_env_overrides(core::EngineOptions{}).schedule_policy,
            SchedulePolicy::kHubDegree);
  ::setenv("MLVC_SCHEDULE", "log_bytes", 1);  // underscore spelling
  EXPECT_EQ(core::apply_env_overrides(core::EngineOptions{}).schedule_policy,
            SchedulePolicy::kLogBytes);
  // Every row of the env table follows one policy: an unparsable value
  // throws InvalidArgument naming the variable instead of leaving the
  // default in place, so a CI leg with a typo cannot quietly re-test the
  // default. The engine and Storage read their rows at construction; the
  // bench rows go through the same typed readers in the bench binaries.
  ssd::TempDir dir;
  for (const env::Var* var : env::kVars) {
    if (var->kind == env::Kind::kString) continue;  // any text is a value
    ScopedEnv junk(var->name, "abc");
    try {
      if (std::string_view(var->name).starts_with("MLVC_BENCH_")) {
        if (var->kind == env::Kind::kDouble) {
          env::get_double(*var);
        } else {
          env::get_unsigned(*var);
        }
      } else {
        core::apply_env_overrides(core::EngineOptions{});
        ssd::Storage storage(dir.path() / var->name);
      }
      ADD_FAILURE() << var->name << "=abc was accepted";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(var->name), std::string::npos)
          << e.what();
    }
  }
}

TEST(ScheduleOptions, PolicyStringsRoundTrip) {
  for (const auto p : {SchedulePolicy::kBsp, SchedulePolicy::kFifo,
                       SchedulePolicy::kHubDegree, SchedulePolicy::kLogBytes}) {
    SchedulePolicy back = SchedulePolicy::kBsp;
    EXPECT_TRUE(parse_schedule_policy(to_string(p), &back));
    EXPECT_EQ(back, p);
  }
  SchedulePolicy out = SchedulePolicy::kFifo;
  EXPECT_FALSE(parse_schedule_policy("zork", &out));
  EXPECT_FALSE(parse_schedule_policy(nullptr, &out));
  EXPECT_EQ(out, SchedulePolicy::kFifo);  // untouched on failure
}

// ---- IoBatch drain-on-destruct ----------------------------------------------

TEST(IoBatchDrain, DestructorWaitsForInFlightReads) {
  // A cancelled chain unwinds past its staging buffers; the batch destructor
  // must block until every pool thread stops touching them. With the drain
  // in place the buffer below is fully populated the moment the scope ends
  // — deterministically, not racily.
  ssd::TempDir dir;
  ssd::Storage storage(dir.path());
  ssd::Blob& blob = storage.create_blob("t", ssd::IoCategory::kMisc);
  constexpr std::size_t kPage = 4096, kPages = 64;
  std::vector<char> data(kPage * kPages);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>(i * 131 + 17);
  }
  blob.write(0, data.data(), data.size());

  ssd::IoStats stats;
  std::vector<char> buf(data.size(), 0);
  {
    ssd::IoStats::ScopedSink sink(&stats);
    ssd::AsyncIo io(4);
    ssd::IoBatch batch;
    for (std::size_t p = 0; p < kPages; ++p) {
      batch.add(io.read(&blob, p * kPage, buf.data() + p * kPage, kPage));
    }
    EXPECT_EQ(batch.pending(), kPages);
    // No wait(): the destructor must drain before `buf` becomes invalid.
  }
  EXPECT_EQ(std::memcmp(buf.data(), data.data(), data.size()), 0);
  // Every read completed (and stayed attributed to this sink) by the time
  // the batch died.
  EXPECT_EQ(stats.snapshot().total_bytes_read(), data.size());
}

// ---- crashtest over the async scheduled path --------------------------------

TEST_F(ScheduledExecution, CrashtestTornPageRecoversUnderHubDegree) {
  // One victim/recover cycle with the torn-page profile, with every child
  // (clean, victim, recover) running async hub-degree: recovery resumes
  // from the checkpoint and must reconverge to the clean run's values.
  const std::string cmd = std::string(MLVC_TOOL_CRASHTEST) +
                          " --profile torn-page --seed 17 --crash-after 25" +
                          " --schedule hub-degree > /dev/null 2>&1";
  EXPECT_EQ(std::system(cmd.c_str()), 0);
}

}  // namespace
}  // namespace mlvc
