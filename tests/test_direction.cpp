// Direction-optimizing execution (DESIGN.md §4e): pull and adaptive must be
// pure execution-strategy changes — vertex values identical to push (within
// float tolerance for PageRank's reassociated sums) — while pull intervals
// bypass the message-log write/decode/sort path. Also covers the density
// counting primitives the heuristic feeds on and checkpoint round-trips that
// carry pull state.
#include <gtest/gtest.h>

#include <cstdlib>

#include "apps/bfs.hpp"
#include "apps/pagerank.hpp"
#include "apps/pagerank_delta.hpp"
#include "apps/wcc.hpp"
#include "common/bitset.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "multilog/active_set.hpp"
#include "tests/test_util.hpp"

namespace mlvc {
namespace {

graph::CsrGraph direction_graph(unsigned scale = 9, std::uint64_t seed = 7) {
  graph::RmatParams p;
  p.scale = scale;
  p.edge_factor = 6;
  p.seed = seed;
  return graph::CsrGraph::from_edge_list(graph::generate_rmat(p));
}

template <core::VertexApp App>
struct RunResult {
  std::vector<typename App::Value> values;
  core::RunStats stats;
};

/// One engine run over a freshly materialized store. The CI adaptive leg
/// re-runs this whole binary under MLVC_DIRECTION=adaptive; tests here pin
/// the direction per run, so the env override must not leak in.
template <core::VertexApp App>
RunResult<App> run(const graph::CsrGraph& csr, App app,
                   core::EngineOptions opts, unsigned devices = 1,
                   bool with_transpose = true) {
  ScopedEnv pin("MLVC_DIRECTION", to_string(opts.direction));
  ssd::TempDir dir("direction");
  ssd::DeviceConfig device;
  device.page_size = 4_KiB;
  device.num_devices = devices;
  ssd::Storage storage(dir.path(), device);
  auto intervals = core::partition_for_app<App>(csr, opts);
  graph::StoredCsrGraph stored(storage, "g", csr, intervals,
                               {.with_weights = App::kNeedsWeights,
                                .with_transpose = with_transpose});
  core::MultiLogVCEngine<App> engine(stored, app, opts);
  RunResult<App> r;
  r.stats = engine.run();
  r.values = engine.values();
  return r;
}

core::EngineOptions direction_opts(Superstep max_steps = 60) {
  auto o = testing_options();
  o.max_supersteps = max_steps;
  return o;
}

// ---- push/pull/adaptive equivalence matrix --------------------------------
//
// devices {1, 4} x pipeline {off, on} x schedule {bsp, fifo, hub-degree}:
// every cell must produce the push values bit-exactly for integer-valued
// apps. (The scheduled sweep stays frozen-order synchronous, so pull's
// gather is still a per-superstep barrier there; with the pipeline on, pull
// chains are prepared on I/O threads between fused push runs.)

template <core::VertexApp App, typename Cmp>
void direction_matrix(const graph::CsrGraph& csr, App app,
                      core::EngineOptions base, Cmp&& compare) {
  for (unsigned devices : {1u, 4u}) {
    for (bool pipeline : {false, true}) {
      for (SchedulePolicy sched :
           {SchedulePolicy::kBsp, SchedulePolicy::kFifo,
            SchedulePolicy::kHubDegree}) {
        auto opts = base;
        opts.io_threads = pipeline ? 4 : 0;
        opts.schedule_policy = sched;
        opts.direction = DirectionMode::kPush;
        const auto push = run(csr, app, opts, devices);
        for (DirectionMode dir :
             {DirectionMode::kPull, DirectionMode::kAdaptive}) {
          auto alt_opts = opts;
          alt_opts.direction = dir;
          const auto alt = run(csr, app, alt_opts, devices);
          ASSERT_EQ(push.values.size(), alt.values.size());
          for (VertexId v = 0; v < csr.num_vertices(); ++v) {
            compare(push.values[v], alt.values[v], v,
                    std::string(to_string(dir)) + " devices=" +
                        std::to_string(devices) +
                        " pipeline=" + std::to_string(pipeline) +
                        " schedule=" + to_string(sched));
          }
        }
      }
    }
  }
}

const auto exact_match = [](const auto& a, const auto& b, VertexId v,
                            const std::string& cell) {
  ASSERT_EQ(a, b) << "vertex " << v << ", " << cell;
};

TEST(DirectionEquivalence, Bfs) {
  direction_matrix(direction_graph(), apps::Bfs{.source = 3},
                   direction_opts(), exact_match);
}

TEST(DirectionEquivalence, Wcc) {
  direction_matrix(direction_graph(9, 23), apps::Wcc{}, direction_opts(),
                   exact_match);
}

TEST(DirectionEquivalence, PageRankTolerance) {
  apps::PageRank app;
  app.threshold = 0.1f;
  direction_matrix(direction_graph(), app, direction_opts(15),
                   [](float a, float b, VertexId v, const std::string& cell) {
                     ASSERT_NEAR(a, b, 1e-4) << "vertex " << v << ", " << cell;
                   });
}

TEST(DirectionEquivalence, PageRankDeltaTolerance) {
  const auto csr = direction_graph();
  apps::PageRankDelta app;
  auto base = direction_opts(15);
  base.direction = DirectionMode::kPush;
  const auto push = run(csr, app, base);
  for (DirectionMode dir : {DirectionMode::kPull, DirectionMode::kAdaptive}) {
    auto opts = base;
    opts.direction = dir;
    const auto alt = run(csr, app, opts);
    for (VertexId v = 0; v < csr.num_vertices(); ++v) {
      ASSERT_NEAR(push.values[v].rank, alt.values[v].rank, 1e-4)
          << "vertex " << v << ", " << to_string(dir);
    }
  }
}

// ---- the pull path actually engages ---------------------------------------

TEST(DirectionStats, PullEngagesAndAvoidsLogBytes) {
  const auto csr = direction_graph();
  auto opts = direction_opts();
  opts.direction = DirectionMode::kPull;
  const auto r = run(csr, apps::Bfs{.source = 3}, opts);
  EXPECT_EQ(r.stats.direction, "pull");
  EXPECT_TRUE(r.stats.direction_fallback.empty())
      << r.stats.direction_fallback;
  EXPECT_GT(r.stats.intervals_pulled(), 0u);
  EXPECT_GT(r.stats.log_bytes_avoided(), 0u);
}

TEST(DirectionStats, PushIsTheInertDefault) {
  const auto csr = direction_graph();
  const auto r = run(csr, apps::Bfs{.source = 3}, direction_opts());
  EXPECT_EQ(r.stats.direction, "push");
  EXPECT_EQ(r.stats.intervals_pulled(), 0u);
  EXPECT_EQ(r.stats.log_bytes_avoided(), 0u);
}

// ---- fallback gates --------------------------------------------------------

TEST(DirectionFallback, NoTransposeStoreFallsBackToPush) {
  const auto csr = direction_graph();
  apps::Bfs app{.source = 3};
  const auto push = run(csr, app, direction_opts());
  auto opts = direction_opts();
  opts.direction = DirectionMode::kPull;
  const auto r = run(csr, app, opts, /*devices=*/1, /*with_transpose=*/false);
  EXPECT_EQ(r.stats.direction, "push");
  EXPECT_FALSE(r.stats.direction_fallback.empty());
  EXPECT_EQ(r.stats.intervals_pulled(), 0u);
  EXPECT_EQ(r.values, push.values);
}

TEST(DirectionFallback, AsynchronousModelFallsBackToPush) {
  const auto csr = direction_graph();
  auto opts = direction_opts();
  opts.direction = DirectionMode::kPull;
  opts.model = core::ComputationModel::kAsynchronous;
  const auto r = run(csr, apps::Bfs{.source = 3}, opts);
  EXPECT_EQ(r.stats.direction, "push");
  EXPECT_FALSE(r.stats.direction_fallback.empty());
  EXPECT_EQ(r.stats.intervals_pulled(), 0u);
}

TEST(DirectionFallback, CombineDisabledFallsBackToPush) {
  const auto csr = direction_graph();
  auto opts = direction_opts();
  opts.direction = DirectionMode::kAdaptive;
  opts.enable_combine = false;
  const auto r = run(csr, apps::Bfs{.source = 3}, opts);
  EXPECT_EQ(r.stats.direction, "push");
  EXPECT_FALSE(r.stats.direction_fallback.empty());
}

// ---- the broadcast table ---------------------------------------------------
//
// A superstep that pulls reads its captured broadcasts once, into a
// V x sizeof(Message) table charged to the sort slice (X% = 3/4 of the
// budget). R-MAT scale 14 makes a 64 KiB table for 4-byte messages.

constexpr std::uint64_t kTableBytes = (std::uint64_t{1} << 14) * 4;

/// Between a quarter of the budget and the sort slice: the table fits.
/// Captures are written without a read and each superstep gathers the
/// table at most once, so pull reads at most one table per superstep more
/// value bytes than push.
template <core::VertexApp App>
void table_inside_sort_slice(App app) {
  const auto csr = direction_graph(14, 5);
  auto opts = direction_opts();
  opts.memory_budget_bytes = 192_KiB;
  ASSERT_GT(kTableBytes, opts.memory_budget_bytes / 4);
  ASSERT_LE(kTableBytes, opts.sort_budget());
  opts.direction = DirectionMode::kPush;
  const auto push = run(csr, app, opts);
  const std::uint64_t push_reads =
      push.stats.category_bytes(ssd::IoCategory::kVertexValue).bytes_read;
  for (DirectionMode dir : {DirectionMode::kPull, DirectionMode::kAdaptive}) {
    SCOPED_TRACE(to_string(dir));
    opts.direction = dir;
    const auto r = run(csr, app, opts);
    EXPECT_EQ(r.stats.direction, to_string(dir));
    EXPECT_GT(r.stats.intervals_pulled(), 0u);
    EXPECT_EQ(r.values, push.values);
    EXPECT_LE(
        r.stats.category_bytes(ssd::IoCategory::kVertexValue).bytes_read,
        push_reads + r.stats.supersteps.size() * kTableBytes)
        << "push read " << push_reads << " B in "
        << push.stats.supersteps.size() << " supersteps, this run "
        << r.stats.supersteps.size();
  }
}

TEST(DirectionTable, BfsReadsBroadcastsOncePerSuperstep) {
  table_inside_sort_slice(apps::Bfs{.source = 3});
}

TEST(DirectionTable, WccReadsBroadcastsOncePerSuperstep) {
  table_inside_sort_slice(apps::Wcc{});
}

TEST(DirectionFallback, TableLargerThanSortSliceFallsBackToPush) {
  const auto csr = direction_graph(14, 5);
  apps::Wcc app;
  auto opts = direction_opts();
  opts.memory_budget_bytes = 80_KiB;  // the smallest whose A% holds a page
  ASSERT_GT(kTableBytes, opts.sort_budget());
  const auto push = run(csr, app, opts);
  opts.direction = DirectionMode::kPull;
  const auto r = run(csr, app, opts);
  EXPECT_EQ(r.stats.direction, "push");
  EXPECT_NE(r.stats.direction_fallback.find("table"), std::string::npos)
      << r.stats.direction_fallback;
  EXPECT_EQ(r.stats.intervals_pulled(), 0u);
  EXPECT_EQ(r.values, push.values);
}

// ---- density counting primitives (the heuristic's inputs) ------------------

TEST(DensityCounting, ActiveSetCountInRangeEdgeCases) {
  multilog::ActiveSet set(200);
  // Empty interval: [k, k) is 0 regardless of surrounding bits.
  set.activate(64);
  EXPECT_EQ(set.count_in_range(64, 64), 0u);
  EXPECT_EQ(set.count_in_range(0, 0), 0u);
  EXPECT_EQ(set.count_in_range(200, 200), 0u);
  // Word-straddling boundary: bits on both sides of the 64-bit word edge.
  set.activate(63);
  set.activate(65);
  EXPECT_EQ(set.count_in_range(63, 66), 3u);
  EXPECT_EQ(set.count_in_range(64, 66), 2u);
  EXPECT_EQ(set.count_in_range(63, 64), 1u);
  EXPECT_EQ(set.count_in_range(0, 200), 3u);
  // Matches the scan-based active_in_range on the same ranges.
  EXPECT_EQ(set.count_in_range(60, 130), set.active_in_range(60, 130).size());
}

TEST(DensityCounting, ActiveSetAllActive) {
  multilog::ActiveSet set(130);  // 2 full words + a 2-bit tail
  for (VertexId v = 0; v < 130; ++v) set.activate(v);
  EXPECT_EQ(set.count_in_range(0, 130), 130u);
  EXPECT_EQ(set.count_in_range(0, 64), 64u);
  EXPECT_EQ(set.count_in_range(64, 128), 64u);
  EXPECT_EQ(set.count_in_range(128, 130), 2u);
  EXPECT_EQ(set.count_in_range(1, 129), 128u);
}

TEST(DensityCounting, DynamicBitsetCountInRangeMatchesScan) {
  DynamicBitset bits(193);
  for (std::size_t i = 0; i < 193; i += 3) bits.set(i);
  for (std::size_t begin : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 192u}) {
    for (std::size_t end : {0u, 1u, 63u, 64u, 65u, 128u, 192u, 193u}) {
      if (begin > end) continue;
      std::size_t expected = 0;
      for (std::size_t i = begin; i < end; ++i) expected += bits.test(i);
      EXPECT_EQ(bits.count_in_range(begin, end), expected)
          << "[" << begin << ", " << end << ")";
    }
  }
}

// ---- checkpoint round-trip with pull state --------------------------------

TEST(DirectionCheckpoint, ResumeUnderAdaptiveMatchesUninterruptedRun) {
  ScopedEnv pin("MLVC_DIRECTION", "adaptive");
  const auto csr = direction_graph(9, 41);
  apps::Wcc app;
  auto opts = direction_opts();
  opts.direction = DirectionMode::kAdaptive;

  const auto make_env = [&](ssd::TempDir& dir) {
    ssd::DeviceConfig device;
    device.page_size = 4_KiB;
    return ssd::Storage(dir.path(), device);
  };

  // Uninterrupted reference.
  ssd::TempDir ref_dir("direction_ckpt_ref");
  auto ref_storage = make_env(ref_dir);
  graph::StoredCsrGraph ref_stored(
      ref_storage, "g", csr, core::partition_for_app<apps::Wcc>(csr, opts));
  core::MultiLogVCEngine<apps::Wcc> ref_engine(ref_stored, app, opts);
  ref_engine.run();
  const auto expected = ref_engine.values();

  // Interrupted: checkpoint mid-run (pull state in flight), diverge, roll
  // back, resume to completion.
  ssd::TempDir dir("direction_ckpt");
  auto storage = make_env(dir);
  graph::StoredCsrGraph stored(
      storage, "g", csr, core::partition_for_app<apps::Wcc>(csr, opts));
  core::MultiLogVCEngine<apps::Wcc> engine(stored, app, opts);
  int steps = 0;
  engine.run_with_callback(
      [&](const core::SuperstepStats&) { return ++steps < 2; });
  engine.save_checkpoint("mid");
  steps = 0;
  engine.run_with_callback(
      [&](const core::SuperstepStats&) { return ++steps < 3; });
  engine.load_checkpoint("mid");
  engine.run();
  EXPECT_EQ(engine.values(), expected);
}

}  // namespace
}  // namespace mlvc
