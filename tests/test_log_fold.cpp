// Engine-level tests of the multi-log's produce-side fold: combinable apps
// fold their sends per destination before the log spills
// (multilog/multilog_store.hpp). Values must not move — bit-identical for
// min-combine apps, within tolerance for PageRank's float sums — while the
// message log shrinks; apps without a combine must log exactly what they
// did before.
#include <gtest/gtest.h>

#include <string>

#include "apps/bfs.hpp"
#include "apps/cdlp.hpp"
#include "apps/pagerank.hpp"
#include "apps/sssp.hpp"
#include "apps/wcc.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "metrics/json_export.hpp"
#include "tests/reference.hpp"
#include "tests/test_util.hpp"

namespace mlvc {
namespace {

/// The default team, which honours OMP_NUM_THREADS (TSan runs pin it to 1:
/// libgomp's barriers are invisible to it).
unsigned many_threads() { return hardware_threads(); }

/// Weighted R-MAT, big enough that a 256 KiB budget cuts it into several
/// intervals and every superstep spills log pages.
graph::CsrGraph fold_graph(unsigned scale = 11) {
  graph::RmatParams p;
  p.scale = scale;
  p.edge_factor = 8;
  p.seed = 71;
  auto list = graph::generate_rmat(p);
  for (auto& e : list.edges()) {
    const auto lo = std::min(e.src, e.dst), hi = std::max(e.src, e.dst);
    e.weight = 0.1f + static_cast<float>(stream_for(5, lo, hi).next_double());
  }
  return graph::CsrGraph::from_edge_list(list);
}

core::EngineOptions fold_options(bool combine) {
  auto opts = testing_options();
  opts.memory_budget_bytes = 256_KiB;
  opts.max_supersteps = 100;
  opts.enable_combine = combine;
  return opts;
}

template <core::VertexApp App>
struct FoldRun {
  std::vector<typename App::Value> values;
  core::RunStats stats;
};

template <core::VertexApp App>
FoldRun<App> run_fold(const graph::CsrGraph& csr, App app,
                      const core::EngineOptions& opts) {
  ssd::TempDir dir;
  ssd::DeviceConfig dev;
  dev.page_size = 4_KiB;
  ssd::Storage storage(dir.path(), dev);
  graph::StoredCsrGraph stored(storage, "g", csr,
                               core::partition_for_app<App>(csr, opts),
                               {.with_weights = App::kNeedsWeights});
  core::MultiLogVCEngine<App> engine(stored, app, opts);
  FoldRun<App> out;
  out.stats = engine.run();
  out.values = engine.values();
  return out;
}

std::uint64_t log_bytes_written(const core::RunStats& stats) {
  return stats.category_bytes(ssd::IoCategory::kMessageLog).bytes_written;
}

/// Combine on and off give bit-identical values for a min-combine app at
/// every thread count, and only the "on" runs fold.
template <core::VertexApp App>
void expect_fold_keeps_values(const graph::CsrGraph& csr, App app) {
  std::vector<typename App::Value> baseline;
  {
    ThreadCount one(1);
    baseline = run_fold(csr, app, fold_options(false)).values;
  }
  for (const unsigned threads : {1u, many_threads()}) {
    ThreadCount pinned(threads);
    const auto on = run_fold(csr, app, fold_options(true));
    const auto off = run_fold(csr, app, fold_options(false));
    const std::string where =
        std::string(app.name()) + " threads " + std::to_string(threads);
    EXPECT_EQ(on.values, baseline) << where;
    EXPECT_EQ(off.values, baseline) << where;
    EXPECT_GT(on.stats.log_records_folded(), 0u) << where;
    EXPECT_EQ(off.stats.log_records_folded(), 0u) << where;
    EXPECT_EQ(on.stats.total_messages(), off.stats.total_messages())
        << where;
  }
}

TEST(LogFold, BfsValuesBitIdenticalWithCombineOnAndOff) {
  // Pinned to push: a pulled interval makes no produce-side fold.
  ScopedEnv push("MLVC_DIRECTION", "push");
  const auto csr = fold_graph();
  expect_fold_keeps_values(csr, apps::Bfs{.source = 0});
  ThreadCount pinned(many_threads());
  EXPECT_EQ(run_fold(csr, apps::Bfs{.source = 0}, fold_options(true)).values,
            reference::bfs_distances(csr, 0));
}

TEST(LogFold, WccValuesBitIdenticalWithCombineOnAndOff) {
  // Pinned to push: a pulled interval makes no produce-side fold.
  ScopedEnv push("MLVC_DIRECTION", "push");
  const auto csr = fold_graph();
  expect_fold_keeps_values(csr, apps::Wcc{});
  ThreadCount pinned(many_threads());
  EXPECT_EQ(run_fold(csr, apps::Wcc{}, fold_options(true)).values,
            reference::wcc_labels(csr));
}

TEST(LogFold, SsspValuesBitIdenticalWithCombineOnAndOff) {
  const auto csr = fold_graph();
  expect_fold_keeps_values(csr, apps::Sssp{.source = 0});
}

TEST(LogFold, PageRankWithinToleranceAndWritesFewerLogBytes) {
  // The fold works on the push path's sends; adaptive would pull.
  ScopedEnv push("MLVC_DIRECTION", "push");
  const auto csr = fold_graph();
  apps::PageRank app;
  app.threshold = 0.01f;
  for (const unsigned threads : {1u, many_threads()}) {
    ThreadCount pinned(threads);
    auto on_opts = fold_options(true);
    on_opts.max_supersteps = 5;
    auto off_opts = on_opts;
    off_opts.enable_combine = false;
    const auto on = run_fold(csr, app, on_opts);
    const auto off = run_fold(csr, app, off_opts);
    for (VertexId v = 0; v < csr.num_vertices(); ++v) {
      ASSERT_NEAR(on.values[v], off.values[v], 1e-3) << "vertex " << v;
    }
    EXPECT_LT(log_bytes_written(on.stats), log_bytes_written(off.stats))
        << "threads " << threads;
    EXPECT_LT(on.stats.category_bytes(ssd::IoCategory::kMessageLog).bytes_read,
              off.stats.category_bytes(ssd::IoCategory::kMessageLog).bytes_read)
        << "threads " << threads;
    EXPECT_GT(on.stats.log_records_folded(), 0u);
    // messages_consumed counts sends, not what survived either fold.
    ASSERT_EQ(on.stats.supersteps.size(), off.stats.supersteps.size());
    for (std::size_t s = 0; s < on.stats.supersteps.size(); ++s) {
      EXPECT_EQ(on.stats.supersteps[s].messages_consumed,
                off.stats.supersteps[s].messages_consumed)
          << "superstep " << s;
    }
  }
}

TEST(LogFold, CdlpWritesIdenticalLogBytesWithCombineOnAndOff) {
  // The paper's generality claim: an app without a combine keeps every
  // message, so enable_combine changes nothing about its log.
  const auto csr = fold_graph();
  ThreadCount one(1);
  const auto on = run_fold(csr, apps::Cdlp{}, fold_options(true));
  const auto off = run_fold(csr, apps::Cdlp{}, fold_options(false));
  EXPECT_EQ(on.values, off.values);
  EXPECT_EQ(on.stats.log_records_folded(), 0u);
  EXPECT_GT(log_bytes_written(on.stats), 0u);
  ASSERT_EQ(on.stats.supersteps.size(), off.stats.supersteps.size());
  for (std::size_t s = 0; s < on.stats.supersteps.size(); ++s) {
    const auto& a = on.stats.supersteps[s].io[ssd::IoCategory::kMessageLog];
    const auto& b = off.stats.supersteps[s].io[ssd::IoCategory::kMessageLog];
    EXPECT_EQ(a.bytes_written, b.bytes_written) << "superstep " << s;
    EXPECT_EQ(a.bytes_read, b.bytes_read) << "superstep " << s;
    EXPECT_EQ(a.pages_written, b.pages_written) << "superstep " << s;
  }
}

TEST(LogFold, PageRankLogTrafficProportionalToMessages) {
  // PageRank counterpart of PerformanceProperties'
  // LogTrafficProportionalToMessages: log writes are bounded by the records
  // that survive the fold times the record size, plus one top page per
  // interval — no write amplification beyond page rounding. Pinned to push:
  // a pulled interval logs and folds nothing.
  ScopedEnv push("MLVC_DIRECTION", "push");
  graph::RmatParams p;
  p.scale = 12;
  p.edge_factor = 8;
  p.seed = 78;
  const auto csr = graph::CsrGraph::from_edge_list(graph::generate_rmat(p));
  auto opts = testing_options();
  opts.memory_budget_bytes = 512_KiB;
  opts.max_supersteps = 5;
  const auto run = run_fold(csr, apps::PageRank{}, opts);
  constexpr std::uint64_t kRecord =
      sizeof(VertexId) + sizeof(apps::PageRank::Message);
  for (const auto& s : run.stats.supersteps) {
    const auto& log = s.io[ssd::IoCategory::kMessageLog];
    ASSERT_LE(s.log_records_folded, s.messages_produced);
    const std::uint64_t stored_bytes =
        (s.messages_produced - s.log_records_folded) * kRecord;
    EXPECT_LE(log.bytes_written, stored_bytes + 4_KiB * 512)
        << "superstep " << s.superstep << " write amplification";
  }
  EXPECT_GT(run.stats.log_records_folded(), 0u);
}

TEST(LogFold, AsyncSsspCheckpointResumeReproducesUninterruptedRun) {
  const auto csr = fold_graph();
  const apps::Sssp app{.source = 0};
  auto opts = fold_options(true);
  opts.model = core::ComputationModel::kAsynchronous;
  opts.schedule_policy = SchedulePolicy::kHubDegree;
  const auto make_storage = [](const ssd::TempDir& dir) {
    ssd::DeviceConfig dev;
    dev.page_size = 4_KiB;
    return std::make_unique<ssd::Storage>(dir.path(), dev);
  };
  const auto intervals = core::partition_for_app<apps::Sssp>(csr, opts);

  ssd::TempDir ref_dir;
  auto ref_storage = make_storage(ref_dir);
  graph::StoredCsrGraph ref_graph(*ref_storage, "g", csr, intervals,
                                  {.with_weights = true});
  core::MultiLogVCEngine<apps::Sssp> ref(ref_graph, app, opts);
  const auto ref_stats = ref.run();
  ASSERT_GE(ref_stats.supersteps.size(), 4u);
  EXPECT_GT(ref_stats.log_records_folded(), 0u);

  // Checkpoint after two supersteps, run two more, roll back, resume.
  ssd::TempDir dir;
  auto storage = make_storage(dir);
  graph::StoredCsrGraph stored(*storage, "g", csr, intervals,
                               {.with_weights = true});
  core::MultiLogVCEngine<apps::Sssp> engine(stored, app, opts);
  int steps = 0;
  engine.run_with_callback(
      [&](const core::SuperstepStats&) { return ++steps < 2; });
  engine.save_checkpoint("mid");
  steps = 0;
  engine.run_with_callback(
      [&](const core::SuperstepStats&) { return ++steps < 2; });
  engine.load_checkpoint("mid");
  engine.run();
  EXPECT_EQ(engine.values(), ref.values());
}

TEST(LogFold, RunStatsAndJsonReportTheFold) {
  // Pinned to push: a pulled interval makes no produce-side fold.
  ScopedEnv push("MLVC_DIRECTION", "push");
  const auto csr = fold_graph(10);
  const auto run =
      run_fold(csr, apps::Wcc{}, fold_options(/*combine=*/true));
  std::uint64_t folded = 0;
  double seconds = 0;
  for (const auto& s : run.stats.supersteps) {
    folded += s.log_records_folded;
    seconds += s.fold_seconds;
  }
  EXPECT_GT(folded, 0u);
  EXPECT_EQ(run.stats.log_records_folded(), folded);
  EXPECT_DOUBLE_EQ(run.stats.fold_seconds(), seconds);
  EXPECT_EQ(run.stats.fold_wide_intervals, 0u);
  const std::string json = metrics::to_json(run.stats);
  EXPECT_NE(json.find("\"log_records_folded\":" + std::to_string(folded)),
            std::string::npos);
  EXPECT_NE(json.find("\"fold_seconds\":"), std::string::npos);
  EXPECT_NE(json.find("\"fold_wide_intervals\":0"), std::string::npos);
}

}  // namespace
}  // namespace mlvc
