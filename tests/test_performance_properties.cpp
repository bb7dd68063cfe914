// Performance-property regression tests: the paper's headline I/O claims,
// asserted over the deterministic page counters so a behavioural regression
// (loader stops coalescing, logs stop batching, GraphChi stops reloading
// shards…) fails CI rather than silently skewing the benches.
#include <gtest/gtest.h>

#include "apps/bfs.hpp"
#include "apps/cdlp.hpp"
#include "apps/mis.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "graphchi/engine.hpp"
#include "tests/test_util.hpp"

namespace mlvc {
namespace {

ssd::DeviceConfig dev4k() {
  ssd::DeviceConfig d;
  d.page_size = 4_KiB;
  return d;
}

graph::CsrGraph perf_graph(std::uint64_t seed = 77) {
  graph::RmatParams p;
  p.scale = 12;
  p.edge_factor = 8;
  p.seed = seed;
  return graph::CsrGraph::from_edge_list(graph::generate_rmat(p));
}

template <core::VertexApp App>
core::RunStats run_mlvc(const graph::CsrGraph& csr, App app,
                        Superstep max_steps = 30,
                        DirectionMode direction = DirectionMode::kPush) {
  ssd::TempDir dir;
  ssd::Storage storage(dir.path(), dev4k());
  auto opts = testing_options();
  opts.memory_budget_bytes = 512_KiB;
  opts.max_supersteps = max_steps;
  opts.direction = direction;
  graph::StoredCsrGraph stored(storage, "g", csr,
                               core::partition_for_app<App>(csr, opts));
  core::MultiLogVCEngine<App> engine(stored, app, opts);
  return engine.run();
}

template <core::VertexApp App>
core::RunStats run_graphchi(const graph::CsrGraph& csr, App app,
                            Superstep max_steps = 30) {
  ssd::TempDir dir;
  ssd::Storage storage(dir.path(), dev4k());
  graphchi::GraphChiOptions opts;
  opts.memory_budget_bytes = 512_KiB;
  opts.max_supersteps = max_steps;
  graphchi::GraphChiEngine<App> engine(storage, csr, app, opts);
  return engine.run();
}

TEST(PerformanceProperties, MlvcIoTracksActivity) {
  // The core claim: MultiLogVC's per-superstep page traffic shrinks with
  // the active set. Compare the busiest superstep against the last
  // "real" one (BFS tail): at least a 5x decline. Pinned to push, the
  // paper's model: a forced pull sweeps the whole transpose every superstep.
  ScopedEnv push("MLVC_DIRECTION", "push");
  const auto csr = perf_graph();
  const auto stats = run_mlvc(csr, apps::Bfs{.source = 0});
  ASSERT_GE(stats.supersteps.size(), 4u);
  std::size_t peak_idx = 0;
  for (std::size_t i = 0; i < stats.supersteps.size(); ++i) {
    if (stats.supersteps[i].io.total_pages() >
        stats.supersteps[peak_idx].io.total_pages()) {
      peak_idx = i;
    }
  }
  const std::uint64_t peak = stats.supersteps[peak_idx].io.total_pages();
  std::uint64_t tail_min = UINT64_MAX;
  for (std::size_t i = peak_idx + 1; i < stats.supersteps.size(); ++i) {
    tail_min = std::min(tail_min, stats.supersteps[i].io.total_pages());
  }
  ASSERT_NE(tail_min, UINT64_MAX);  // peak must not be the final superstep
  EXPECT_GT(peak, 3 * std::max<std::uint64_t>(1, tail_min))
      << "MultiLogVC I/O no longer tracks the active set";
}

TEST(PerformanceProperties, GraphChiIoDoesNotTrackActivity) {
  // The contrast claim (paper §II.A): GraphChi's *read* traffic stays at
  // whole-graph scale every superstep regardless of activity.
  const auto csr = perf_graph();
  const auto stats = run_graphchi(csr, apps::Bfs{.source = 0});
  ASSERT_GE(stats.supersteps.size(), 4u);
  std::uint64_t min_reads = UINT64_MAX, max_reads = 0;
  for (const auto& s : stats.supersteps) {
    min_reads = std::min(min_reads, s.io.total_pages_read());
    max_reads = std::max(max_reads, s.io.total_pages_read());
  }
  EXPECT_LT(max_reads, 2 * min_reads)
      << "GraphChi shard reads should be roughly constant per superstep";
}

TEST(PerformanceProperties, MlvcReadsFewerPagesThanGraphChiOnSparseApps) {
  const auto csr = perf_graph();
  const auto mlvc = run_mlvc(csr, apps::Bfs{.source = 0});
  const auto gc = run_graphchi(csr, apps::Bfs{.source = 0});
  EXPECT_LT(mlvc.total_pages() * 3, gc.total_pages())
      << "expected >=3x page advantage on BFS";

  const auto mlvc_mis = run_mlvc(csr, apps::Mis{});
  const auto gc_mis = run_graphchi(csr, apps::Mis{});
  EXPECT_LT(mlvc_mis.total_pages() * 2, gc_mis.total_pages())
      << "expected >=2x page advantage on MIS";
}

TEST(PerformanceProperties, LogTrafficProportionalToMessages) {
  // Multi-log writes are bounded by messages x record size plus one top
  // page per interval — no write amplification beyond page rounding.
  const auto csr = perf_graph(78);
  const auto stats = run_mlvc(csr, apps::Cdlp{}, 5);
  for (const auto& s : stats.supersteps) {
    const auto& log = s.io[ssd::IoCategory::kMessageLog];
    const std::uint64_t message_bytes =
        s.messages_produced * (sizeof(VertexId) + sizeof(apps::Cdlp::Message));
    EXPECT_LE(log.bytes_written, message_bytes + 4_KiB * 512)
        << "superstep " << s.superstep << " write amplification";
  }
}

TEST(PerformanceProperties, EngineRunsReadNoRowPtrPages) {
  // Row offsets are resident: push loads and the pull path's transpose
  // loads both read adjacency pages only.
  const auto csr = perf_graph(79);
  const auto check = [](const core::RunStats& stats) {
    std::uint64_t rowptr = 0, colidx = 0;
    for (const auto& s : stats.supersteps) {
      rowptr += s.io[ssd::IoCategory::kCsrRowPtr].pages_read;
      colidx += s.io[ssd::IoCategory::kCsrColIdx].pages_read;
    }
    EXPECT_EQ(rowptr, 0u);
    EXPECT_GT(colidx, 0u);
  };
  check(run_mlvc(csr, apps::Cdlp{}, 5));
  check(run_mlvc(csr, apps::Bfs{.source = 0}, 30, DirectionMode::kPull));
}

TEST(PerformanceProperties, ModeledTimeDeterministic) {
  // The device model is a pure function of the I/O trace: two identical
  // runs report identical modeled storage time and page counts.
  const auto csr = perf_graph(80);
  const auto a = run_mlvc(csr, apps::Cdlp{}, 5);
  const auto b = run_mlvc(csr, apps::Cdlp{}, 5);
  EXPECT_DOUBLE_EQ(a.modeled_storage_seconds(), b.modeled_storage_seconds());
  EXPECT_EQ(a.total_pages(), b.total_pages());
}

}  // namespace
}  // namespace mlvc
