// Determinism matrix: a run is a pure function of its input and options,
// not of the thread schedule. Each configuration of
//   {1, 4 threads} x {adjacency cache on, off} x {io_threads 0, 4}
//   x {bsp sync, hub-degree async} x {push, adaptive} x {combine on, off}
// runs twice on a small skewed graph and must repeat its vertex values
// (FNV-1a over the value array), modeled storage time and page count
// exactly. At each thread count, the adjacency cache and the I/O threads
// must not move the values either. PageRank's float sums make the order of
// every message fold visible in the last bit.
#include <gtest/gtest.h>

#include <string>

#include "apps/bfs.hpp"
#include "apps/pagerank.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "metrics/json_export.hpp"
#include "tests/test_util.hpp"

namespace mlvc {
namespace {

/// Skewed R-MAT: 4096 vertices and ~32K edges, which a 256 KiB budget cuts
/// into several intervals with several send chunks per batch.
const graph::CsrGraph& matrix_graph() {
  static const graph::CsrGraph csr = [] {
    graph::RmatParams p;
    p.scale = 12;
    p.edge_factor = 8;
    p.seed = 41;
    return graph::CsrGraph::from_edge_list(graph::generate_rmat(p));
  }();
  return csr;
}

struct Outcome {
  std::uint64_t values_hash = 0;
  double modeled_seconds = 0;
  std::uint64_t pages = 0;
};

struct Config {
  bool cache = false;
  unsigned io_threads = 0;
  bool async = false;
  DirectionMode direction = DirectionMode::kPush;
  bool combine = true;

  std::string name() const {
    return std::string("cache=") + (cache ? "on" : "off") +
           " io_threads=" + std::to_string(io_threads) +
           (async ? " hub-degree async" : " bsp sync") + " " +
           to_string(direction) + " combine=" + (combine ? "on" : "off");
  }
};

template <core::VertexApp App>
Outcome run(App app, const Config& cfg) {
  // The options below are the configuration; CI legs must not retarget it.
  ScopedEnv direction("MLVC_DIRECTION", to_string(cfg.direction));
  ScopedEnv schedule("MLVC_SCHEDULE", cfg.async ? "hub-degree" : "bsp");
  auto opts = testing_options();
  opts.memory_budget_bytes = 256_KiB;
  opts.max_supersteps = 8;
  opts.adjacency_cache_bytes = cfg.cache ? 1_MiB : 0;
  opts.io_threads = cfg.io_threads;
  opts.model = cfg.async ? core::ComputationModel::kAsynchronous
                         : core::ComputationModel::kSynchronous;
  opts.schedule_policy =
      cfg.async ? SchedulePolicy::kHubDegree : SchedulePolicy::kBsp;
  opts.direction = cfg.direction;
  opts.enable_combine = cfg.combine;
  ssd::TempDir dir("determinism");
  ssd::DeviceConfig device;
  device.page_size = 4_KiB;
  ssd::Storage storage(dir.path(), device);
  const auto& csr = matrix_graph();
  graph::StoredCsrGraph stored(storage, "g", csr,
                               core::partition_for_app<App>(csr, opts),
                               {.with_transpose = true});
  core::MultiLogVCEngine<App> engine(stored, app, opts);
  const core::RunStats stats = engine.run();
  return {metrics::streamed_values_hash(engine),
          stats.modeled_storage_seconds(), stats.total_pages()};
}

template <core::VertexApp App>
void determinism_matrix(App app, unsigned threads) {
  ThreadCount pinned(threads);
  for (const bool async : {false, true}) {
    for (const DirectionMode direction :
         {DirectionMode::kPush, DirectionMode::kAdaptive}) {
      for (const bool combine : {true, false}) {
        // Values of the (cache off, io_threads 0) cell, which every other
        // cache and I/O-thread cell must reproduce.
        std::uint64_t reference_hash = 0;
        bool first = true;
        for (const bool cache : {false, true}) {
          for (const unsigned io_threads : {0u, 4u}) {
            const Config cfg{cache, io_threads, async, direction, combine};
            SCOPED_TRACE(cfg.name() + " threads=" + std::to_string(threads));
            const Outcome a = run(app, cfg);
            const Outcome b = run(app, cfg);
            EXPECT_EQ(a.values_hash, b.values_hash);
            EXPECT_EQ(a.modeled_seconds, b.modeled_seconds);
            EXPECT_EQ(a.pages, b.pages);
            if (first) {
              reference_hash = a.values_hash;
              first = false;
            }
            EXPECT_EQ(a.values_hash, reference_hash)
                << "cache or io_threads moved the values";
          }
        }
      }
    }
  }
}

class DeterminismMatrix : public ::testing::TestWithParam<unsigned> {};

TEST_P(DeterminismMatrix, PageRank) {
  apps::PageRank app;
  app.threshold = 0.01f;
  determinism_matrix(app, GetParam());
}

TEST_P(DeterminismMatrix, Bfs) {
  determinism_matrix(apps::Bfs{.source = 0}, GetParam());
}

// The v1 combine scatter cuts a group's log into fixed-size units, so the
// float merge order of PageRank's sums does not follow the thread count.
// Scale 13 x 16 edges at a 1 MiB budget puts more than one unit of records
// in each interval's log.
TEST(V1CombineDeterminism, PageRankValuesIndependentOfThreadCount) {
  ScopedEnv format("MLVC_FORMAT", "v1");
  ScopedEnv direction("MLVC_DIRECTION", "push");
  ScopedEnv schedule("MLVC_SCHEDULE", "bsp");
  graph::RmatParams p;
  p.scale = 13;
  p.edge_factor = 16;
  p.seed = 43;
  const auto csr = graph::CsrGraph::from_edge_list(graph::generate_rmat(p));
  apps::PageRank app;
  app.threshold = 0.01f;
  const auto hash_at = [&](unsigned threads) {
    ThreadCount pinned(threads);
    auto opts = testing_options();
    opts.memory_budget_bytes = 1_MiB;
    opts.max_supersteps = 6;
    // Serial: the grouping runs on the thread whose team size is pinned.
    opts.io_threads = 0;
    opts.on_disk_format = OnDiskFormat::kV1;
    ssd::TempDir dir("determinism_v1");
    ssd::DeviceConfig device;
    device.page_size = 4_KiB;
    ssd::Storage storage(dir.path(), device);
    graph::StoredCsrGraph stored(
        storage, "g", csr, core::partition_for_app<apps::PageRank>(csr, opts));
    core::MultiLogVCEngine<apps::PageRank> engine(stored, app, opts);
    engine.run();
    return metrics::streamed_values_hash(engine);
  };
  EXPECT_EQ(hash_at(1), hash_at(4));
}

INSTANTIATE_TEST_SUITE_P(Threads, DeterminismMatrix,
                         ::testing::Values(1u, 4u),
                         [](const auto& info) {
                           return std::to_string(info.param) + "threads";
                         });

}  // namespace
}  // namespace mlvc
