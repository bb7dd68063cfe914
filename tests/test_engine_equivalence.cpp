// Cross-engine equivalence: every application must compute identical results
// on MultiLogVC and on the GraphChi baseline (both strict BSP), and match
// the in-memory reference implementations.
#include <gtest/gtest.h>

#include "apps/bfs.hpp"
#include "apps/cdlp.hpp"
#include "apps/coloring.hpp"
#include "apps/mis.hpp"
#include "apps/pagerank.hpp"
#include "apps/random_walk.hpp"
#include "apps/wcc.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "graphchi/engine.hpp"
#include "ssd/uring_io.hpp"
#include "tests/reference.hpp"
#include "tests/test_util.hpp"

namespace mlvc {
namespace {

struct Env {
  ssd::TempDir dir;
  ssd::Storage storage;
  explicit Env(std::size_t page = 4_KiB)
      : storage(dir.path(), [page] {
          ssd::DeviceConfig d;
          d.page_size = page;
          return d;
        }()) {}
};

template <core::VertexApp App>
std::vector<typename App::Value> run_mlvc(const graph::CsrGraph& csr, App app,
                                          core::EngineOptions opts) {
  Env env;
  auto intervals = core::partition_for_app<App>(csr, opts);
  graph::StoredCsrGraph stored(env.storage, "g", csr, intervals);
  core::MultiLogVCEngine<App> engine(stored, app, opts);
  engine.run();
  return engine.values();
}

template <core::VertexApp App>
std::vector<typename App::Value> run_graphchi(const graph::CsrGraph& csr,
                                              App app,
                                              graphchi::GraphChiOptions opts) {
  Env env;
  graphchi::GraphChiEngine<App> engine(env.storage, csr, app, opts);
  engine.run();
  return engine.values();
}

graph::CsrGraph test_graph(unsigned scale = 9, std::uint64_t seed = 11) {
  graph::RmatParams p;
  p.scale = scale;
  p.edge_factor = 6;
  p.seed = seed;
  return graph::CsrGraph::from_edge_list(graph::generate_rmat(p));
}

core::EngineOptions mlvc_opts(Superstep max_steps = 60) {
  auto o = testing_options();
  o.max_supersteps = max_steps;
  return o;
}

graphchi::GraphChiOptions gc_opts(Superstep max_steps = 60) {
  graphchi::GraphChiOptions o;
  o.memory_budget_bytes = 2_MiB;
  o.max_supersteps = max_steps;
  return o;
}

TEST(EngineEquivalence, Bfs) {
  const auto csr = test_graph();
  apps::Bfs app{.source = 3};
  const auto a = run_mlvc(csr, app, mlvc_opts());
  const auto b = run_graphchi(csr, app, gc_opts());
  const auto expected = reference::bfs_distances(csr, 3);
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    ASSERT_EQ(a[v], expected[v]) << "mlvc vertex " << v;
    ASSERT_EQ(b[v], expected[v]) << "graphchi vertex " << v;
  }
}

TEST(EngineEquivalence, PageRank) {
  const auto csr = test_graph();
  apps::PageRank app;
  app.threshold = 0.1f;
  const auto a = run_mlvc(csr, app, mlvc_opts(15));
  const auto b = run_graphchi(csr, app, gc_opts(15));
  const auto expected = reference::delta_pagerank(csr, 0.85, 0.1, 15);
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    ASSERT_NEAR(a[v], expected[v], 1e-2) << "mlvc vertex " << v;
    ASSERT_NEAR(b[v], expected[v], 1e-2) << "graphchi vertex " << v;
  }
}

TEST(EngineEquivalence, Cdlp) {
  const auto csr = test_graph();
  apps::Cdlp app;
  const auto a = run_mlvc(csr, app, mlvc_opts(15));
  const auto b = run_graphchi(csr, app, gc_opts(15));
  const auto expected = reference::cdlp_labels(csr, 15);
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    ASSERT_EQ(a[v], expected[v]) << "mlvc vertex " << v;
    ASSERT_EQ(b[v], expected[v]) << "graphchi vertex " << v;
  }
}

TEST(EngineEquivalence, GraphColoringValidAndIdentical) {
  const auto csr = test_graph(8);
  apps::GraphColoring app;
  const auto a = run_mlvc(csr, app, mlvc_opts(300));
  const auto b = run_graphchi(csr, app, gc_opts(300));
  EXPECT_TRUE(reference::coloring_is_valid(csr, a));
  EXPECT_TRUE(reference::coloring_is_valid(csr, b));
  EXPECT_EQ(a, b);
}

TEST(EngineEquivalence, MisValidAndIdentical) {
  const auto csr = test_graph(8, 21);
  apps::Mis app;
  const auto a = run_mlvc(csr, app, mlvc_opts(200));
  const auto b = run_graphchi(csr, app, gc_opts(200));
  EXPECT_TRUE(reference::mis_is_valid(csr, a));
  EXPECT_TRUE(reference::mis_is_valid(csr, b));
  EXPECT_EQ(a, b);
}

// ---- pipelined vs serial matrix -------------------------------------------
//
// The pipeline must be a pure scheduling change: for every app, running with
// the pipeline on (io_threads 1 and 4) must produce the same vertex values
// as the serial path. Integer-valued apps compare bit-exact. PageRank
// combines floats whose per-destination order is unspecified even in serial
// mode (sort_records leaves equal-dst order open), so it compares within a
// rounding tolerance instead.

template <core::VertexApp App, typename Cmp>
void pipeline_matrix(const graph::CsrGraph& csr, App app,
                     core::EngineOptions base, Cmp&& compare) {
  base.io_threads = 0;
  const auto serial = run_mlvc(csr, app, base);
  for (unsigned io_threads : {1u, 4u}) {
    auto opts = base;
    opts.io_threads = io_threads;
    const auto piped = run_mlvc(csr, app, opts);
    ASSERT_EQ(serial.size(), piped.size());
    for (VertexId v = 0; v < csr.num_vertices(); ++v) {
      compare(serial[v], piped[v], v, io_threads);
    }
  }
}

const auto exact_match = [](const auto& a, const auto& b, VertexId v,
                            unsigned io_threads) {
  ASSERT_EQ(a, b) << "vertex " << v << ", io_threads " << io_threads;
};

TEST(PipelineEquivalence, Bfs) {
  pipeline_matrix(test_graph(), apps::Bfs{.source = 3}, mlvc_opts(),
                  exact_match);
}

TEST(PipelineEquivalence, BfsAsynchronousModel) {
  auto opts = mlvc_opts();
  opts.model = core::ComputationModel::kAsynchronous;
  pipeline_matrix(test_graph(), apps::Bfs{.source = 3}, opts, exact_match);
}

TEST(PipelineEquivalence, PageRank) {
  apps::PageRank app;
  app.threshold = 0.1f;
  pipeline_matrix(test_graph(), app, mlvc_opts(15),
                  [](float a, float b, VertexId v, unsigned io_threads) {
                    ASSERT_NEAR(a, b, 1e-4)
                        << "vertex " << v << ", io_threads " << io_threads;
                  });
}

TEST(PipelineEquivalence, Cdlp) {
  pipeline_matrix(test_graph(), apps::Cdlp{}, mlvc_opts(15), exact_match);
}

TEST(PipelineEquivalence, GraphColoring) {
  pipeline_matrix(test_graph(8), apps::GraphColoring{}, mlvc_opts(300),
                  exact_match);
}

TEST(PipelineEquivalence, Mis) {
  pipeline_matrix(test_graph(8, 21), apps::Mis{}, mlvc_opts(200),
                  exact_match);
}

TEST(PipelineEquivalence, RandomWalk) {
  apps::RandomWalk app;
  app.source_stride = 64;
  app.max_steps = 10;
  pipeline_matrix(test_graph(9, 31), app, mlvc_opts(20), exact_match);
}

// ---- io-backend equivalence matrix ----------------------------------------
//
// The io_uring backend must be a pure I/O-substrate change: for every app,
// every vertex value computed with ssd::IoBackendKind::kUring must equal the
// thread-pool result, with the pipeline both off and on (the pipeline is
// where read_multi batches — and so SQE coalescing — actually happen).
// Skipped cleanly when the kernel or sandbox refuses io_uring; CI's strict
// uring re-run catches a probe that falls back when it should not.

template <core::VertexApp App, typename Cmp>
void backend_matrix(const graph::CsrGraph& csr, App app,
                    core::EngineOptions base, Cmp&& compare) {
  if (!ssd::UringIo::probe().available) {
    GTEST_SKIP() << "io_uring unavailable: " << ssd::UringIo::probe().reason;
  }
  for (bool pipeline : {false, true}) {
    auto tp = base;
    tp.io_threads = pipeline ? 4 : 0;
    tp.io_backend = ssd::IoBackendKind::kThreadPool;
    const auto a = run_mlvc(csr, app, tp);
    auto ur = tp;
    ur.io_backend = ssd::IoBackendKind::kUring;
    ur.io_queue_depth = 32;
    const auto b = run_mlvc(csr, app, ur);
    ASSERT_EQ(a.size(), b.size());
    for (VertexId v = 0; v < csr.num_vertices(); ++v) {
      compare(a[v], b[v], v, pipeline);
    }
  }
}

const auto backend_exact = [](const auto& a, const auto& b, VertexId v,
                              bool pipeline) {
  ASSERT_EQ(a, b) << "vertex " << v << ", pipeline " << pipeline;
};

TEST(BackendEquivalence, Bfs) {
  backend_matrix(test_graph(), apps::Bfs{.source = 3}, mlvc_opts(),
                 backend_exact);
}

TEST(BackendEquivalence, PageRank) {
  apps::PageRank app;
  app.threshold = 0.1f;
  backend_matrix(test_graph(), app, mlvc_opts(15),
                 [](float a, float b, VertexId v, bool pipeline) {
                   ASSERT_NEAR(a, b, 1e-4)
                       << "vertex " << v << ", pipeline " << pipeline;
                 });
}

TEST(BackendEquivalence, Wcc) {
  backend_matrix(test_graph(), apps::Wcc{}, mlvc_opts(60), backend_exact);
}

TEST(EngineEquivalence, RandomWalkVisitBudget) {
  const auto csr = test_graph(9, 31);
  apps::RandomWalk app;
  app.source_stride = 64;
  app.max_steps = 10;
  const auto a = run_mlvc(csr, app, mlvc_opts(20));
  const auto b = run_graphchi(csr, app, gc_opts(20));

  const std::uint64_t walkers =
      std::uint64_t{(csr.num_vertices() + 63) / 64} * app.walks_per_source;
  const auto total = [](const std::vector<std::uint32_t>& visits) {
    std::uint64_t t = 0;
    for (auto v : visits) t += v;
    return t;
  };
  // Every walker visits between 1 and max_steps + 1 vertices.
  EXPECT_GE(total(a), walkers);
  EXPECT_LE(total(a), walkers * (app.max_steps + 1));
  EXPECT_GE(total(b), walkers);
  EXPECT_LE(total(b), walkers * (app.max_steps + 1));
}

}  // namespace
}  // namespace mlvc
