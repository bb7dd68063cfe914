// Feature-level tests of the MultiLogVC engine: design-knob equivalences
// (edge log, fusion, combine), asynchronous mode, structural updates from
// vertex programs, early-stop callbacks, determinism, and degenerate
// graphs.
#include <gtest/gtest.h>

#include <cstdlib>

#include "apps/bfs.hpp"
#include "apps/cdlp.hpp"
#include "apps/pagerank.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "tests/reference.hpp"
#include "tests/test_util.hpp"

namespace mlvc {
namespace {

struct Env {
  ssd::TempDir dir;
  ssd::Storage storage;
  Env() : storage(dir.path(), [] {
            ssd::DeviceConfig d;
            d.page_size = 4_KiB;
            return d;
          }()) {}
};

graph::CsrGraph feature_graph(unsigned scale = 9, std::uint64_t seed = 23) {
  graph::RmatParams p;
  p.scale = scale;
  p.edge_factor = 6;
  p.seed = seed;
  return graph::CsrGraph::from_edge_list(graph::generate_rmat(p));
}

template <core::VertexApp App>
std::pair<std::vector<typename App::Value>, core::RunStats> run_once(
    const graph::CsrGraph& csr, App app, core::EngineOptions opts) {
  Env env;
  auto intervals = core::partition_for_app<App>(csr, opts);
  graph::StoredCsrGraph stored(env.storage, "g", csr, intervals);
  core::MultiLogVCEngine<App> engine(stored, app, opts);
  auto stats = engine.run();
  return {engine.values(), stats};
}

// ---- design-knob equivalence -----------------------------------------------

TEST(EngineFeatures, EdgeLogOnOffSameResults) {
  const auto csr = feature_graph();
  apps::Cdlp app;
  auto on = testing_options();
  auto off = testing_options();
  off.enable_edge_log = false;
  const auto [a, sa] = run_once(csr, app, on);
  const auto [b, sb] = run_once(csr, app, off);
  EXPECT_EQ(a, b);
}

TEST(EngineFeatures, FusionOnOffSameResults) {
  const auto csr = feature_graph();
  apps::Cdlp app;
  auto on = testing_options();
  auto off = testing_options();
  // Force many intervals so fusion actually has work to do.
  on.memory_budget_bytes = 256_KiB;
  off.memory_budget_bytes = 256_KiB;
  off.enable_interval_fusion = false;
  const auto [a, sa] = run_once(csr, app, on);
  const auto [b, sb] = run_once(csr, app, off);
  EXPECT_EQ(a, b);
}

TEST(EngineFeatures, CombineOnOffSameResultsForBfs) {
  const auto csr = feature_graph();
  apps::Bfs app{.source = 1};
  auto on = testing_options();
  auto off = testing_options();
  off.enable_combine = false;
  const auto [a, sa] = run_once(csr, app, on);
  const auto [b, sb] = run_once(csr, app, off);
  EXPECT_EQ(a, b);
  const auto expected = reference::bfs_distances(csr, 1);
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    ASSERT_EQ(a[v], expected[v]);
  }
}

TEST(EngineFeatures, CombineChangesComputeNotLogTraffic) {
  // The combine operator (§V.D) also folds sends on the produce path before
  // they spill, so — as in GraFBoost — combining shrinks the on-storage log
  // (tests/test_log_fold.cpp pins that). messages_consumed counts sends, not
  // stored records, so toggling combine must leave it identical (and, for a
  // sum-combine app like PageRank, the results equal up to float
  // reassociation).
  const auto csr = feature_graph();
  apps::PageRank app;
  app.threshold = 0.01f;
  auto on = testing_options();
  on.max_supersteps = 5;
  auto off = on;
  off.enable_combine = false;
  const auto [a, sa] = run_once(csr, app, on);
  const auto [b, sb] = run_once(csr, app, off);
  ASSERT_EQ(sa.supersteps.size(), sb.supersteps.size());
  for (std::size_t s = 0; s < sa.supersteps.size(); ++s) {
    EXPECT_EQ(sa.supersteps[s].messages_consumed,
              sb.supersteps[s].messages_consumed);
  }
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    ASSERT_NEAR(a[v], b[v], 1e-3) << "vertex " << v;
  }
}

TEST(EngineFeatures, ScatterStagingPreservesMessageCounts) {
  // Sends are buffered per batch chunk and committed in chunk order, so the
  // message accounting and the commit count do not depend on the thread
  // count: per-superstep produced/consumed totals and commits match
  // between one thread and the default team.
  const auto csr = feature_graph();
  apps::Cdlp app;
  const auto opts = testing_options();
  const auto [a, sa] = [&] {
    ThreadCount one(1);
    return run_once(csr, app, opts);
  }();
  const auto [b, sb] = run_once(csr, app, opts);
  EXPECT_EQ(a, b);
  ASSERT_EQ(sa.supersteps.size(), sb.supersteps.size());
  for (std::size_t s = 0; s < sa.supersteps.size(); ++s) {
    EXPECT_EQ(sa.supersteps[s].messages_produced,
              sb.supersteps[s].messages_produced);
    EXPECT_EQ(sa.supersteps[s].messages_consumed,
              sb.supersteps[s].messages_consumed);
    EXPECT_EQ(sa.supersteps[s].edges_activated,
              sb.supersteps[s].edges_activated);
    EXPECT_EQ(sa.supersteps[s].scatter_flush_count,
              sb.supersteps[s].scatter_flush_count);
  }
  EXPECT_GT(sb.scatter_flush_count(), 0u);
  EXPECT_GE(sb.scatter_stall_seconds(), 0.0);
}

TEST(EngineFeatures, AsyncModeCorrectWithStaging) {
  // Async drains bypass swap_generations, so each batch's sends must be
  // committed before the next drain_produce_interval — otherwise messages
  // still in a batch's chunk buffers would be skipped for the interval
  // being drained.
  const auto csr = feature_graph(9, 29);
  apps::Bfs app{.source = 0};
  auto opts = testing_options();
  opts.model = core::ComputationModel::kAsynchronous;
  const auto [values, stats] = run_once(csr, app, opts);
  const auto expected = reference::bfs_distances(csr, 0);
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    ASSERT_EQ(values[v], expected[v]) << "vertex " << v;
  }
}

TEST(EngineFeatures, AdjacencyCacheOnOffSameResults) {
  const auto csr = feature_graph();
  apps::PageRank app;
  app.threshold = 0.01f;
  auto off = testing_options();
  off.max_supersteps = 5;
  auto on = off;
  on.adjacency_cache_bytes = 2_MiB;
  const auto [a, sa] = run_once(csr, app, off);
  const auto [b, sb] = run_once(csr, app, on);
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    ASSERT_EQ(a[v], b[v]) << "vertex " << v;
  }
  // PageRank re-reads every interval's adjacency each superstep: the cache
  // must score hits, and they must show up in the per-superstep IO stats.
  std::uint64_t hits = 0;
  for (const auto& s : sb.supersteps) hits += s.io.cache_hit_pages;
  EXPECT_GT(hits, 0u);
  std::uint64_t off_hits = 0;
  for (const auto& s : sa.supersteps) off_hits += s.io.cache_hit_pages;
  EXPECT_EQ(off_hits, 0u);
}

TEST(EngineFeatures, DeterministicAcrossRuns) {
  const auto csr = feature_graph();
  apps::Cdlp app;
  const auto [a, sa] = run_once(csr, app, testing_options());
  const auto [b, sb] = run_once(csr, app, testing_options());
  EXPECT_EQ(a, b);
  ASSERT_EQ(sa.supersteps.size(), sb.supersteps.size());
  for (std::size_t s = 0; s < sa.supersteps.size(); ++s) {
    EXPECT_EQ(sa.supersteps[s].active_vertices,
              sb.supersteps[s].active_vertices);
    EXPECT_EQ(sa.supersteps[s].messages_produced,
              sb.supersteps[s].messages_produced);
  }
}

// ---- asynchronous mode (§V.F) ----------------------------------------------

TEST(EngineFeatures, AsyncBfsMatchesReferenceDistances) {
  // Async delivery can only ever deliver messages EARLIER; BFS min-distance
  // is monotone, so final distances are identical.
  const auto csr = feature_graph(9, 29);
  apps::Bfs app{.source = 0};
  auto opts = testing_options();
  opts.model = core::ComputationModel::kAsynchronous;
  const auto [values, stats] = run_once(csr, app, opts);
  const auto expected = reference::bfs_distances(csr, 0);
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    ASSERT_EQ(values[v], expected[v]) << "vertex " << v;
  }
}

TEST(EngineFeatures, AsyncConvergesNoSlowerThanSync) {
  const auto csr = feature_graph(9, 29);
  apps::Bfs app{.source = 0};
  auto sync_opts = testing_options();
  auto async_opts = testing_options();
  async_opts.model = core::ComputationModel::kAsynchronous;
  const auto [va, sa] = run_once(csr, app, sync_opts);
  const auto [vb, sb] = run_once(csr, app, async_opts);
  EXPECT_LE(sb.supersteps.size(), sa.supersteps.size());
}

// ---- structural updates from vertex programs (§V.E) -------------------------

/// Toy app: the source adds an edge to a chosen far vertex in superstep 0;
/// from superstep 1 it floods BFS-style. If the structural update became
/// visible at superstep 1 (the §V.F contract), the far vertex hears about
/// it directly.
struct EdgeAdder {
  using Value = std::uint32_t;
  using Message = std::uint32_t;
  static constexpr bool kHasCombine = false;
  static constexpr bool kNeedsWeights = false;

  VertexId source = 0;
  VertexId target = 0;

  const char* name() const { return "edge_adder"; }
  Value initial_value(VertexId) const { return 0; }
  bool initially_active(VertexId v) const { return v == source; }

  template <typename Ctx>
  void process(Ctx& ctx, const core::MessageRange<Message>& msgs) const {
    if (ctx.superstep() == 0 && ctx.id() == source) {
      ctx.add_edge(target);
      return;  // stay active; send next superstep over the new edge set
    }
    if (ctx.superstep() == 1 && ctx.id() == source) {
      ctx.send_to_all_neighbors(1);
      ctx.deactivate();
      return;
    }
    for (const Message& m : msgs) {
      ctx.set_value(std::max(ctx.value(), m));
    }
    ctx.deactivate();
  }
};

TEST(EngineFeatures, StructuralAddEdgeDeliversMessages) {
  // A chain 0-1-2-...-99: vertex 0 adds an edge to vertex 99.
  const auto csr =
      graph::CsrGraph::from_edge_list(graph::generate_chain(100));
  Env env;
  auto opts = testing_options();
  opts.max_supersteps = 5;
  EdgeAdder app{.source = 0, .target = 99};
  auto intervals = core::partition_for_app<EdgeAdder>(csr, opts);
  graph::StoredCsrGraph stored(env.storage, "g", csr, intervals);
  core::MultiLogVCEngine<EdgeAdder> engine(stored, app, opts);
  engine.run();
  const auto values = engine.values();
  EXPECT_EQ(values[99], 1u);  // reached via the structurally added edge
  EXPECT_EQ(values[1], 1u);   // and the original neighbor too
  EXPECT_EQ(values[50], 0u);  // mid-chain never messaged
}

// ---- callbacks, degenerate graphs ------------------------------------------

TEST(EngineFeatures, CallbackStopsRun) {
  const auto csr = feature_graph();
  apps::Cdlp app;
  Env env;
  auto opts = testing_options();
  auto intervals = core::partition_for_app<apps::Cdlp>(csr, opts);
  graph::StoredCsrGraph stored(env.storage, "g", csr, intervals);
  core::MultiLogVCEngine<apps::Cdlp> engine(stored, app, opts);
  int steps = 0;
  const auto stats = engine.run_with_callback(
      [&](const core::SuperstepStats&) { return ++steps < 3; });
  EXPECT_EQ(stats.supersteps.size(), 3u);
}

TEST(EngineFeatures, SingleVertexGraph) {
  graph::EdgeList list;
  list.set_num_vertices(1);
  const auto csr = graph::CsrGraph::from_edge_list(list);
  Env env;
  auto opts = testing_options();
  graph::StoredCsrGraph stored(env.storage, "g", csr,
                               graph::VertexIntervals::uniform(1, 1));
  apps::Bfs app{.source = 0};
  core::MultiLogVCEngine<apps::Bfs> engine(stored, app, opts);
  const auto stats = engine.run();
  EXPECT_EQ(engine.values()[0], 0u);
  EXPECT_LE(stats.supersteps.size(), 2u);
}

TEST(EngineFeatures, DisconnectedComponentsStayUnreached) {
  // Two separate chains; BFS from the first must not touch the second.
  graph::EdgeList list;
  list.set_num_vertices(20);
  for (VertexId v = 0; v + 1 < 10; ++v) list.add(v, v + 1);
  for (VertexId v = 10; v + 1 < 20; ++v) list.add(v, v + 1);
  list.make_undirected();
  const auto csr = graph::CsrGraph::from_edge_list(list);
  apps::Bfs app{.source = 0};
  const auto [values, stats] = run_once(csr, app, testing_options());
  EXPECT_EQ(values[9], 9u);
  for (VertexId v = 10; v < 20; ++v) {
    EXPECT_EQ(values[v], apps::Bfs::kUnreached);
  }
}

TEST(EngineFeatures, NoInitialActivesConvergesImmediately) {
  const auto csr = feature_graph(7);
  apps::Bfs app{.source = 0};
  Env env;
  auto opts = testing_options();
  graph::StoredCsrGraph stored(
      env.storage, "g", csr,
      core::partition_for_app<apps::Bfs>(csr, opts));
  // An app whose initially_active is always false: emulate by running BFS
  // then checking the engine loop exit; here we just verify a fully
  // converged run stops early rather than burning max_supersteps.
  core::MultiLogVCEngine<apps::Bfs> engine(stored, app, opts);
  const auto stats = engine.run();
  EXPECT_LT(stats.supersteps.size(), opts.max_supersteps);
}

TEST(EngineFeatures, StatsAreInternallyConsistent) {
  const auto csr = feature_graph();
  apps::Cdlp app;
  const auto [values, stats] = run_once(csr, app, testing_options());
  ASSERT_FALSE(stats.supersteps.empty());
  // Superstep 0 activates everything.
  EXPECT_EQ(stats.supersteps[0].active_vertices, csr.num_vertices());
  EXPECT_EQ(stats.supersteps[0].messages_consumed, 0u);
  // Messages produced at s are consumed at s+1 (synchronous mode, and CDLP
  // never skips an interval).
  for (std::size_t s = 0; s + 1 < stats.supersteps.size(); ++s) {
    EXPECT_EQ(stats.supersteps[s].messages_produced,
              stats.supersteps[s + 1].messages_consumed);
  }
  EXPECT_GT(stats.total_pages_read(), 0u);
  EXPECT_GT(stats.modeled_storage_seconds(), 0.0);
}

// ---- budget sweep property test ---------------------------------------------

struct BudgetCase {
  std::size_t budget;
  std::uint64_t seed;
};

class BudgetSweep : public ::testing::TestWithParam<BudgetCase> {};

TEST_P(BudgetSweep, BfsCorrectUnderAnyBudget) {
  const auto csr = feature_graph(9, GetParam().seed);
  apps::Bfs app{.source = 2};
  auto opts = testing_options();
  opts.memory_budget_bytes = GetParam().budget;
  const auto [values, stats] = run_once(csr, app, opts);
  const auto expected = reference::bfs_distances(csr, 2);
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    ASSERT_EQ(values[v], expected[v])
        << "vertex " << v << " budget " << GetParam().budget;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Budgets, BudgetSweep,
    ::testing::Values(BudgetCase{128_KiB, 1}, BudgetCase{256_KiB, 2},
                      BudgetCase{512_KiB, 3}, BudgetCase{1_MiB, 4},
                      BudgetCase{4_MiB, 5}, BudgetCase{128_KiB, 6},
                      BudgetCase{256_KiB, 7}, BudgetCase{512_KiB, 8}));

}  // namespace
}  // namespace mlvc
