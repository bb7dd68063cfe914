// Tests for core components: the vertex value store, the message range
// view, and the graph loader unit (page coalescing, edge-log hits,
// utilization tracking).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/graph_loader.hpp"
#include "core/message_range.hpp"
#include "core/vertex_value_store.hpp"
#include "graph/generators.hpp"

namespace mlvc::core {
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

// ---- VertexValueStore ------------------------------------------------------

TEST(VertexValueStore, InitAndAll) {
  Env env;
  VertexValueStore<std::uint32_t> store(
      env.storage, "v", 1000, [](VertexId v) { return v * 2; });
  const auto all = store.all();
  ASSERT_EQ(all.size(), 1000u);
  for (VertexId v = 0; v < 1000; ++v) EXPECT_EQ(all[v], v * 2);
}

TEST(VertexValueStore, GatherScatterRoundTrip) {
  Env env;
  VertexValueStore<float> store(
      env.storage, "v", 500, [](VertexId) { return 0.0f; });
  const std::vector<VertexId> ids = {3, 7, 100, 101, 499};
  std::vector<float> vals = {1, 2, 3, 4, 5};
  store.scatter(ids, vals);
  const auto back = store.gather(ids);
  EXPECT_EQ(back, vals);
  // Gap vertices inside a written run read Value{}.
  EXPECT_EQ(store.gather(std::vector<VertexId>{4})[0], 0.0f);
}

TEST(VertexValueStore, CoalescedGatherTouchesFewPages) {
  Env env;
  VertexValueStore<std::uint32_t> store(
      env.storage, "v", 100000, [](VertexId v) { return v; });
  const auto before = env.storage.stats().snapshot();
  // 100 vertices all on the same 4 KiB page (1024 u32 values per page).
  std::vector<VertexId> ids;
  for (VertexId v = 0; v < 100; ++v) ids.push_back(v);
  store.gather(ids);
  const auto diff = env.storage.stats().snapshot() - before;
  EXPECT_EQ(diff[ssd::IoCategory::kVertexValue].pages_read, 1u);

  // 10 vertices far apart cost one page each.
  const auto before2 = env.storage.stats().snapshot();
  ids.clear();
  for (VertexId v = 0; v < 10; ++v) ids.push_back(v * 10000);
  store.gather(ids);
  const auto diff2 = env.storage.stats().snapshot() - before2;
  EXPECT_EQ(diff2[ssd::IoCategory::kVertexValue].pages_read, 10u);
}

TEST(VertexValueStore, WriteBackWritesDirtyRunsWithoutReading) {
  Env env;
  VertexValueStore<std::uint64_t> store(
      env.storage, "v", 100000, [](VertexId v) { return v; });
  // 512 values per 4 KiB page: 10, 20 and 700 coalesce into one run over
  // pages 0-1; 90000 is a run of its own.
  const std::vector<VertexId> ids = {10, 20, 700, 90000};
  const auto before = env.storage.stats().snapshot();
  auto spans = store.gather_spans(ids);
  const auto gathered =
      (env.storage.stats().snapshot() - before)[ssd::IoCategory::kVertexValue];

  // An all-clean batch writes nothing.
  store.write_back(ids, spans, std::vector<std::uint8_t>(ids.size(), 0));
  auto diff =
      (env.storage.stats().snapshot() - before)[ssd::IoCategory::kVertexValue];
  EXPECT_EQ(diff.bytes_written, 0u);

  spans[0] = 111;
  spans[2] = 777;
  store.write_back(ids, spans, std::vector<std::uint8_t>{1, 0, 1, 0});
  diff =
      (env.storage.stats().snapshot() - before)[ssd::IoCategory::kVertexValue];
  EXPECT_EQ(diff.bytes_read, gathered.bytes_read);  // no re-read
  EXPECT_EQ(diff.bytes_written, (700 - 10 + 1) * sizeof(std::uint64_t));

  const auto all = store.all();
  EXPECT_EQ(all[10], 111u);
  EXPECT_EQ(all[700], 777u);
  for (VertexId v = 11; v < 700; ++v) {
    ASSERT_EQ(all[v], v) << "gap vertex " << v;  // written back unchanged
  }
  EXPECT_EQ(all[90000], 90000u);
}

TEST(VertexValueStore, RangeAccess) {
  Env env;
  VertexValueStore<std::uint32_t> store(
      env.storage, "v", 100, [](VertexId v) { return v; });
  auto range = store.load_range(10, 20);
  ASSERT_EQ(range.size(), 10u);
  EXPECT_EQ(range[0], 10u);
  for (auto& x : range) x += 1000;
  store.store_range(10, range);
  EXPECT_EQ(store.load_range(10, 11)[0], 1010u);
}

// ---- MessageRange ----------------------------------------------------------

TEST(MessageRange, FromArray) {
  const std::vector<int> msgs = {1, 2, 3};
  const auto range = MessageRange<int>::from_array(msgs);
  EXPECT_EQ(range.size(), 3u);
  EXPECT_EQ(range[1], 2);
  int sum = 0;
  for (int m : range) sum += m;
  EXPECT_EQ(sum, 6);
}

TEST(MessageRange, FromRecordsStridesCorrectly) {
  std::vector<multilog::Record<std::uint64_t>> records = {
      {10, 111}, {10, 222}, {10, 333}};
  const auto range = MessageRange<std::uint64_t>::from_records(
      std::span<const multilog::Record<std::uint64_t>>(records));
  ASSERT_EQ(range.size(), 3u);
  EXPECT_EQ(range[0], 111u);
  EXPECT_EQ(range[2], 333u);
  std::uint64_t sum = 0;
  for (const auto& m : range) sum += m;
  EXPECT_EQ(sum, 666u);
}

TEST(MessageRange, EmptyIsSafe) {
  const MessageRange<int> range;
  EXPECT_TRUE(range.empty());
  for (int m : range) {
    (void)m;
    FAIL() << "empty range iterated";
  }
}

// ---- GraphLoaderUnit -------------------------------------------------------

graph::CsrGraph loader_graph() {
  graph::RmatParams p;
  p.scale = 9;
  p.edge_factor = 6;
  p.seed = 14;
  return graph::CsrGraph::from_edge_list(graph::generate_rmat(p));
}

TEST(GraphLoader, LoadsCorrectAdjacency) {
  Env env;
  const auto csr = loader_graph();
  graph::StoredCsrGraph stored(
      env.storage, "g", csr,
      graph::VertexIntervals::uniform(csr.num_vertices(), 100));
  GraphLoaderUnit loader(stored, nullptr, nullptr, {});

  const IntervalId i = 2;
  std::vector<VertexId> actives;
  for (VertexId v = stored.intervals().begin(i);
       v < stored.intervals().end(i); v += 7) {
    actives.push_back(v);
  }
  AdjacencyBatch batch;
  loader.load(i, actives, batch);
  ASSERT_EQ(batch.spans.size(), actives.size());
  for (std::size_t k = 0; k < actives.size(); ++k) {
    const auto expected = csr.neighbors(actives[k]);
    ASSERT_EQ(batch.spans[k].length, expected.size()) << actives[k];
    for (std::size_t j = 0; j < expected.size(); ++j) {
      EXPECT_EQ(batch.adjacency[batch.spans[k].offset + j], expected[j]);
    }
  }
}

TEST(GraphLoader, SharedPageIsReadOnce) {
  Env env;
  // A chain has degree <= 2; hundreds of consecutive vertices share a page.
  const auto csr =
      graph::CsrGraph::from_edge_list(graph::generate_chain(2000));
  graph::StoredCsrGraph stored(
      env.storage, "g", csr,
      graph::VertexIntervals::uniform(csr.num_vertices(), 2000));
  GraphLoaderUnit loader(stored, nullptr, nullptr, {});

  // 50 consecutive vertices: ~100 edges x 4 B on one page.
  std::vector<VertexId> actives;
  for (VertexId v = 100; v < 150; ++v) actives.push_back(v);
  const auto before = env.storage.stats().snapshot();
  AdjacencyBatch batch;
  loader.load(0, actives, batch);
  const auto diff = env.storage.stats().snapshot() - before;
  EXPECT_LE(diff[ssd::IoCategory::kCsrColIdx].pages_read, 2u);
}

TEST(GraphLoader, EdgeLogHitsBypassCsr) {
  Env env;
  const auto csr = loader_graph();
  graph::StoredCsrGraph stored(
      env.storage, "g", csr,
      graph::VertexIntervals::uniform(csr.num_vertices(), 100));
  multilog::EdgeLog edge_log(env.storage, "el", {});

  const VertexId v = 5;
  const auto nbrs = csr.neighbors(v);
  edge_log.log_edges(v, nbrs);
  edge_log.swap_generations();

  GraphLoaderUnit loader(stored, &edge_log, nullptr, {.use_edge_log = true});
  const auto before = env.storage.stats().snapshot();
  AdjacencyBatch batch;
  loader.load(0, std::vector<VertexId>{v}, batch);
  const auto diff = env.storage.stats().snapshot() - before;
  EXPECT_EQ(batch.edge_log_hits, 1u);
  EXPECT_EQ(batch.from_edge_log[0], 1);
  EXPECT_EQ(diff[ssd::IoCategory::kCsrColIdx].pages_read, 0u);
  ASSERT_EQ(batch.spans[0].length, nbrs.size());
  for (std::size_t j = 0; j < nbrs.size(); ++j) {
    EXPECT_EQ(batch.adjacency[batch.spans[0].offset + j], nbrs[j]);
  }
}

TEST(GraphLoader, TracksPageUtilization) {
  Env env;
  const auto csr = loader_graph();
  graph::StoredCsrGraph stored(
      env.storage, "g", csr,
      graph::VertexIntervals::uniform(csr.num_vertices(), 100));
  multilog::PageUtilTracker tracker(env.storage.page_size());
  GraphLoaderUnit loader(stored, nullptr, &tracker, {});

  // Load one low-degree vertex: its page should register as inefficient.
  VertexId low = 0;
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    if (csr.out_degree(v) >= 1 && csr.out_degree(v) <= 3) {
      low = v;
      break;
    }
  }
  const IntervalId i = stored.intervals().interval_of(low);
  AdjacencyBatch batch;
  loader.load(i, std::vector<VertexId>{low}, batch);
  EXPECT_GE(batch.start_page_util[0], 0.0);
  EXPECT_LT(batch.start_page_util[0], 0.10);
  const auto summary = tracker.finish_superstep();
  EXPECT_EQ(summary.pages_touched, 1u);
  EXPECT_EQ(summary.pages_inefficient, 1u);
}

TEST(GraphLoader, StructuralOverlayApplied) {
  Env env;
  const auto csr = loader_graph();
  graph::StoredCsrGraph stored(
      env.storage, "g", csr,
      graph::VertexIntervals::uniform(csr.num_vertices(), 100));
  GraphLoaderUnit loader(stored, nullptr, nullptr, {});

  const VertexId v = 7;
  VertexId extra = csr.num_vertices() - 1;
  const auto nbrs = csr.neighbors(v);
  while (std::find(nbrs.begin(), nbrs.end(), extra) != nbrs.end()) --extra;
  stored.buffer_update(
      {graph::StructuralUpdate::Kind::kAddEdge, v, extra, 1.0f});

  AdjacencyBatch batch;
  loader.load(stored.intervals().interval_of(v), std::vector<VertexId>{v},
              batch);
  EXPECT_EQ(batch.spans[0].length, nbrs.size() + 1);
  bool found = false;
  for (std::size_t j = 0; j < batch.spans[0].length; ++j) {
    if (batch.adjacency[batch.spans[0].offset + j] == extra) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(GraphLoader, EmptyActivesNoop) {
  Env env;
  const auto csr = loader_graph();
  graph::StoredCsrGraph stored(
      env.storage, "g", csr,
      graph::VertexIntervals::uniform(csr.num_vertices(), 100));
  GraphLoaderUnit loader(stored, nullptr, nullptr, {});
  AdjacencyBatch batch;
  loader.load(0, {}, batch);
  EXPECT_TRUE(batch.spans.empty());
}

TEST(GraphLoader, ZeroDegreeVertex) {
  Env env;
  graph::EdgeList list;
  list.set_num_vertices(10);
  list.add(0, 1);
  const auto csr = graph::CsrGraph::from_edge_list(list);
  graph::StoredCsrGraph stored(env.storage, "g", csr,
                               graph::VertexIntervals::uniform(10, 10));
  GraphLoaderUnit loader(stored, nullptr, nullptr, {});
  AdjacencyBatch batch;
  loader.load(0, std::vector<VertexId>{5}, batch);
  EXPECT_EQ(batch.spans[0].length, 0u);
}

}  // namespace
}  // namespace mlvc::core
