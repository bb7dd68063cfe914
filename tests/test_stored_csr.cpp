// Tests for the on-storage partitioned CSR: construction (in-memory and
// streaming), page-accounted reads, structural updates (§V.E), and the
// external out-of-core builder.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "graph/external_builder.hpp"
#include "graph/generators.hpp"
#include "graph/stored_csr.hpp"

namespace mlvc::graph {
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

CsrGraph sample_graph(unsigned scale = 8, std::uint64_t seed = 4) {
  RmatParams p;
  p.scale = scale;
  p.edge_factor = 6;
  p.seed = seed;
  return CsrGraph::from_edge_list(generate_rmat(p));
}

/// Read back the full adjacency of a stored graph and compare to the CSR.
void expect_equals(const StoredCsrGraph& stored, const CsrGraph& csr) {
  ASSERT_EQ(stored.num_vertices(), csr.num_vertices());
  ASSERT_EQ(stored.num_edges(), csr.num_edges());
  const auto& iv = stored.intervals();
  for (IntervalId i = 0; i < iv.count(); ++i) {
    const VertexId width = iv.width(i);
    std::vector<EdgeIndex> rowptr(width + 1);
    stored.read_local_row_ptrs(i, 0, width + 1, rowptr);
    std::vector<VertexId> colidx(rowptr.back());
    stored.read_adjacency(i, 0, rowptr.back(), colidx);
    for (VertexId lv = 0; lv < width; ++lv) {
      const VertexId v = iv.begin(i) + lv;
      const auto expected = csr.neighbors(v);
      ASSERT_EQ(rowptr[lv + 1] - rowptr[lv], expected.size())
          << "degree of " << v;
      for (std::size_t k = 0; k < expected.size(); ++k) {
        EXPECT_EQ(colidx[rowptr[lv] + k], expected[k]);
      }
      EXPECT_EQ(stored.out_degree(v), expected.size());
      EXPECT_EQ(stored.local_edge_range(i, v),
                std::make_pair(rowptr[lv], rowptr[lv + 1]));
    }
  }
}

/// The resident row offsets agree with every stored rowptr entry.
void expect_offsets_match_rowptr(const StoredCsrGraph& stored) {
  const auto& iv = stored.intervals();
  for (IntervalId i = 0; i < iv.count(); ++i) {
    std::vector<EdgeIndex> rowptr(iv.width(i) + 1);
    stored.read_local_row_ptrs(i, 0, rowptr.size(), rowptr);
    for (VertexId lv = 0; lv < iv.width(i); ++lv) {
      ASSERT_EQ(stored.local_edge_range(i, iv.begin(i) + lv),
                std::make_pair(rowptr[lv], rowptr[lv + 1]))
          << "interval " << i << " local vertex " << lv;
    }
  }
}

TEST(StoredCsr, MatchesInMemoryCsr) {
  Env env;
  const auto csr = sample_graph();
  auto iv = VertexIntervals::uniform(csr.num_vertices(), 37);
  StoredCsrGraph stored(env.storage, "g", csr, iv);
  expect_equals(stored, csr);
}

TEST(StoredCsr, ResidentOffsetsTrackTransposeMergeAndReopen) {
  Env env;
  const auto csr = sample_graph();
  StoredCsrGraph stored(env.storage, "g", csr,
                        VertexIntervals::uniform(csr.num_vertices(), 37));
  expect_offsets_match_rowptr(stored.transpose());

  // Shrink one interval and grow a later one: every later row shifts.
  VertexId v = 0;
  while (csr.out_degree(v) == 0) ++v;
  stored.buffer_update(
      {StructuralUpdate::Kind::kRemoveEdge, v, csr.neighbors(v)[0], 0});
  const VertexId u = csr.num_vertices() - 1;
  const auto nbrs = csr.neighbors(u);
  for (VertexId dst = 0, added = 0; added < 3; ++dst) {
    if (std::find(nbrs.begin(), nbrs.end(), dst) != nbrs.end()) continue;
    stored.buffer_update({StructuralUpdate::Kind::kAddEdge, u, dst, 1.0f});
    ++added;
  }
  const auto& iv = stored.intervals();
  for (IntervalId i = 0; i < iv.count(); ++i) {
    stored.merge_interval(i);
    stored.transpose().merge_interval(i);
  }
  EXPECT_EQ(stored.out_degree(v), csr.out_degree(v) - 1);
  EXPECT_EQ(stored.out_degree(u), csr.out_degree(u) + 3);
  expect_offsets_match_rowptr(stored);
  expect_offsets_match_rowptr(stored.transpose());

  const auto reopened = StoredCsrGraph::open(env.storage, "g");
  expect_offsets_match_rowptr(*reopened);
  expect_offsets_match_rowptr(reopened->transpose());
  EXPECT_EQ(reopened->out_degree(u), stored.out_degree(u));
}

TEST(StoredCsr, WeightsRoundTrip) {
  Env env;
  EdgeList list;
  list.set_num_vertices(3);
  list.add(0, 1, 1.5f);
  list.add(0, 2, 2.5f);
  list.add(1, 2, 3.5f);
  const auto csr = CsrGraph::from_edge_list(list);
  StoredCsrGraph stored(env.storage, "g", csr,
                        VertexIntervals::uniform(3, 2),
                        {.with_weights = true});
  std::vector<float> w(2);
  stored.read_values(0, 0, 2, w);
  EXPECT_FLOAT_EQ(w[0], 1.5f);
  EXPECT_FLOAT_EQ(w[1], 2.5f);
}

TEST(StoredCsr, ReadsAreChargedToCsrCategories) {
  Env env;
  const auto csr = sample_graph();
  StoredCsrGraph stored(env.storage, "g", csr,
                        VertexIntervals::uniform(csr.num_vertices(), 64));
  const auto before = env.storage.stats().snapshot();
  std::vector<EdgeIndex> rowptr(2);
  stored.read_local_row_ptrs(0, 0, 2, rowptr);
  std::vector<VertexId> adj(rowptr[1] - rowptr[0]);
  stored.read_adjacency(0, rowptr[0], rowptr[1], adj);
  const auto diff = env.storage.stats().snapshot() - before;
  EXPECT_GE(diff[ssd::IoCategory::kCsrRowPtr].pages_read, 1u);
  if (!adj.empty()) {
    EXPECT_GE(diff[ssd::IoCategory::kCsrColIdx].pages_read, 1u);
  }
  EXPECT_EQ(diff[ssd::IoCategory::kShard].pages_read, 0u);
}

// ---- adjacency page cache ---------------------------------------------------

TEST(StoredCsrCache, CachedReadsMatchUncachedAndCountHits) {
  Env env;
  const auto csr = sample_graph();
  const auto iv = VertexIntervals::uniform(csr.num_vertices(), 37);
  StoredCsrGraph plain(env.storage, "p", csr, iv);
  StoredCsrGraph cached(env.storage, "c", csr, iv);
  cached.set_adjacency_cache(1_MiB);
  EXPECT_TRUE(cached.adjacency_cache_enabled());
  expect_equals(cached, csr);  // first pass: all misses, data still correct
  expect_equals(cached, csr);  // second pass: served from the cache
  expect_equals(plain, csr);

  const auto snap = env.storage.stats().snapshot();
  EXPECT_GT(snap.cache_hit_pages, 0u);
  EXPECT_GT(snap.cache_miss_pages, 0u);
}

TEST(StoredCsrCache, RepeatReadCostsNoStoragePages) {
  Env env;
  const auto csr = sample_graph();
  StoredCsrGraph stored(env.storage, "g", csr,
                        VertexIntervals::uniform(csr.num_vertices(), 8));
  stored.set_adjacency_cache(4_MiB);  // big enough to hold every colidx page
  std::vector<EdgeIndex> rowptr(2);
  stored.read_local_row_ptrs(0, 0, 2, rowptr);
  ASSERT_GT(rowptr[1], rowptr[0]);
  std::vector<VertexId> adj(rowptr[1] - rowptr[0]);
  stored.read_adjacency(0, rowptr[0], rowptr[1], adj);  // warm the cache

  const auto before = env.storage.stats().snapshot();
  std::vector<VertexId> again(adj.size());
  stored.read_adjacency(0, rowptr[0], rowptr[1], again);
  const auto diff = env.storage.stats().snapshot() - before;
  EXPECT_EQ(again, adj);
  EXPECT_EQ(diff[ssd::IoCategory::kCsrColIdx].pages_read, 0u);
  EXPECT_GT(diff.cache_hit_pages, 0u);
  EXPECT_EQ(diff.cache_miss_pages, 0u);
}

TEST(StoredCsrCache, MergeInvalidatesCachedAdjacency) {
  Env env;
  const auto csr = sample_graph(6);
  StoredCsrGraph stored(env.storage, "g", csr,
                        VertexIntervals::uniform(csr.num_vertices(), 16));
  stored.set_adjacency_cache(1_MiB);
  VertexId v = 0;
  while (csr.out_degree(v) == 0) ++v;
  const IntervalId i = stored.intervals().interval_of(v);
  const VertexId lv = v - stored.intervals().begin(i);
  std::vector<EdgeIndex> rowptr(stored.intervals().width(i) + 1);
  stored.read_local_row_ptrs(i, 0, rowptr.size(), rowptr);
  std::vector<VertexId> adj(rowptr[lv + 1] - rowptr[lv]);
  stored.read_adjacency(i, rowptr[lv], rowptr[lv + 1], adj);  // cache it

  VertexId extra = csr.num_vertices() - 1;
  const auto nbrs = csr.neighbors(v);
  while (std::find(nbrs.begin(), nbrs.end(), extra) != nbrs.end()) --extra;
  stored.buffer_update({StructuralUpdate::Kind::kAddEdge, v, extra, 1.0f});
  stored.merge_interval(i);

  // A stale cache would serve the pre-merge pages here.
  stored.read_local_row_ptrs(i, 0, rowptr.size(), rowptr);
  std::vector<VertexId> merged(rowptr[lv + 1] - rowptr[lv]);
  stored.read_adjacency(i, rowptr[lv], rowptr[lv + 1], merged);
  EXPECT_EQ(merged.size(), adj.size() + 1);
  EXPECT_NE(std::find(merged.begin(), merged.end(), extra), merged.end());
}

// ---- structural updates (§V.E) ---------------------------------------------

TEST(StoredCsrStructural, BufferedAddVisibleViaOverlay) {
  Env env;
  const auto csr = sample_graph(6);
  StoredCsrGraph stored(env.storage, "g", csr,
                        VertexIntervals::uniform(csr.num_vertices(), 16));
  const VertexId v = 5;
  std::vector<VertexId> adjacency(csr.neighbors(v).begin(),
                                  csr.neighbors(v).end());
  // Pick a destination not already a neighbor.
  VertexId extra = 0;
  while (std::find(adjacency.begin(), adjacency.end(), extra) !=
         adjacency.end()) {
    ++extra;
  }
  stored.buffer_update({StructuralUpdate::Kind::kAddEdge, v, extra, 1.0f});
  EXPECT_EQ(stored.pending_update_count(stored.intervals().interval_of(v)), 1u);

  stored.overlay_pending(v, adjacency, nullptr);
  EXPECT_NE(std::find(adjacency.begin(), adjacency.end(), extra),
            adjacency.end());
}

TEST(StoredCsrStructural, MergeRewritesInterval) {
  Env env;
  const auto csr = sample_graph(6);
  StoredCsrGraph stored(env.storage, "g", csr,
                        VertexIntervals::uniform(csr.num_vertices(), 16));
  const VertexId v = 3;
  const EdgeIndex degree_before = stored.out_degree(v);
  VertexId extra = csr.num_vertices() - 1;
  const auto nbrs = csr.neighbors(v);
  while (std::find(nbrs.begin(), nbrs.end(), extra) != nbrs.end()) --extra;

  stored.buffer_update({StructuralUpdate::Kind::kAddEdge, v, extra, 1.0f});
  const IntervalId i = stored.intervals().interval_of(v);
  stored.merge_interval(i);
  EXPECT_EQ(stored.pending_update_count(i), 0u);
  EXPECT_EQ(stored.out_degree(v), degree_before + 1);

  // The stored adjacency now contains the new edge.
  const VertexId lv = v - stored.intervals().begin(i);
  std::vector<EdgeIndex> rowptr(stored.intervals().width(i) + 1);
  stored.read_local_row_ptrs(i, 0, rowptr.size(), rowptr);
  std::vector<VertexId> adj(rowptr[lv + 1] - rowptr[lv]);
  stored.read_adjacency(i, rowptr[lv], rowptr[lv + 1], adj);
  EXPECT_NE(std::find(adj.begin(), adj.end(), extra), adj.end());
}

TEST(StoredCsrStructural, RemoveEdge) {
  Env env;
  const auto csr = sample_graph(6);
  StoredCsrGraph stored(env.storage, "g", csr,
                        VertexIntervals::uniform(csr.num_vertices(), 16));
  // Find a vertex with at least one neighbor.
  VertexId v = 0;
  while (csr.out_degree(v) == 0) ++v;
  const VertexId victim = csr.neighbors(v)[0];
  const EdgeIndex degree_before = stored.out_degree(v);
  stored.buffer_update({StructuralUpdate::Kind::kRemoveEdge, v, victim, 0});
  const IntervalId i = stored.intervals().interval_of(v);
  stored.merge_interval(i);
  EXPECT_EQ(stored.out_degree(v), degree_before - 1);
  EXPECT_EQ(stored.num_edges(), csr.num_edges() - 1);
}

TEST(StoredCsrStructural, AutoMergeAtThreshold) {
  Env env;
  const auto csr = sample_graph(6);
  StoredCsrGraph stored(env.storage, "g", csr,
                        VertexIntervals::uniform(csr.num_vertices(), 64),
                        {.with_weights = false, .merge_threshold = 4});
  const IntervalId i = 0;
  const VertexId v = stored.intervals().begin(i);
  // Queue 4 distinct adds: the 4th triggers the merge.
  int added = 0;
  for (VertexId dst = 0; dst < csr.num_vertices() && added < 4; ++dst) {
    const auto nbrs = csr.neighbors(v);
    if (dst != v &&
        std::find(nbrs.begin(), nbrs.end(), dst) == nbrs.end()) {
      stored.buffer_update({StructuralUpdate::Kind::kAddEdge, v, dst, 1.0f});
      ++added;
    }
  }
  EXPECT_EQ(stored.pending_update_count(i), 0u);  // merged automatically
  EXPECT_EQ(stored.out_degree(v), csr.out_degree(v) + 4);
}

TEST(StoredCsrStructural, DuplicateAddIsIdempotent) {
  Env env;
  const auto csr = sample_graph(6);
  StoredCsrGraph stored(env.storage, "g", csr,
                        VertexIntervals::uniform(csr.num_vertices(), 64));
  VertexId v = 0;
  while (csr.out_degree(v) == 0) ++v;
  const VertexId existing = csr.neighbors(v)[0];
  stored.buffer_update({StructuralUpdate::Kind::kAddEdge, v, existing, 1.0f});
  stored.merge_interval(stored.intervals().interval_of(v));
  EXPECT_EQ(stored.out_degree(v), csr.out_degree(v));
}

// ---- streaming constructor + external builder ------------------------------

TEST(ExternalBuilder, MatchesInMemoryBuildAcrossSpills) {
  Env env;
  const auto csr = sample_graph(9, 6);

  ExternalCsrBuilder::Options opts;
  opts.memory_budget_bytes = 64_KiB;  // forces many runs
  ExternalCsrBuilder builder(env.storage, "ext", csr.num_vertices(), opts);
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    for (VertexId u : csr.neighbors(v)) builder.add_edge(v, u);
  }
  auto stored = builder.finish(8, 64_KiB);
  expect_equals(*stored, csr);
}

TEST(ExternalBuilder, UndirectedIngestMirrors) {
  Env env;
  ExternalCsrBuilder::Options opts;
  opts.make_undirected = true;
  ExternalCsrBuilder builder(env.storage, "ext", 4, opts);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  auto stored = builder.finish(8, 64_KiB);
  EXPECT_EQ(stored->num_edges(), 4u);
  EXPECT_EQ(stored->out_degree(1), 2u);
}

TEST(ExternalBuilder, DropsSelfLoopsAndDuplicates) {
  Env env;
  ExternalCsrBuilder builder(env.storage, "ext", 4, {});
  builder.add_edge(0, 1);
  builder.add_edge(0, 1);
  builder.add_edge(2, 2);
  auto stored = builder.finish(8, 64_KiB);
  EXPECT_EQ(stored->num_edges(), 1u);
}

TEST(ExternalBuilder, RejectsOutOfRangeEdges) {
  Env env;
  ExternalCsrBuilder builder(env.storage, "ext", 4, {});
  EXPECT_THROW(builder.add_edge(0, 10), Error);
}

TEST(ExternalBuilder, WeightsSurvive) {
  Env env;
  ExternalCsrBuilder::Options opts;
  opts.with_weights = true;
  ExternalCsrBuilder builder(env.storage, "ext", 3, opts);
  builder.add_edge(0, 1, 9.5f);
  auto stored = builder.finish(8, 64_KiB);
  std::vector<float> w(1);
  stored->read_values(stored->intervals().interval_of(0), 0, 1, w);
  EXPECT_FLOAT_EQ(w[0], 9.5f);
}

/// Property: external build equals in-memory build for random graphs.
class ExternalBuilderProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExternalBuilderProperty, EquivalentToInMemory) {
  Env env;
  SplitMix64 rng(GetParam());
  const VertexId n = 100 + static_cast<VertexId>(rng.next_below(400));
  EdgeList list;
  list.set_num_vertices(n);
  const std::size_t m = 500 + rng.next_below(5000);
  for (std::size_t e = 0; e < m; ++e) {
    list.add(static_cast<VertexId>(rng.next_below(n)),
             static_cast<VertexId>(rng.next_below(n)));
  }
  list.set_num_vertices(n);
  list.normalize();
  const auto csr = CsrGraph::from_edge_list(list);

  ExternalCsrBuilder::Options opts;
  opts.memory_budget_bytes = 64_KiB;
  ExternalCsrBuilder builder(env.storage, "ext", n, opts);
  // Feed edges in a scrambled order to exercise the external sort.
  auto edges = std::vector<Edge>(list.edges().begin(), list.edges().end());
  std::shuffle(edges.begin(), edges.end(), rng);
  for (const Edge& e : edges) builder.add_edge(e.src, e.dst);
  auto stored = builder.finish(8, 32_KiB);
  expect_equals(*stored, csr);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExternalBuilderProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace mlvc::graph
