// The Graph Loader Unit (§V.B.2 of the paper).
//
// Given the ascending list of active vertices inside one vertex interval,
// fetch exactly the adjacency pages those vertices need:
//
//  * each vertex's edge range comes from the stored graph's resident row
//    offsets, so no row-pointer page is read (the paper loops over the
//    row-pointer array in buffer-sized windows; keeping the 8 B/vertex
//    offsets in memory, as FlashGraph keeps its edge-list index, saves
//    those reads at the cost of the degree array they replace);
//  * adjacency ranges of vertices that share an SSD page are merged into a
//    single read, so a page holding five active vertices' edges is fetched
//    once — this is where CSR beats shards when the active set shrinks;
//  * vertices present in the edge log (§V.C) are served from it instead of
//    the CSR — the read-amplification optimization;
//  * per-page useful-byte counts are recorded in the PageUtilTracker so the
//    edge-log optimizer can classify inefficient pages (Figures 3 and 9).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/stored_csr.hpp"
#include "multilog/edge_log.hpp"
#include "multilog/page_util.hpp"

namespace mlvc::core {

/// Adjacency data for a batch of active vertices, flattened into shared
/// buffers; spans[k] locates vertex k's slice.
struct AdjacencyBatch {
  struct Span {
    std::size_t offset = 0;
    std::size_t length = 0;
  };
  std::vector<VertexId> adjacency;
  std::vector<float> weights;       // parallel to adjacency when loaded
  std::vector<Span> spans;          // one per requested vertex
  std::vector<std::uint8_t> from_edge_log;  // one per requested vertex
  /// Utilization (useful bytes / page size) of the CSR page holding the
  /// vertex's adjacency start, as measured by this superstep's loads; -1 for
  /// edge-log hits. Input to the §V.C logging decision.
  std::vector<double> start_page_util;

  std::uint64_t edge_log_hits = 0;

  void clear() {
    adjacency.clear();
    weights.clear();
    spans.clear();
    from_edge_log.clear();
    start_page_util.clear();
    edge_log_hits = 0;
  }
};

class GraphLoaderUnit {
 public:
  struct Config {
    bool load_weights = false;
    bool use_edge_log = true;
    /// Per-query slot in a shared adjacency PageCache (multi-tenant runs).
    /// load() installs it as the calling thread's ScopedQuery for the
    /// duration, so every cached CSR read — from the compute thread or a
    /// prefetching AsyncIo thread — is attributed to (and admission-limited
    /// by) the owning query. Null for single-tenant runs. Non-owning.
    ssd::PageCache::QuerySlot* cache_slot = nullptr;
  };

  GraphLoaderUnit(graph::StoredCsrGraph& graph, multilog::EdgeLog* edge_log,
                  multilog::PageUtilTracker* util_tracker, Config config)
      : graph_(graph),
        edge_log_(edge_log),
        util_tracker_(util_tracker),
        config_(config) {}

  /// Load adjacency for `actives` (ascending, all inside interval i) into
  /// `out` (cleared first).
  void load(IntervalId interval, std::span<const VertexId> actives,
            AdjacencyBatch& out);

  /// Bytes load() would move for vertex v if served from the CSR (adjacency
  /// plus the weight column when configured). Pure arithmetic over the
  /// resident row offsets — no storage touched — which keeps it cheap
  /// enough for per-vertex batch sizing and per-interval scheduling
  /// priorities. Edge-log residency can only shrink the real cost, so this
  /// is a stable upper bound.
  std::size_t vertex_load_cost(VertexId v) const {
    return static_cast<std::size_t>(graph_.out_degree(v)) * entry_bytes();
  }

  /// Sum of vertex_load_cost over [begin, end): the range's full-fan-in
  /// load cost. The hub-degree schedule policy uses this per interval as
  /// its static priority — monotone in out-degree mass, but expressed in
  /// bytes so it shares a unit with the log-bytes policy.
  std::uint64_t range_load_cost(VertexId begin, VertexId end) const {
    std::uint64_t bytes = 0;
    for (VertexId v = begin; v < end; ++v) bytes += vertex_load_cost(v);
    return bytes;
  }

 private:
  std::size_t entry_bytes() const {
    return sizeof(VertexId) + (config_.load_weights ? sizeof(float) : 0);
  }

  void load_from_csr(IntervalId interval,
                     std::span<const VertexId> csr_vertices,
                     std::span<const std::size_t> result_slots,
                     AdjacencyBatch& out);

  graph::StoredCsrGraph& graph_;
  multilog::EdgeLog* edge_log_;
  multilog::PageUtilTracker* util_tracker_;
  Config config_;
};

}  // namespace mlvc::core
