// CSR graph resident on (simulated) flash storage, partitioned by vertex
// interval.
//
// §V.E of the paper: "we partition the CSR format graph based on the vertex
// intervals. Each vertex interval's graph data is stored separately in the
// CSR format" so that structural updates only rewrite one interval's
// vectors, and batched updates amortize even that.
//
// Layout per interval i (all page-accounted blobs in ssd::Storage):
//   csr/<i>/rowptr      : (width(i) + 1) x EdgeIndex — local offsets into
//                         colidx
//   csr/<i>/colidx      : local_edge_count x VertexId (v1), or
//                         delta+varint blocks of kCsrBlockEdges edges (v2)
//   csr/<i>/colidx.skip : (blocks + 1) x u64 byte offsets      (v2 only)
//   csr/<i>/val         : local_edge_count x float  (only with_weights)
//
// Resident in host memory: the graph-wide row offsets (8 B per vertex, the
// rowptr blobs concatenated and rebased) and, under v2, the skip index
// (8 B per block). Adjacency reads therefore touch only colidx/val pages;
// the rowptr blobs are read at open(), by structural merges, and by tools
// and baselines that stream whole intervals.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "graph/intervals.hpp"
#include "ssd/page_cache.hpp"
#include "ssd/storage.hpp"

namespace mlvc::graph {

/// A buffered add-edge / remove-edge mutation (§V.E).
struct StructuralUpdate {
  enum class Kind : std::uint8_t { kAddEdge, kRemoveEdge };
  Kind kind = Kind::kAddEdge;
  VertexId src = 0;
  VertexId dst = 0;
  float weight = 1.0f;
};

/// Construction options for StoredCsrGraph (namespace-scope so it can be
/// used as a default argument; nested types with member initializers cannot).
struct StoredCsrOptions {
  bool with_weights = false;
  /// Buffered structural updates per interval before an automatic merge
  /// into the interval's CSR vectors.
  std::size_t merge_threshold = 4096;
  /// On-disk adjacency layout. kV1 = raw u32 colidx (element-addressable).
  /// kV2 = delta+zigzag+varint blocks of kCsrBlockEdges edges with a
  /// resident skip index (colidx.skip blob); reads decode transparently.
  /// rowptr and val stay fixed-width in both formats.
  OnDiskFormat format = OnDiskFormat::kV2;
  /// Also store the transposed (in-edge) CSR as a sibling graph under
  /// `<prefix>/t` — same interval boundaries, same on-disk format, no
  /// weights. The engine's pull direction (DESIGN.md §4e) streams it to
  /// gather messages without log writes; stores built without it simply run
  /// push-only. The streaming constructor ignores this flag (a transpose
  /// cannot be built from one sorted forward pass); use mlvc_convert to add
  /// one later.
  bool with_transpose = true;
};

/// Edges per compressed adjacency block (v2). Each block is independently
/// decodable (first id absolute, rest zigzag'd deltas), so a random
/// adjacency-batch read touches only the blocks its span overlaps; the
/// resident skip index costs 8 bytes per block (~1 MiB per GiB of v1
/// colidx).
inline constexpr EdgeIndex kCsrBlockEdges = 2048;

class StoredCsrGraph {
 public:
  using Options = StoredCsrOptions;

  /// Materialize `csr` onto `storage` under `name_prefix`, partitioned by
  /// `intervals`.
  StoredCsrGraph(ssd::Storage& storage, std::string name_prefix,
                 const CsrGraph& csr, VertexIntervals intervals,
                 Options options = Options());

  /// Streaming construction for graphs too big to hold in memory: consume
  /// edges in nondecreasing (src, dst) order from `next_edge` (returning
  /// false when exhausted) and write interval blobs in bounded-size chunks.
  /// Used by ExternalCsrBuilder.
  StoredCsrGraph(ssd::Storage& storage, std::string name_prefix,
                 VertexIntervals intervals,
                 const std::function<bool(Edge&)>& next_edge,
                 Options options = Options());

  /// Re-open a graph previously materialized under `name_prefix` on
  /// `storage` (same process or a fresh one over the same directory). The
  /// format, weights flag, interval boundaries, and per-interval edge
  /// counts come from the versioned csr/meta blob, so a v2 binary opens v1
  /// graphs (and vice versa) transparently. Throws mlvc::Error on a
  /// missing/corrupt header.
  static std::unique_ptr<StoredCsrGraph> open(ssd::Storage& storage,
                                              std::string name_prefix);

  VertexId num_vertices() const noexcept { return intervals_.num_vertices(); }
  EdgeIndex num_edges() const noexcept { return num_edges_; }
  const VertexIntervals& intervals() const noexcept { return intervals_; }
  bool has_weights() const noexcept { return options_.with_weights; }
  OnDiskFormat format() const noexcept { return options_.format; }
  ssd::Storage& storage() noexcept { return storage_; }

  /// Out-degree of v, from the resident row offsets (no storage touched).
  EdgeIndex out_degree(VertexId v) const {
    MLVC_CHECK(v < num_vertices());
    return row_offsets_[v + 1] - row_offsets_[v];
  }

  /// Vertex v's out-edges as interval-local colidx indices [lo, hi) of
  /// interval i, which must contain v: the pair its rowptr blob holds at
  /// v's local index, served from host memory.
  std::pair<EdgeIndex, EdgeIndex> local_edge_range(IntervalId i,
                                                   VertexId v) const {
    MLVC_CHECK(v >= intervals_.begin(i) && v < intervals_.end(i));
    const EdgeIndex base = row_offsets_[intervals_.begin(i)];
    return {row_offsets_[v] - base, row_offsets_[v + 1] - base};
  }

  // ---- page-accounted reads ----------------------------------------------

  /// Read local row-pointer entries [local_begin, local_begin + count) of
  /// interval i. Entry k is the colidx offset of local vertex k; callers
  /// read count = width + 1 to get the closing offset.
  void read_local_row_ptrs(IntervalId i, VertexId local_begin,
                           std::size_t count, std::span<EdgeIndex> out) const;

  /// Read colidx entries [lo, hi) of interval i.
  void read_adjacency(IntervalId i, EdgeIndex lo, EdgeIndex hi,
                      std::span<VertexId> out) const;

  /// Read edge values [lo, hi) of interval i (graph must have weights).
  void read_values(IntervalId i, EdgeIndex lo, EdgeIndex hi,
                   std::span<float> out) const;

  /// One element range [lo, hi) of a per-interval vector, destined for
  /// `out[0 .. hi-lo)`. Used by the vectored read paths below.
  struct ElemRange {
    EdgeIndex lo = 0;
    EdgeIndex hi = 0;
    void* out = nullptr;
  };

  /// Vectored forms: every range in one Blob::read_multi call, so a batch of
  /// coalesced page windows costs one kernel round trip. Ranges index
  /// VertexId entries for adjacency, float entries for values. Under v2 the
  /// compressed blocks the ranges touch are merged into disjoint extents
  /// first, so a block shared by several ranges is read (or, cached, looked
  /// up) once; ranges may overlap, abut or be empty.
  void read_adjacency_multi(IntervalId i,
                            std::span<const ElemRange> ranges) const;
  void read_values_multi(IntervalId i,
                         std::span<const ElemRange> ranges) const;

  EdgeIndex interval_edge_count(IntervalId i) const {
    MLVC_CHECK(i < intervals_.count());
    return interval_edges_[i];
  }

  /// Route adjacency (colidx) reads through a host-side CLOCK page cache of
  /// `capacity_bytes` (0 disables). Cached hits cost no storage pages — they
  /// are counted as cache_hit_pages in IoStats instead. The cache is
  /// invalidated whenever an interval's CSR vectors are rewritten
  /// (structural-update merges), so readers always see current data.
  void set_adjacency_cache(std::size_t capacity_bytes);

  /// Install an externally owned (shared) cache instead: the multi-tenant
  /// path, where one RuntimeContext-level cache backs every query over this
  /// graph and per-query attribution/admission runs through
  /// ssd::PageCache::QuerySlot. Pass nullptr to disable caching.
  void set_adjacency_cache(std::shared_ptr<ssd::PageCache> cache);

  bool adjacency_cache_enabled() const noexcept {
    return adjacency_cache_ != nullptr;
  }
  /// The installed adjacency cache (nullptr when disabled).
  ssd::PageCache* adjacency_cache() const noexcept {
    return adjacency_cache_.get();
  }

  const ssd::Blob& colidx_blob(IntervalId i) const;
  const ssd::Blob& rowptr_blob(IntervalId i) const;

  // ---- transposed (in-edge) CSR ------------------------------------------

  /// Whether a transpose sibling is stored/attached. open() auto-attaches
  /// one when `<prefix>/t/csr/meta` exists, so v1-era stores (no transpose)
  /// keep opening fine and report false here.
  bool has_transpose() const noexcept { return transpose_ != nullptr; }

  /// The transposed graph: vertex v's "out-edges" there are v's in-neighbors
  /// here, ascending. Shares this graph's interval boundaries, so interval i
  /// of the transpose is exactly the in-adjacency of interval i's vertices.
  StoredCsrGraph& transpose() {
    MLVC_CHECK_MSG(transpose_ != nullptr, "store has no transpose");
    return *transpose_;
  }
  const StoredCsrGraph& transpose() const {
    MLVC_CHECK_MSG(transpose_ != nullptr, "store has no transpose");
    return *transpose_;
  }

  /// On-disk bytes of interval i's adjacency stream (compressed bytes under
  /// v2, raw element bytes under v1). For compression-ratio reporting.
  std::uint64_t adjacency_stored_bytes(IntervalId i) const;

  // ---- structural updates (§V.E) -----------------------------------------

  /// Buffer a mutation; merged into the stored CSR automatically once the
  /// source interval accumulates Options::merge_threshold updates.
  void buffer_update(const StructuralUpdate& update);

  std::size_t pending_update_count(IntervalId i) const;

  /// Force-merge all buffered updates of interval i into its CSR vectors
  /// (full interval rewrite — the cost the batching amortizes).
  void merge_interval(IntervalId i);

  /// Apply interval i's pending updates for source vertex v on top of the
  /// stored adjacency (the paper's Graph Loader "always accesses these
  /// buffered updates to fetch the most current graph data").
  void overlay_pending(VertexId v, std::vector<VertexId>& adjacency,
                       std::vector<float>* weights) const;

 private:
  /// Tag ctor for open(): binds storage/prefix, everything else loaded from
  /// the meta blob by load_meta().
  StoredCsrGraph(ssd::Storage& storage, std::string name_prefix);

  std::string blob_name(IntervalId i, const char* what) const;
  /// Counting-sort the reverse CSR out of `csr` and materialize it as the
  /// `<prefix>/t` sibling (in-memory construction only).
  void build_transpose(const CsrGraph& csr);
  void write_interval(IntervalId i, std::span<const EdgeIndex> local_rowptr,
                      std::span<const VertexId> colidx,
                      std::span<const float> val);
  /// Persist the versioned header (format, weights, boundaries, edge
  /// counts) to the csr/meta blob. Called at the end of construction and
  /// after every structural merge.
  void write_meta();
  void load_meta();
  /// Read + decode every range of a v2 interval, one read per merged block
  /// extent (see read_adjacency_multi).
  void read_adjacency_v2(IntervalId i,
                         std::span<const ElemRange> ranges) const;

  ssd::Storage& storage_;
  std::string prefix_;
  VertexIntervals intervals_;
  Options options_;
  EdgeIndex num_edges_ = 0;
  /// Graph-wide CSR row offsets (num_vertices + 1 entries): vertex v's
  /// out-edges are edges [row_offsets_[v], row_offsets_[v + 1]) counting
  /// across intervals in order. The rowptr blobs rebased, kept resident so
  /// adjacency loads and degree queries never read a rowptr page.
  std::vector<EdgeIndex> row_offsets_;
  std::vector<EdgeIndex> interval_edges_;
  std::vector<ssd::Blob*> rowptr_blobs_;
  std::vector<ssd::Blob*> colidx_blobs_;
  std::vector<ssd::Blob*> val_blobs_;
  /// v2 only: per-interval block skip index — byte offset of each
  /// compressed block in the colidx blob, plus one closing total. Kept
  /// resident (8 B per kCsrBlockEdges edges) and mirrored in the
  /// colidx.skip blob for open().
  std::vector<std::vector<std::uint64_t>> skip_index_;
  std::vector<ssd::Blob*> skip_blobs_;
  /// Optional adjacency page cache; mutable because reads are logically
  /// const (the cache has its own internal lock). shared_ptr so a
  /// RuntimeContext-owned cache can be installed across many graphs/queries
  /// while a privately sized cache keeps working for one-shot runs.
  mutable std::shared_ptr<ssd::PageCache> adjacency_cache_;

  /// Transposed sibling graph (nullptr when not stored). Structural updates
  /// buffered here are mirrored into it, and cache installs propagate, so
  /// the two stay views of the same logical graph.
  std::unique_ptr<StoredCsrGraph> transpose_;

  mutable std::mutex updates_mutex_;
  std::vector<std::vector<StructuralUpdate>> pending_;  // per interval
};

}  // namespace mlvc::graph
