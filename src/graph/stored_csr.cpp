#include "graph/stored_csr.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/varint.hpp"

namespace mlvc::graph {
namespace {

// csr/meta versioned header: magic, meta-schema version, then the fields
// needed to re-open the graph (format, weights, boundaries, edge counts).
// All u64 words so the blob is trivially (re)readable.
constexpr std::uint64_t kCsrMetaMagic = 0x4D564353;  // "SCVM"
constexpr std::uint64_t kCsrMetaVersion = 1;

/// Delta+zigzag+varint encode `colidx` as blocks of kCsrBlockEdges,
/// appending encoded bytes to `out` and each block's start offset (relative
/// to the interval stream, whose first `stream_base` bytes were already
/// flushed) to `skips`. Callers must only split an interval's colidx across
/// calls at block boundaries.
void encode_blocks(std::span<const VertexId> colidx,
                   std::vector<std::uint8_t>& out,
                   std::vector<std::uint64_t>& skips,
                   std::uint64_t stream_base) {
  for (std::size_t off = 0; off < colidx.size(); off += kCsrBlockEdges) {
    const std::size_t n =
        std::min<std::size_t>(kCsrBlockEdges, colidx.size() - off);
    skips.push_back(stream_base + out.size());
    put_delta_block(out, colidx.data() + off, n, 0, /*absolute_first=*/true);
  }
}

/// Decode colidx entries [lo, hi) out of the compressed bytes `comp`, which
/// hold every block overlapping that span and start at interval-stream
/// offset `comp_base` (at or before skips[lo / kCsrBlockEdges]).
void decode_span(const std::vector<std::uint64_t>& skips, EdgeIndex n_edges,
                 EdgeIndex lo, EdgeIndex hi, const std::uint8_t* comp,
                 std::uint64_t comp_base, VertexId* out) {
  const std::size_t b0 = static_cast<std::size_t>(lo / kCsrBlockEdges);
  const std::size_t b1 = static_cast<std::size_t>((hi - 1) / kCsrBlockEdges);
  std::array<VertexId, kCsrBlockEdges> scratch;
  for (std::size_t b = b0; b <= b1; ++b) {
    const EdgeIndex blk_lo = static_cast<EdgeIndex>(b) * kCsrBlockEdges;
    const EdgeIndex blk_n = std::min<EdgeIndex>(kCsrBlockEdges,
                                                n_edges - blk_lo);
    const std::uint8_t* p = comp + (skips[b] - comp_base);
    const std::uint8_t* end = comp + (skips[b + 1] - comp_base);
    // Decode only the block prefix the span needs; entries before `lo`
    // still have to be walked for the delta chain.
    const EdgeIndex want_hi = std::min<EdgeIndex>(hi, blk_lo + blk_n);
    get_delta_block(&p, end, scratch.data(), want_hi - blk_lo, 0,
                    /*absolute_first=*/true);
    const EdgeIndex copy_lo = std::max<EdgeIndex>(lo, blk_lo);
    std::memcpy(out + (copy_lo - lo), scratch.data() + (copy_lo - blk_lo),
                (want_hi - copy_lo) * sizeof(VertexId));
  }
}

}  // namespace

StoredCsrGraph::StoredCsrGraph(ssd::Storage& storage, std::string name_prefix,
                               const CsrGraph& csr, VertexIntervals intervals,
                               Options options)
    : storage_(storage),
      prefix_(std::move(name_prefix)),
      intervals_(std::move(intervals)),
      options_(options),
      num_edges_(csr.num_edges()) {
  MLVC_CHECK_MSG(intervals_.num_vertices() == csr.num_vertices(),
                 "interval boundaries do not cover the graph");
  const IntervalId n_int = intervals_.count();
  const auto row_ptr = csr.row_ptr();
  if (row_ptr.empty()) {
    row_offsets_.assign(1, 0);
  } else {
    row_offsets_.assign(row_ptr.begin(), row_ptr.end());
  }
  interval_edges_.assign(n_int, 0);
  rowptr_blobs_.resize(n_int);
  colidx_blobs_.resize(n_int);
  val_blobs_.resize(n_int, nullptr);
  skip_index_.resize(n_int);
  skip_blobs_.resize(n_int, nullptr);
  pending_.resize(n_int);

  for (IntervalId i = 0; i < n_int; ++i) {
    const VertexId vb = intervals_.begin(i);
    const VertexId ve = intervals_.end(i);
    const EdgeIndex base = row_ptr[vb];
    const EdgeIndex limit = row_ptr[ve];
    interval_edges_[i] = limit - base;

    std::vector<EdgeIndex> local_rowptr(ve - vb + 1);
    for (VertexId v = vb; v <= ve; ++v) {
      local_rowptr[v - vb] = row_ptr[v] - base;
    }
    std::span<const VertexId> colidx =
        csr.col_idx().subspan(base, limit - base);
    std::span<const float> val =
        options_.with_weights ? csr.val().subspan(base, limit - base)
                              : std::span<const float>{};
    rowptr_blobs_[i] =
        &storage_.create_blob(blob_name(i, "rowptr"), ssd::IoCategory::kCsrRowPtr);
    colidx_blobs_[i] =
        &storage_.create_blob(blob_name(i, "colidx"), ssd::IoCategory::kCsrColIdx);
    if (options_.with_weights) {
      val_blobs_[i] =
          &storage_.create_blob(blob_name(i, "val"), ssd::IoCategory::kCsrVal);
    }
    if (options_.format == OnDiskFormat::kV2) {
      skip_blobs_[i] = &storage_.create_blob(blob_name(i, "colidx.skip"),
                                             ssd::IoCategory::kCsrColIdx);
    }
    write_interval(i, local_rowptr, colidx, val);
  }
  write_meta();
  if (options_.with_transpose) build_transpose(csr);
}

void StoredCsrGraph::build_transpose(const CsrGraph& csr) {
  // Counting sort: in-degree histogram -> prefix sum -> scatter. Scanning
  // sources ascending leaves each vertex's in-neighbor list ascending, the
  // order the pull path's frontier filter and gather expect.
  const VertexId n = csr.num_vertices();
  const auto row_ptr = csr.row_ptr();
  const auto col_idx = csr.col_idx();
  std::vector<EdgeIndex> trowptr(static_cast<std::size_t>(n) + 1, 0);
  for (const VertexId dst : col_idx) ++trowptr[dst + 1];
  for (VertexId v = 0; v < n; ++v) trowptr[v + 1] += trowptr[v];
  std::vector<VertexId> tcol(csr.num_edges());
  std::vector<EdgeIndex> cursor(trowptr.begin(), trowptr.end() - 1);
  for (VertexId u = 0; u < n; ++u) {
    for (EdgeIndex e = row_ptr[u]; e < row_ptr[u + 1]; ++e) {
      tcol[cursor[col_idx[e]]++] = u;
    }
  }
  // Feed the streaming constructor so the transpose shares every storage
  // path (chunked appends, v2 block encoding, meta blob) with the forward
  // graph instead of duplicating them.
  VertexId v = 0;
  EdgeIndex e = 0;
  const std::function<bool(Edge&)> next = [&](Edge& out) {
    while (v < n && e == trowptr[v + 1]) ++v;
    if (v >= n) return false;
    out = Edge{v, tcol[e], 1.0f};
    ++e;
    return true;
  };
  Options topt = options_;
  topt.with_weights = false;
  topt.with_transpose = false;
  transpose_ = std::make_unique<StoredCsrGraph>(storage_, prefix_ + "/t",
                                                intervals_, next, topt);
}

StoredCsrGraph::StoredCsrGraph(ssd::Storage& storage, std::string name_prefix,
                               VertexIntervals intervals,
                               const std::function<bool(Edge&)>& next_edge,
                               Options options)
    : storage_(storage),
      prefix_(std::move(name_prefix)),
      intervals_(std::move(intervals)),
      options_(options) {
  // A transpose cannot be derived from one forward-sorted pass; streaming
  // builds are push-only until mlvc_convert rewrites them (see Options).
  options_.with_transpose = false;
  const IntervalId n_int = intervals_.count();
  row_offsets_.assign(static_cast<std::size_t>(intervals_.num_vertices()) + 1,
                      0);
  interval_edges_.assign(n_int, 0);
  rowptr_blobs_.resize(n_int);
  colidx_blobs_.resize(n_int);
  val_blobs_.resize(n_int, nullptr);
  skip_index_.resize(n_int);
  skip_blobs_.resize(n_int, nullptr);
  pending_.resize(n_int);

  // Chunked append: bound memory to ~256 KiB per stream regardless of
  // interval size. Must stay a multiple of kCsrBlockEdges so v2 block
  // encoding never splits a block across flushes.
  constexpr std::size_t kChunkEdges = 64 * 1024;
  static_assert(kChunkEdges % kCsrBlockEdges == 0);
  std::vector<VertexId> colidx_chunk;
  std::vector<float> val_chunk;
  colidx_chunk.reserve(kChunkEdges);
  if (options_.with_weights) val_chunk.reserve(kChunkEdges);

  Edge cur{};
  bool have_edge = next_edge(cur);
  for (IntervalId i = 0; i < n_int; ++i) {
    const VertexId vb = intervals_.begin(i);
    const VertexId ve = intervals_.end(i);
    rowptr_blobs_[i] = &storage_.create_blob(blob_name(i, "rowptr"),
                                             ssd::IoCategory::kCsrRowPtr);
    colidx_blobs_[i] = &storage_.create_blob(blob_name(i, "colidx"),
                                             ssd::IoCategory::kCsrColIdx);
    if (options_.with_weights) {
      val_blobs_[i] =
          &storage_.create_blob(blob_name(i, "val"), ssd::IoCategory::kCsrVal);
    }
    if (options_.format == OnDiskFormat::kV2) {
      skip_blobs_[i] = &storage_.create_blob(blob_name(i, "colidx.skip"),
                                             ssd::IoCategory::kCsrColIdx);
    }
    std::vector<EdgeIndex> local_rowptr(ve - vb + 1);
    EdgeIndex edge_count = 0;
    std::vector<std::uint8_t> enc;          // v2: encoded bytes this flush
    std::vector<std::uint64_t> skips;       // v2: block starts this interval
    std::uint64_t enc_base = 0;             // v2: encoded bytes flushed
    const auto flush = [&] {
      if (options_.format == OnDiskFormat::kV2) {
        encode_blocks(colidx_chunk, enc, skips, enc_base);
        colidx_blobs_[i]->append(enc.data(), enc.size());
        enc_base += enc.size();
        enc.clear();
      } else {
        colidx_blobs_[i]->append(colidx_chunk.data(),
                                 colidx_chunk.size() * sizeof(VertexId));
      }
      storage_.stats().record_logical_write(
          ssd::IoCategory::kCsrColIdx, colidx_chunk.size() * sizeof(VertexId));
      colidx_chunk.clear();
      if (options_.with_weights) {
        val_blobs_[i]->append(val_chunk.data(),
                              val_chunk.size() * sizeof(float));
        val_chunk.clear();
      }
    };
    for (VertexId v = vb; v < ve; ++v) {
      local_rowptr[v - vb] = edge_count;
      row_offsets_[v] = num_edges_ + edge_count;
      while (have_edge && cur.src == v) {
        colidx_chunk.push_back(cur.dst);
        if (options_.with_weights) val_chunk.push_back(cur.weight);
        if (colidx_chunk.size() >= kChunkEdges) flush();
        ++edge_count;
        Edge next{};
        have_edge = next_edge(next);
        MLVC_CHECK_MSG(!have_edge || next.src >= cur.src,
                       "edge stream not sorted by source");
        cur = next;
      }
      MLVC_CHECK_MSG(!have_edge || cur.src >= ve || cur.src >= v,
                     "edge stream not sorted by source");
    }
    local_rowptr.back() = edge_count;
    flush();
    if (options_.format == OnDiskFormat::kV2) {
      skips.push_back(enc_base);
      skip_blobs_[i]->append(skips.data(),
                             skips.size() * sizeof(std::uint64_t));
      skip_index_[i] = std::move(skips);
    }
    interval_edges_[i] = edge_count;
    num_edges_ += edge_count;
    rowptr_blobs_[i]->append(local_rowptr.data(),
                             local_rowptr.size() * sizeof(EdgeIndex));
  }
  MLVC_CHECK_MSG(!have_edge, "edge stream has sources past num_vertices");
  row_offsets_.back() = num_edges_;
  write_meta();
}

std::string StoredCsrGraph::blob_name(IntervalId i, const char* what) const {
  return prefix_ + "/csr/" + std::to_string(i) + "/" + what;
}

void StoredCsrGraph::write_interval(IntervalId i,
                                    std::span<const EdgeIndex> local_rowptr,
                                    std::span<const VertexId> colidx,
                                    std::span<const float> val) {
  rowptr_blobs_[i]->truncate(0);
  rowptr_blobs_[i]->append(local_rowptr.data(), local_rowptr.size_bytes());
  colidx_blobs_[i]->truncate(0);
  if (options_.format == OnDiskFormat::kV2) {
    std::vector<std::uint8_t> enc;
    std::vector<std::uint64_t> skips;
    encode_blocks(colidx, enc, skips, 0);
    skips.push_back(enc.size());
    colidx_blobs_[i]->append(enc.data(), enc.size());
    skip_blobs_[i]->truncate(0);
    skip_blobs_[i]->append(skips.data(), skips.size() * sizeof(std::uint64_t));
    skip_index_[i] = std::move(skips);
  } else {
    colidx_blobs_[i]->append(colidx.data(), colidx.size_bytes());
  }
  storage_.stats().record_logical_write(ssd::IoCategory::kCsrColIdx,
                                        colidx.size_bytes());
  if (options_.with_weights) {
    val_blobs_[i]->truncate(0);
    val_blobs_[i]->append(val.data(), val.size_bytes());
  }
  // The interval's colidx pages just changed identity/content; cached copies
  // are stale.
  if (adjacency_cache_) adjacency_cache_->invalidate();
}

void StoredCsrGraph::read_local_row_ptrs(IntervalId i, VertexId local_begin,
                                         std::size_t count,
                                         std::span<EdgeIndex> out) const {
  MLVC_CHECK(i < intervals_.count());
  MLVC_CHECK(out.size() >= count);
  rowptr_blobs_[i]->read(static_cast<std::uint64_t>(local_begin) *
                             sizeof(EdgeIndex),
                         out.data(), count * sizeof(EdgeIndex));
}

void StoredCsrGraph::set_adjacency_cache(std::size_t capacity_bytes) {
  adjacency_cache_ =
      capacity_bytes == 0
          ? nullptr
          : std::make_shared<ssd::PageCache>(storage_, capacity_bytes);
  // One cache serves both directions — forward and transpose colidx pages
  // compete for the same capacity rather than doubling host memory.
  if (transpose_) transpose_->set_adjacency_cache(adjacency_cache_);
}

void StoredCsrGraph::set_adjacency_cache(std::shared_ptr<ssd::PageCache> cache) {
  MLVC_CHECK_MSG(cache == nullptr || &cache->storage() == &storage_,
                 "shared adjacency cache must be backed by this graph's "
                 "storage");
  adjacency_cache_ = std::move(cache);
  if (transpose_) transpose_->set_adjacency_cache(adjacency_cache_);
}

void StoredCsrGraph::read_adjacency_v2(
    IntervalId i, std::span<const ElemRange> ranges) const {
  const auto& skips = skip_index_[i];
  const EdgeIndex n_edges = interval_edges_[i];
  // Block spans [b0, b1] of the non-empty ranges, merged into disjoint
  // extents. Abutting spans join too, so a page two blocks share is not
  // charged twice. Each extent is read once into its slice of the arena.
  struct Extent {
    std::size_t b0 = 0;
    std::size_t b1 = 0;
    std::size_t arena_off = 0;
  };
  std::vector<Extent> extents;
  extents.reserve(ranges.size());
  for (const auto& r : ranges) {
    if (r.lo == r.hi) continue;
    MLVC_CHECK(r.hi <= n_edges);
    extents.push_back({static_cast<std::size_t>(r.lo / kCsrBlockEdges),
                       static_cast<std::size_t>((r.hi - 1) / kCsrBlockEdges),
                       0});
  }
  std::sort(extents.begin(), extents.end(),
            [](const Extent& a, const Extent& b) { return a.b0 < b.b0; });
  std::size_t merged = 0;
  for (std::size_t k = 0; k < extents.size(); ++k) {
    if (merged > 0 && extents[k].b0 <= extents[merged - 1].b1 + 1) {
      extents[merged - 1].b1 = std::max(extents[merged - 1].b1, extents[k].b1);
    } else {
      extents[merged++] = extents[k];
    }
  }
  extents.resize(merged);
  const auto extent_bytes = [&](const Extent& e) {
    return static_cast<std::size_t>(skips[e.b1 + 1] - skips[e.b0]);
  };
  std::size_t arena_bytes = 0;
  for (Extent& e : extents) {
    e.arena_off = arena_bytes;
    arena_bytes += extent_bytes(e);
  }
  std::vector<std::uint8_t> arena(arena_bytes);
  if (adjacency_cache_) {
    for (const Extent& e : extents) {
      adjacency_cache_->read(*colidx_blobs_[i], skips[e.b0],
                             arena.data() + e.arena_off, extent_bytes(e));
    }
  } else {
    std::vector<ssd::ReadOp> ops;
    ops.reserve(extents.size());
    for (const Extent& e : extents) {
      ops.push_back({skips[e.b0], arena.data() + e.arena_off, extent_bytes(e)});
    }
    colidx_blobs_[i]->read_multi(ops);
  }
  for (const auto& r : ranges) {
    if (r.lo == r.hi) continue;
    // The range lies in the last extent starting at or before its first
    // block.
    const std::size_t b0 = static_cast<std::size_t>(r.lo / kCsrBlockEdges);
    const auto it = std::prev(std::upper_bound(
        extents.begin(), extents.end(), b0,
        [](std::size_t b, const Extent& e) { return b < e.b0; }));
    decode_span(skips, n_edges, r.lo, r.hi, arena.data() + it->arena_off,
                skips[it->b0], static_cast<VertexId*>(r.out));
  }
}

void StoredCsrGraph::read_adjacency(IntervalId i, EdgeIndex lo, EdgeIndex hi,
                                    std::span<VertexId> out) const {
  MLVC_CHECK(i < intervals_.count() && lo <= hi);
  MLVC_CHECK(out.size() >= hi - lo);
  storage_.stats().record_logical_read(ssd::IoCategory::kCsrColIdx,
                                       (hi - lo) * sizeof(VertexId));
  if (options_.format == OnDiskFormat::kV2) {
    const ElemRange range{lo, hi, out.data()};
    read_adjacency_v2(i, std::span<const ElemRange>(&range, 1));
    return;
  }
  if (adjacency_cache_) {
    adjacency_cache_->read(*colidx_blobs_[i], lo * sizeof(VertexId),
                           out.data(), (hi - lo) * sizeof(VertexId));
    return;
  }
  colidx_blobs_[i]->read(lo * sizeof(VertexId), out.data(),
                         (hi - lo) * sizeof(VertexId));
}

void StoredCsrGraph::read_values(IntervalId i, EdgeIndex lo, EdgeIndex hi,
                                 std::span<float> out) const {
  MLVC_CHECK_MSG(options_.with_weights, "graph stored without weights");
  MLVC_CHECK(i < intervals_.count() && lo <= hi);
  MLVC_CHECK(out.size() >= hi - lo);
  val_blobs_[i]->read(lo * sizeof(float), out.data(),
                      (hi - lo) * sizeof(float));
}

namespace {
template <typename T>
std::vector<ssd::ReadOp> to_read_ops(
    std::span<const StoredCsrGraph::ElemRange> ranges) {
  std::vector<ssd::ReadOp> ops;
  ops.reserve(ranges.size());
  for (const auto& r : ranges) {
    MLVC_CHECK(r.lo <= r.hi);
    ops.push_back({static_cast<std::uint64_t>(r.lo) * sizeof(T), r.out,
                   (r.hi - r.lo) * sizeof(T)});
  }
  return ops;
}
}  // namespace

void StoredCsrGraph::read_adjacency_multi(
    IntervalId i, std::span<const ElemRange> ranges) const {
  MLVC_CHECK(i < intervals_.count());
  for (const auto& r : ranges) {
    MLVC_CHECK(r.lo <= r.hi);
    storage_.stats().record_logical_read(ssd::IoCategory::kCsrColIdx,
                                         (r.hi - r.lo) * sizeof(VertexId));
  }
  if (options_.format == OnDiskFormat::kV2) {
    read_adjacency_v2(i, ranges);
    return;
  }
  if (adjacency_cache_) {
    // Cached path serves each range from host pages (no preadv coalescing —
    // hits never reach the kernel at all).
    for (const auto& r : ranges) {
      adjacency_cache_->read(*colidx_blobs_[i],
                             static_cast<std::uint64_t>(r.lo) *
                                 sizeof(VertexId),
                             r.out, (r.hi - r.lo) * sizeof(VertexId));
    }
    return;
  }
  colidx_blobs_[i]->read_multi(to_read_ops<VertexId>(ranges));
}

void StoredCsrGraph::read_values_multi(
    IntervalId i, std::span<const ElemRange> ranges) const {
  MLVC_CHECK_MSG(options_.with_weights, "graph stored without weights");
  MLVC_CHECK(i < intervals_.count());
  val_blobs_[i]->read_multi(to_read_ops<float>(ranges));
}

const ssd::Blob& StoredCsrGraph::colidx_blob(IntervalId i) const {
  MLVC_CHECK(i < intervals_.count());
  return *colidx_blobs_[i];
}

std::uint64_t StoredCsrGraph::adjacency_stored_bytes(IntervalId i) const {
  MLVC_CHECK(i < intervals_.count());
  return colidx_blobs_[i]->size();
}

StoredCsrGraph::StoredCsrGraph(ssd::Storage& storage, std::string name_prefix)
    : storage_(storage), prefix_(std::move(name_prefix)) {}

std::unique_ptr<StoredCsrGraph> StoredCsrGraph::open(ssd::Storage& storage,
                                                     std::string name_prefix) {
  auto g = std::unique_ptr<StoredCsrGraph>(
      new StoredCsrGraph(storage, std::move(name_prefix)));
  g->load_meta();
  // Attach the transpose sibling when one was stored. Its own recursive
  // check looks for "<prefix>/t/t/csr/meta", which never exists, so this
  // terminates after one level.
  if (storage.has_blob(g->prefix_ + "/t/csr/meta")) {
    g->transpose_ = open(storage, g->prefix_ + "/t");
    g->options_.with_transpose = true;
  } else {
    g->options_.with_transpose = false;
  }
  return g;
}

void StoredCsrGraph::write_meta() {
  std::vector<std::uint64_t> meta;
  const IntervalId n_int = intervals_.count();
  meta.reserve(7 + n_int + 1 + n_int);
  meta.push_back(kCsrMetaMagic);
  meta.push_back(kCsrMetaVersion);
  meta.push_back(static_cast<std::uint64_t>(options_.format));
  meta.push_back(options_.with_weights ? 1 : 0);
  meta.push_back(n_int);
  meta.push_back(intervals_.num_vertices());
  meta.push_back(num_edges_);
  for (const VertexId b : intervals_.boundaries()) meta.push_back(b);
  for (IntervalId i = 0; i < n_int; ++i) meta.push_back(interval_edges_[i]);
  const std::string name = prefix_ + "/csr/meta";
  ssd::Blob& blob = storage_.has_blob(name)
                        ? storage_.open_blob(name)
                        : storage_.create_blob(name, ssd::IoCategory::kMisc);
  blob.truncate(0);
  blob.append_span<std::uint64_t>(meta);
}

void StoredCsrGraph::load_meta() {
  ssd::Blob& blob = storage_.open_blob(prefix_ + "/csr/meta");
  const std::uint64_t n_words = blob.element_count<std::uint64_t>();
  MLVC_CHECK_MSG(n_words >= 7, "csr meta: header truncated");
  const auto head = blob.read_vector<std::uint64_t>(0, 7);
  MLVC_CHECK_MSG(head[0] == kCsrMetaMagic,
                 "csr meta: bad magic (not a stored graph?)");
  MLVC_CHECK_MSG(head[1] == kCsrMetaVersion,
                 "csr meta: unsupported meta version " << head[1]);
  MLVC_CHECK_MSG(head[2] == 1 || head[2] == 2,
                 "csr meta: unknown on-disk format " << head[2]);
  options_.format = static_cast<OnDiskFormat>(head[2]);
  options_.with_weights = head[3] != 0;
  const IntervalId n_int = static_cast<IntervalId>(head[4]);
  num_edges_ = head[6];
  MLVC_CHECK_MSG(n_words == 7 + n_int + 1 + n_int,
                 "csr meta: truncated interval table");
  const auto rest =
      blob.read_vector<std::uint64_t>(7, n_int + 1 + static_cast<std::size_t>(n_int));
  std::vector<VertexId> boundaries;
  boundaries.reserve(n_int + 1);
  for (IntervalId i = 0; i <= n_int; ++i) {
    boundaries.push_back(static_cast<VertexId>(rest[i]));
  }
  intervals_ = VertexIntervals::from_boundaries(std::move(boundaries));
  MLVC_CHECK_MSG(intervals_.num_vertices() == head[5],
                 "csr meta: boundary/vertex-count mismatch");
  interval_edges_.assign(rest.begin() + n_int + 1, rest.end());

  rowptr_blobs_.resize(n_int);
  colidx_blobs_.resize(n_int);
  val_blobs_.assign(n_int, nullptr);
  skip_index_.resize(n_int);
  skip_blobs_.resize(n_int, nullptr);
  pending_.clear();
  pending_.resize(n_int);
  row_offsets_.assign(static_cast<std::size_t>(intervals_.num_vertices()) + 1,
                      0);
  EdgeIndex base = 0;
  for (IntervalId i = 0; i < n_int; ++i) {
    rowptr_blobs_[i] = &storage_.open_blob(blob_name(i, "rowptr"));
    colidx_blobs_[i] = &storage_.open_blob(blob_name(i, "colidx"));
    if (options_.with_weights) {
      val_blobs_[i] = &storage_.open_blob(blob_name(i, "val"));
    }
    if (options_.format == OnDiskFormat::kV2) {
      skip_blobs_[i] = &storage_.open_blob(blob_name(i, "colidx.skip"));
      skip_index_[i] = skip_blobs_[i]->read_vector<std::uint64_t>(
          0, skip_blobs_[i]->element_count<std::uint64_t>());
      MLVC_CHECK_MSG(!skip_index_[i].empty() &&
                         skip_index_[i].back() == colidx_blobs_[i]->size(),
                     "csr v2: skip index inconsistent with colidx blob");
    }
    // The resident row offsets are the local row pointers rebased onto one
    // graph-wide edge numbering; rebuilding them here keeps the meta blob
    // small.
    const VertexId vb = intervals_.begin(i);
    const VertexId width = intervals_.width(i);
    const auto rp = rowptr_blobs_[i]->read_vector<EdgeIndex>(
        0, static_cast<std::size_t>(width) + 1);
    MLVC_CHECK_MSG(rp.back() == interval_edges_[i],
                   "csr meta: rowptr disagrees with interval edge count");
    for (VertexId lv = 0; lv < width; ++lv) {
      row_offsets_[vb + lv] = base + rp[lv];
    }
    base += interval_edges_[i];
  }
  MLVC_CHECK_MSG(base == num_edges_,
                 "csr meta: interval edge counts disagree with the total");
  row_offsets_.back() = base;
}

const ssd::Blob& StoredCsrGraph::rowptr_blob(IntervalId i) const {
  MLVC_CHECK(i < intervals_.count());
  return *rowptr_blobs_[i];
}

void StoredCsrGraph::buffer_update(const StructuralUpdate& update) {
  MLVC_CHECK(update.src < num_vertices() && update.dst < num_vertices());
  // Mirror u->v as v->u into the transpose so both directions keep
  // describing the same logical graph (each side merges on its own
  // threshold; overlay_pending covers the not-yet-merged window).
  if (transpose_) {
    StructuralUpdate rev = update;
    std::swap(rev.src, rev.dst);
    transpose_->buffer_update(rev);
  }
  const IntervalId i = intervals_.interval_of(update.src);
  bool merge_now = false;
  {
    std::lock_guard<std::mutex> lock(updates_mutex_);
    pending_[i].push_back(update);
    merge_now = pending_[i].size() >= options_.merge_threshold;
  }
  if (merge_now) merge_interval(i);
}

std::size_t StoredCsrGraph::pending_update_count(IntervalId i) const {
  MLVC_CHECK(i < intervals_.count());
  std::lock_guard<std::mutex> lock(updates_mutex_);
  return pending_[i].size();
}

void StoredCsrGraph::merge_interval(IntervalId i) {
  MLVC_CHECK(i < intervals_.count());
  std::vector<StructuralUpdate> updates;
  {
    std::lock_guard<std::mutex> lock(updates_mutex_);
    updates.swap(pending_[i]);
  }
  if (updates.empty()) return;

  const VertexId vb = intervals_.begin(i);
  const VertexId width = intervals_.width(i);

  // Load the whole interval (this is the expensive rewrite the batching
  // amortizes; an interval is sized to fit in the sort budget, so these
  // vectors fit in memory).
  std::vector<EdgeIndex> rowptr(width + 1);
  read_local_row_ptrs(i, 0, width + 1, rowptr);
  const EdgeIndex edge_count = rowptr.back();
  std::vector<VertexId> colidx(edge_count);
  read_adjacency(i, 0, edge_count, colidx);
  std::vector<float> val;
  if (options_.with_weights) {
    val.resize(edge_count);
    read_values(i, 0, edge_count, val);
  }

  // Explode into per-vertex adjacency, apply updates, rebuild.
  std::vector<std::vector<std::pair<VertexId, float>>> adj(width);
  for (VertexId lv = 0; lv < width; ++lv) {
    adj[lv].reserve(rowptr[lv + 1] - rowptr[lv]);
    for (EdgeIndex e = rowptr[lv]; e < rowptr[lv + 1]; ++e) {
      adj[lv].emplace_back(colidx[e],
                           options_.with_weights ? val[e] : 1.0f);
    }
  }
  for (const StructuralUpdate& u : updates) {
    const VertexId lv = u.src - vb;
    auto& list = adj[lv];
    if (u.kind == StructuralUpdate::Kind::kAddEdge) {
      const bool exists =
          std::any_of(list.begin(), list.end(),
                      [&](const auto& p) { return p.first == u.dst; });
      if (!exists) {
        list.emplace_back(u.dst, u.weight);
        ++num_edges_;
      }
    } else {
      const auto it =
          std::find_if(list.begin(), list.end(),
                       [&](const auto& p) { return p.first == u.dst; });
      if (it != list.end()) {
        list.erase(it);
        --num_edges_;
      }
    }
  }

  std::vector<EdgeIndex> new_rowptr(width + 1, 0);
  std::vector<VertexId> new_colidx;
  std::vector<float> new_val;
  for (VertexId lv = 0; lv < width; ++lv) {
    new_rowptr[lv + 1] = new_rowptr[lv] + adj[lv].size();
    for (const auto& [dst, w] : adj[lv]) {
      new_colidx.push_back(dst);
      new_val.push_back(w);
    }
  }
  // Rebase the resident offsets: this interval's rows take the new layout
  // and every later row shifts by the interval's edge-count change.
  const EdgeIndex old_count = interval_edges_[i];
  const EdgeIndex new_count = new_rowptr.back();
  const EdgeIndex base = row_offsets_[vb];
  for (VertexId lv = 0; lv <= width; ++lv) {
    row_offsets_[vb + lv] = base + new_rowptr[lv];
  }
  for (std::size_t v = static_cast<std::size_t>(vb) + width + 1;
       v < row_offsets_.size(); ++v) {
    row_offsets_[v] = row_offsets_[v] - old_count + new_count;
  }
  interval_edges_[i] = new_count;
  write_interval(i, new_rowptr, new_colidx,
                 options_.with_weights ? std::span<const float>(new_val)
                                       : std::span<const float>{});
  write_meta();  // num_edges_ / interval_edges_ changed
}

void StoredCsrGraph::overlay_pending(VertexId v,
                                     std::vector<VertexId>& adjacency,
                                     std::vector<float>* weights) const {
  const IntervalId i = intervals_.interval_of(v);
  std::lock_guard<std::mutex> lock(updates_mutex_);
  for (const StructuralUpdate& u : pending_[i]) {
    if (u.src != v) continue;
    if (u.kind == StructuralUpdate::Kind::kAddEdge) {
      if (std::find(adjacency.begin(), adjacency.end(), u.dst) ==
          adjacency.end()) {
        adjacency.push_back(u.dst);
        if (weights != nullptr) weights->push_back(u.weight);
      }
    } else {
      const auto it = std::find(adjacency.begin(), adjacency.end(), u.dst);
      if (it != adjacency.end()) {
        const auto idx = it - adjacency.begin();
        adjacency.erase(it);
        if (weights != nullptr) weights->erase(weights->begin() + idx);
      }
    }
  }
}

}  // namespace mlvc::graph
