#include "core/graph_loader.hpp"
#include <unordered_map>

#include <algorithm>
#include <tuple>

namespace mlvc::core {

void GraphLoaderUnit::load(IntervalId interval,
                           std::span<const VertexId> actives,
                           AdjacencyBatch& out) {
  // Attribute every cached CSR read below to the owning query (no-op guard
  // when cache_slot is null — single-tenant runs).
  ssd::PageCache::ScopedQuery query_scope(config_.cache_slot);
  out.clear();
  if (actives.empty()) return;
  MLVC_CHECK(std::is_sorted(actives.begin(), actives.end()));
  const auto& intervals = graph_.intervals();
  MLVC_CHECK(actives.front() >= intervals.begin(interval) &&
             actives.back() < intervals.end(interval));

  out.spans.resize(actives.size());
  out.from_edge_log.assign(actives.size(), 0);
  out.start_page_util.assign(actives.size(), -1.0);

  // Serve edge-log residents first; the rest go through the CSR path.
  std::vector<VertexId> csr_vertices;
  std::vector<std::size_t> csr_slots;
  std::vector<VertexId> log_adj;
  std::vector<float> log_weights;
  for (std::size_t k = 0; k < actives.size(); ++k) {
    const VertexId v = actives[k];
    if (config_.use_edge_log && edge_log_ != nullptr &&
        edge_log_->load_edges(v, log_adj,
                              config_.load_weights ? &log_weights : nullptr)) {
      out.spans[k] = {out.adjacency.size(), log_adj.size()};
      out.from_edge_log[k] = 1;
      ++out.edge_log_hits;
      out.adjacency.insert(out.adjacency.end(), log_adj.begin(), log_adj.end());
      if (config_.load_weights) {
        out.weights.insert(out.weights.end(), log_weights.begin(),
                           log_weights.end());
      }
    } else {
      csr_vertices.push_back(v);
      csr_slots.push_back(k);
    }
  }

  if (!csr_vertices.empty()) {
    load_from_csr(interval, csr_vertices, csr_slots, out);
  }

  // Structural-update overlay (§V.E): pending adds/removes must be visible
  // before they are merged into the stored CSR.
  bool has_pending = graph_.pending_update_count(interval) > 0;
  if (has_pending) {
    std::vector<VertexId> adj;
    std::vector<float> w;
    for (std::size_t k = 0; k < actives.size(); ++k) {
      const auto span = out.spans[k];
      adj.assign(out.adjacency.begin() + span.offset,
                 out.adjacency.begin() + span.offset + span.length);
      if (config_.load_weights) {
        w.assign(out.weights.begin() + span.offset,
                 out.weights.begin() + span.offset + span.length);
      }
      const std::size_t before = adj.size();
      graph_.overlay_pending(actives[k], adj,
                             config_.load_weights ? &w : nullptr);
      if (adj.size() == before) continue;  // length-preserving overlays are
                                           // rare enough to ignore in place
      out.spans[k] = {out.adjacency.size(), adj.size()};
      out.adjacency.insert(out.adjacency.end(), adj.begin(), adj.end());
      if (config_.load_weights) {
        // Keep the parallel arrays aligned even for unweighted overlays.
        w.resize(adj.size(), 1.0f);
        out.weights.insert(out.weights.end(), w.begin(), w.end());
      }
    }
  }
}

void GraphLoaderUnit::load_from_csr(IntervalId interval,
                                    std::span<const VertexId> csr_vertices,
                                    std::span<const std::size_t> result_slots,
                                    AdjacencyBatch& out) {
  const std::size_t page_size = graph_.storage().page_size();

  // ---- 1. Adjacency, page-merged vectored reads ---------------------------
  // Each vertex's edge range comes from the graph's resident row offsets,
  // so no row-pointer page is read.
  std::vector<EdgeIndex> lo(csr_vertices.size());
  std::vector<EdgeIndex> hi(csr_vertices.size());
  for (std::size_t j = 0; j < csr_vertices.size(); ++j) {
    std::tie(lo[j], hi[j]) = graph_.local_edge_range(interval, csr_vertices[j]);
  }
  // Merge consecutive vertices' [lo, hi) byte ranges whenever the next range
  // starts on (or before) the page the previous one ends on: those pages
  // must be fetched anyway, so one contiguous read covers them without
  // touching any extra page. All runs are then fetched in one vectored call.
  const auto start_page = [&](std::size_t j) {
    return lo[j] * sizeof(VertexId) / page_size;
  };
  const auto end_page = [&](std::size_t j) {
    // Page of the last byte; empty ranges use their start page.
    return hi[j] > lo[j] ? (hi[j] * sizeof(VertexId) - 1) / page_size
                         : start_page(j);
  };

  struct Run {
    std::size_t first_j = 0;
    std::size_t end_j = 0;
    EdgeIndex lo = 0;
    EdgeIndex hi = 0;
    std::size_t buf_off = 0;
  };
  std::vector<Run> runs;
  std::size_t adj_total = 0;
  std::size_t run_start = 0;
  for (std::size_t k = 1; k <= csr_vertices.size(); ++k) {
    if (k < csr_vertices.size() && start_page(k) <= end_page(k - 1)) {
      continue;  // same page chain — extend the run
    }
    const EdgeIndex run_lo = lo[run_start];
    const EdgeIndex run_hi = hi[k - 1];
    runs.push_back({run_start, k, run_lo, run_hi, adj_total});
    if (run_hi > run_lo) adj_total += run_hi - run_lo;
    run_start = k;
  }
  std::vector<VertexId> adj_buf(adj_total);
  std::vector<float> weight_buf(config_.load_weights ? adj_total : 0);
  {
    std::vector<graph::StoredCsrGraph::ElemRange> ranges;
    ranges.reserve(runs.size());
    for (const Run& r : runs) {
      if (r.hi <= r.lo) continue;
      ranges.push_back({r.lo, r.hi, adj_buf.data() + r.buf_off});
    }
    graph_.read_adjacency_multi(interval, ranges);
    if (config_.load_weights) {
      for (auto& range : ranges) {
        range.out = weight_buf.data() + (static_cast<VertexId*>(range.out) -
                                         adj_buf.data());
      }
      graph_.read_values_multi(interval, ranges);
    }
  }

  const std::uint64_t blob_id = graph_.colidx_blob(interval).id();
  for (const Run& r : runs) {
    // Per-page useful bytes for this run (only the active vertices' slices
    // count as useful; gap bytes between them on shared pages do not).
    for (std::size_t j = r.first_j; j < r.end_j; ++j) {
      const std::uint64_t byte_lo = lo[j] * sizeof(VertexId);
      const std::uint64_t byte_hi = hi[j] * sizeof(VertexId);
      if (util_tracker_ != nullptr && byte_hi > byte_lo) {
        for (std::uint64_t p = byte_lo / page_size;
             p <= (byte_hi - 1) / page_size; ++p) {
          const std::uint64_t pg_begin = p * page_size;
          const std::uint64_t pg_end = pg_begin + page_size;
          const std::size_t useful = static_cast<std::size_t>(
              std::min(byte_hi, pg_end) - std::max(byte_lo, pg_begin));
          util_tracker_->record(blob_id, p, useful);
        }
      }
      // Slice into the output buffers.
      const std::size_t slot = result_slots[j];
      out.spans[slot] = {out.adjacency.size(),
                         static_cast<std::size_t>(hi[j] - lo[j])};
      out.adjacency.insert(out.adjacency.end(),
                           adj_buf.begin() + r.buf_off + (lo[j] - r.lo),
                           adj_buf.begin() + r.buf_off + (hi[j] - r.lo));
      if (config_.load_weights) {
        out.weights.insert(out.weights.end(),
                           weight_buf.begin() + r.buf_off + (lo[j] - r.lo),
                           weight_buf.begin() + r.buf_off + (hi[j] - r.lo));
      }
    }
  }

  // ---- 2. Start-page utilization for the edge-log decision ----------------
  // Query the tracker *after* all recording above so a page shared by
  // several actives reflects their combined utilization.
  if (util_tracker_ != nullptr) {
    // The tracker accumulates across the superstep; expose the utilization
    // as currently known. (Later intervals cannot add to this interval's
    // pages — each colidx blob belongs to exactly one interval.)
    // We recompute from our own records: simplest is a local pass.
    // To avoid a tracker query API, recompute per-run page sums:
    std::unordered_map<std::uint64_t, std::size_t> local_useful;
    for (std::size_t j = 0; j < csr_vertices.size(); ++j) {
      const std::uint64_t byte_lo = lo[j] * sizeof(VertexId);
      const std::uint64_t byte_hi = hi[j] * sizeof(VertexId);
      for (std::uint64_t p = byte_lo / page_size;
           byte_hi > byte_lo && p <= (byte_hi - 1) / page_size; ++p) {
        const std::uint64_t pg_begin = p * page_size;
        const std::uint64_t pg_end = pg_begin + page_size;
        local_useful[p] += static_cast<std::size_t>(
            std::min(byte_hi, pg_end) - std::max(byte_lo, pg_begin));
      }
    }
    for (std::size_t j = 0; j < csr_vertices.size(); ++j) {
      if (hi[j] == lo[j]) continue;
      const std::uint64_t p = lo[j] * sizeof(VertexId) / page_size;
      out.start_page_util[result_slots[j]] =
          static_cast<double>(local_useful[p]) /
          static_cast<double>(page_size);
    }
  }
}

}  // namespace mlvc::core
