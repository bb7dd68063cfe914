// Vertex value storage.
//
// Out-of-core engines cannot assume V x sizeof(Value) fits in host memory;
// values live in a storage blob and are gathered/scattered with page-
// coalesced, page-accounted I/O (category kVertexValue). MultiLogVC only
// touches the value pages of active vertices; the baselines sweep the whole
// file every superstep — the same asymmetry the paper's CSR-vs-shard
// argument describes, applied to vertex data.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "ssd/storage.hpp"

namespace mlvc::core {

template <typename Value>
class VertexValueStore {
  static_assert(std::is_trivially_copyable_v<Value>);

 public:
  /// On-storage store, initialized with init(v) for every vertex.
  template <typename InitFn>
  VertexValueStore(ssd::Storage& storage, const std::string& name,
                   VertexId num_vertices, InitFn&& init)
      : num_vertices_(num_vertices),
        page_size_(storage.page_size()),
        blob_(&storage.create_blob(name, ssd::IoCategory::kVertexValue)) {
    // Chunked initialization so construction stays within loader-budget
    // scale memory.
    constexpr std::size_t kChunk = 1u << 16;
    std::vector<Value> chunk;
    chunk.reserve(kChunk);
    for (VertexId v = 0; v < num_vertices_; ++v) {
      chunk.push_back(init(v));
      if (chunk.size() == kChunk) {
        blob_->append(chunk.data(), chunk.size() * sizeof(Value));
        chunk.clear();
      }
    }
    blob_->append(chunk.data(), chunk.size() * sizeof(Value));
  }

  VertexId num_vertices() const noexcept { return num_vertices_; }

  /// What gather_spans() read: every coalesced run's span (its requested
  /// vertices plus the gap vertices between them), concatenated, and where
  /// requested vertex k sits in it. Callers read and update values in place
  /// through operator[]; write_back() then writes the spans of the updated
  /// vertices straight from these buffers.
  struct Spans {
    std::vector<Value> buf;
    std::vector<std::size_t> slot;  // requested vertex k -> index in buf
    Value& operator[](std::size_t k) { return buf[slot[k]]; }
    const Value& operator[](std::size_t k) const { return buf[slot[k]]; }
  };

  /// Gather values for an ascending vertex list. Reads are coalesced per
  /// run of vertices whose value bytes share/neighbor pages, so k actives on
  /// one page cost one page read.
  Spans gather_spans(std::span<const VertexId> vertices) const {
    Spans spans;
    spans.slot.resize(vertices.size());
    for_each_coalesced_run(vertices, [&](std::size_t first, std::size_t last) {
      // Read the contiguous span [vertices[first], vertices[last]] once.
      const VertexId vb = vertices[first];
      const VertexId ve = vertices[last];
      const std::size_t off = spans.buf.size();
      spans.buf.resize(off + (ve - vb + 1));
      blob_->read(static_cast<std::uint64_t>(vb) * sizeof(Value),
                  spans.buf.data() + off, (ve - vb + 1) * sizeof(Value));
      for (std::size_t i = first; i <= last; ++i) {
        spans.slot[i] = off + (vertices[i] - vb);
      }
    });
    return spans;
  }

  /// gather_spans()' reads, landed in a vertex-indexed table (gap vertices
  /// of a run included) instead of a staging buffer.
  void gather_into(std::span<const VertexId> vertices,
                   std::span<Value> table) const {
    MLVC_CHECK(table.size() == num_vertices_);
    for_each_coalesced_run(vertices, [&](std::size_t first, std::size_t last) {
      const VertexId vb = vertices[first];
      blob_->read(static_cast<std::uint64_t>(vb) * sizeof(Value),
                  table.data() + vb,
                  (vertices[last] - vb + 1) * sizeof(Value));
    });
  }

  /// gather_spans() with the requested values picked out.
  std::vector<Value> gather(std::span<const VertexId> vertices) const {
    const Spans spans = gather_spans(vertices);
    std::vector<Value> out(vertices.size());
    for (std::size_t i = 0; i < vertices.size(); ++i) out[i] = spans[i];
    return out;
  }

  /// Write back the vertices of a gather_spans() call whose `dirty` flag is
  /// set, from its (caller-updated) buffers, with no read. Dirty vertices
  /// are re-coalesced with gather's page rule, so each written run lies
  /// inside one gathered span and its gap vertices go back with the bytes
  /// the gather read. The caller guarantees nothing else wrote inside those
  /// spans since the gather. No dirty vertex, no write.
  void write_back(std::span<const VertexId> vertices, const Spans& spans,
                  std::span<const std::uint8_t> dirty) {
    MLVC_CHECK(vertices.size() == spans.slot.size() &&
               vertices.size() == dirty.size());
    std::vector<VertexId> ids;
    std::vector<std::size_t> slots;
    for (std::size_t i = 0; i < vertices.size(); ++i) {
      if (dirty[i] == 0) continue;
      ids.push_back(vertices[i]);
      slots.push_back(spans.slot[i]);
    }
    for_each_coalesced_run(ids, [&](std::size_t first, std::size_t last) {
      const std::size_t count = ids[last] - ids[first] + 1;
      MLVC_CHECK(slots[last] - slots[first] + 1 == count);
      blob_->write(static_cast<std::uint64_t>(ids[first]) * sizeof(Value),
                   spans.buf.data() + slots[first], count * sizeof(Value));
    });
  }

  /// Write values for an ascending vertex list with no prior gather and no
  /// read: each coalesced run is written whole, its gap vertices as
  /// Value{}. For stores whose entries outside the written vertices are
  /// never read (the §4e broadcast captures).
  void scatter(std::span<const VertexId> vertices,
               std::span<const Value> values) {
    MLVC_CHECK(vertices.size() == values.size());
    for_each_coalesced_run(vertices, [&](std::size_t first, std::size_t last) {
      const VertexId vb = vertices[first];
      const VertexId ve = vertices[last];
      std::vector<Value> span_buf(ve - vb + 1);
      for (std::size_t i = first; i <= last; ++i) {
        span_buf[vertices[i] - vb] = values[i];
      }
      blob_->write(static_cast<std::uint64_t>(vb) * sizeof(Value),
                   span_buf.data(), span_buf.size() * sizeof(Value));
    });
  }

  /// Contiguous range load/store — the baselines' full-sweep access pattern.
  std::vector<Value> load_range(VertexId begin, VertexId end) const {
    MLVC_CHECK(begin <= end && end <= num_vertices_);
    std::vector<Value> out(end - begin);
    if (out.empty()) return out;
    blob_->read(static_cast<std::uint64_t>(begin) * sizeof(Value), out.data(),
                out.size() * sizeof(Value));
    return out;
  }

  void store_range(VertexId begin, std::span<const Value> values) {
    MLVC_CHECK(begin + values.size() <= num_vertices_);
    if (values.empty()) return;
    blob_->write(static_cast<std::uint64_t>(begin) * sizeof(Value),
                 values.data(), values.size_bytes());
  }

  /// Stream the whole store in ascending bounded chunks:
  /// fn(VertexId chunk_begin, std::span<const Value> values). Whole-store
  /// consumers (result hashing, JSON export, checkpoint save) should use
  /// this instead of all() — peak memory is one chunk, not O(V).
  template <typename Fn>
  void for_each_chunk(Fn&& fn, std::size_t chunk_values = 1u << 16) const {
    MLVC_CHECK(chunk_values > 0);
    VertexId begin = 0;
    while (begin < num_vertices_) {
      const VertexId end = static_cast<VertexId>(std::min<std::uint64_t>(
          num_vertices_, static_cast<std::uint64_t>(begin) + chunk_values));
      const std::vector<Value> chunk = load_range(begin, end);
      fn(begin, std::span<const Value>(chunk));
      begin = end;
    }
  }

  /// Convenience for result extraction (not page-efficient and O(V) peak
  /// memory; prefer for_each_chunk for anything that only scans).
  std::vector<Value> all() const { return load_range(0, num_vertices_); }

 private:
  /// Partition an ascending vertex list into runs where consecutive
  /// vertices' value bytes land on the same or adjacent pages — each run is
  /// served by one contiguous read. Calls fn(first_index, last_index).
  template <typename Fn>
  void for_each_coalesced_run(std::span<const VertexId> vertices,
                              Fn&& fn) const {
    if (vertices.empty()) return;
    const std::size_t page = page_size_;
    const auto page_of = [&](VertexId v) {
      return static_cast<std::uint64_t>(v) * sizeof(Value) / page;
    };
    std::size_t first = 0;
    for (std::size_t i = 1; i <= vertices.size(); ++i) {
      if (i == vertices.size() ||
          page_of(vertices[i]) > page_of(vertices[i - 1]) + 1) {
        fn(first, i - 1);
        first = i;
      }
    }
  }

  VertexId num_vertices_;
  std::size_t page_size_;
  ssd::Blob* blob_;
};

}  // namespace mlvc::core
