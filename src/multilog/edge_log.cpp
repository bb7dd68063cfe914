#include "multilog/edge_log.hpp"

#include <cstring>

#include "common/error.hpp"

namespace mlvc::multilog {

EdgeLog::EdgeLog(ssd::Storage& storage, std::string prefix,
                 EdgeLogConfig config)
    : storage_(storage),
      prefix_(std::move(prefix)),
      config_(config),
      page_size_(storage.page_size()) {
  reset_generation(generations_[0], prefix_ + "/edgelog_gen0");
  reset_generation(generations_[1], prefix_ + "/edgelog_gen1");
}

void EdgeLog::reset_generation(Generation& gen, const std::string& name) {
  gen.blob = &storage_.create_blob(name, ssd::IoCategory::kEdgeLog);
  gen.index.clear();
  gen.top.clear();
  gen.flushed_bytes = 0;
}

std::size_t EdgeLog::entry_bytes(VertexId degree) const {
  // Adjacency only; the vertex id and degree live in the in-memory index,
  // so every logged byte is useful on read-back.
  return static_cast<std::size_t>(degree) *
         (sizeof(VertexId) + (config_.with_weights ? sizeof(float) : 0));
}

bool EdgeLog::log_edges(VertexId v, std::span<const VertexId> adjacency,
                        std::span<const float> weights) {
  MLVC_CHECK_MSG(!config_.with_weights || weights.size() == adjacency.size(),
                 "weighted edge log requires a weight per edge");
  std::lock_guard<std::mutex> lock(mutex_);
  Generation& gen = generations_[produce_index_];
  if (gen.index.count(v) != 0) return true;  // already logged this superstep

  if (config_.buffer_budget_bytes != 0) {
    // Budget covers the index (~48 B/entry with hash overhead) plus the
    // resident tail; decline once exceeded rather than grow unbounded.
    const std::size_t index_cost = (gen.index.size() + 1) * 48;
    if (index_cost + gen.top.size() + entry_bytes(adjacency.size()) >
        config_.buffer_budget_bytes) {
      return false;
    }
  }

  const std::uint64_t offset = gen.flushed_bytes + gen.top.size();
  const std::size_t old_size = gen.top.size();
  gen.top.resize(old_size + entry_bytes(static_cast<VertexId>(adjacency.size())));
  // An empty adjacency on an empty tail has null data pointers on both
  // sides, which memcpy does not allow even for zero bytes.
  if (!adjacency.empty()) {
    std::byte* out = gen.top.data() + old_size;
    std::memcpy(out, adjacency.data(), adjacency.size_bytes());
    if (config_.with_weights) {
      std::memcpy(out + adjacency.size_bytes(), weights.data(),
                  weights.size_bytes());
    }
  }

  // Page-granular flush of every full page in the tail.
  while (gen.top.size() >= page_size_) {
    gen.blob->append(gen.top.data(), page_size_);
    gen.top.erase(gen.top.begin(),
                  gen.top.begin() + static_cast<std::ptrdiff_t>(page_size_));
    gen.flushed_bytes += page_size_;
  }

  gen.index.emplace(v, Entry{offset, static_cast<VertexId>(adjacency.size())});
  produced_edges_ += adjacency.size();
  return true;
}

std::uint64_t EdgeLog::produced_vertices() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return generations_[produce_index_].index.size();
}

std::uint64_t EdgeLog::produced_edges() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return produced_edges_;
}

bool EdgeLog::contains(VertexId v) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return generations_[1 - produce_index_].index.count(v) != 0;
}

void EdgeLog::read_stream(const Generation& gen, std::uint64_t offset,
                          void* out, std::size_t len) const {
  std::byte* dst = static_cast<std::byte*>(out);
  if (offset < gen.flushed_bytes) {
    const std::size_t from_blob = static_cast<std::size_t>(
        std::min<std::uint64_t>(len, gen.flushed_bytes - offset));
    gen.blob->read(offset, dst, from_blob);
    dst += from_blob;
    offset += from_blob;
    len -= from_blob;
  }
  if (len > 0) {
    // Resident tail: free, as it never left host memory.
    const std::size_t tail_off =
        static_cast<std::size_t>(offset - gen.flushed_bytes);
    MLVC_CHECK(tail_off + len <= gen.top.size());
    std::memcpy(dst, gen.top.data() + tail_off, len);
  }
}

bool EdgeLog::load_edges(VertexId v, std::vector<VertexId>& adjacency,
                         std::vector<float>* weights) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Generation& gen = generations_[1 - produce_index_];
  const auto it = gen.index.find(v);
  if (it == gen.index.end()) {
    ++misses_;
    return false;
  }
  ++hits_;
  const Entry& e = it->second;
  adjacency.resize(e.degree);
  read_stream(gen, e.offset, adjacency.data(),
              e.degree * sizeof(VertexId));
  if (config_.with_weights && weights != nullptr) {
    weights->resize(e.degree);
    read_stream(gen, e.offset + e.degree * sizeof(VertexId), weights->data(),
                e.degree * sizeof(float));
  }
  return true;
}

void EdgeLog::swap_generations() {
  std::lock_guard<std::mutex> lock(mutex_);
  const unsigned consume = 1 - produce_index_;
  ++swap_count_;
  reset_generation(generations_[consume],
                   prefix_ + "/edgelog_s" + std::to_string(swap_count_));
  produce_index_ = consume;
  produced_edges_ = 0;
}

void EdgeLog::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++swap_count_;
  reset_generation(generations_[0], prefix_ + "/edgelog_reset0_s" +
                                        std::to_string(swap_count_));
  reset_generation(generations_[1], prefix_ + "/edgelog_reset1_s" +
                                        std::to_string(swap_count_));
  produce_index_ = 0;
  produced_edges_ = 0;
}

}  // namespace mlvc::multilog
