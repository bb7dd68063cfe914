// Page-granular I/O accounting.
//
// Every engine in this repo funnels its storage traffic through ssd::Storage,
// which records page reads/writes here, bucketed by what the page holds.
// These counters are the primary evaluation signal: the paper's Figures 5b
// (page-access ratio) and 3 (page utilization) are ratios of exactly these
// numbers.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string_view>

namespace mlvc::ssd {

enum class IoCategory : unsigned {
  kCsrRowPtr = 0,   // CSR row-pointer vector pages
  kCsrColIdx,       // CSR adjacency (column index) pages
  kCsrVal,          // CSR edge value pages
  kMessageLog,      // multi-log message pages (per-interval logs)
  kEdgeLog,         // edge-log optimizer pages
  kShard,           // GraphChi shard pages
  kVertexValue,     // vertex value vector pages
  kSortRun,         // GraFBoost external-sort run pages
  kMisc,
  kCount,
};

inline std::string_view to_string(IoCategory c) {
  switch (c) {
    case IoCategory::kCsrRowPtr: return "csr_row_ptr";
    case IoCategory::kCsrColIdx: return "csr_col_idx";
    case IoCategory::kCsrVal: return "csr_val";
    case IoCategory::kMessageLog: return "message_log";
    case IoCategory::kEdgeLog: return "edge_log";
    case IoCategory::kShard: return "shard";
    case IoCategory::kVertexValue: return "vertex_value";
    case IoCategory::kSortRun: return "sort_run";
    case IoCategory::kMisc: return "misc";
    default: return "?";
  }
}

inline constexpr unsigned kNumIoCategories =
    static_cast<unsigned>(IoCategory::kCount);

/// Plain-value snapshot of the counters (copyable, diffable).
struct IoStatsSnapshot {
  struct Category {
    std::uint64_t pages_read = 0;
    std::uint64_t pages_written = 0;
    /// Physical traffic: bytes as issued against the blob (compressed
    /// lengths under on-disk format v2). Recorded by the Blob I/O layer.
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_written = 0;
    /// Logical traffic: post-decode (read) / pre-encode (write) bytes, as
    /// seen by the consumer layer — decoded adjacency elements, decoded log
    /// records, checkpoint payloads. Recorded by those layers, for both
    /// formats, so logical/physical is the observed compression ratio and
    /// logical/num_edges is bytes-per-edge. Zero for layers that don't
    /// report it.
    std::uint64_t logical_bytes_read = 0;
    std::uint64_t logical_bytes_written = 0;
  };
  std::array<Category, kNumIoCategories> categories{};
  /// Host-side page-cache traffic (ssd::PageCache): hits cost no device
  /// pages, misses show up both here and in the backing category's reads.
  std::uint64_t cache_hit_pages = 0;
  std::uint64_t cache_miss_pages = 0;
  /// Shared-cache churn: valid frames overwritten by CLOCK to admit a new
  /// page, and pages a query read *around* the cache because it was at its
  /// admission quota (bypasses also cost device reads, like misses, but
  /// never displace another query's resident pages).
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_bypass_pages = 0;
  /// High-water mark of resident cache bytes (a gauge like
  /// max_inflight_depth — snapshot diffs carry the current mark through).
  std::uint64_t cache_bytes_high_water = 0;
  /// Robustness counters: I/O attempts re-issued after a transient failure
  /// (EINTR/EAGAIN/EIO), and operations that exhausted the retry budget (or
  /// hit a non-recoverable errno) and escalated as a typed IoError.
  std::uint64_t io_retry_count = 0;
  std::uint64_t io_giveup_count = 0;
  /// io_uring backend visibility: io_uring_enter calls that submitted at
  /// least one SQE, and ops the read_multi coalescer folded into a larger
  /// vectored SQE beyond the first of each run. Both 0 on the thread-pool
  /// backend.
  std::uint64_t submit_batches = 0;
  std::uint64_t sqe_coalesced_ops = 0;
  /// High-water mark of SQEs in flight on any one ring (a gauge, not a
  /// counter — snapshot diffs carry the current mark through unchanged).
  std::uint64_t max_inflight_depth = 0;

  const Category& operator[](IoCategory c) const {
    return categories[static_cast<unsigned>(c)];
  }
  Category& operator[](IoCategory c) {
    return categories[static_cast<unsigned>(c)];
  }

  std::uint64_t total_pages_read() const {
    std::uint64_t t = 0;
    for (const auto& c : categories) t += c.pages_read;
    return t;
  }
  std::uint64_t total_pages_written() const {
    std::uint64_t t = 0;
    for (const auto& c : categories) t += c.pages_written;
    return t;
  }
  std::uint64_t total_pages() const {
    return total_pages_read() + total_pages_written();
  }
  /// Physical bytes as issued against the blobs (compressed under v2).
  std::uint64_t total_bytes_read() const {
    std::uint64_t t = 0;
    for (const auto& c : categories) t += c.bytes_read;
    return t;
  }
  std::uint64_t total_bytes_written() const {
    std::uint64_t t = 0;
    for (const auto& c : categories) t += c.bytes_written;
    return t;
  }
  /// Logical (post-decode / pre-encode) bytes, where the consumer reported
  /// them. logical/physical per category is the observed compression ratio.
  std::uint64_t total_logical_bytes_read() const {
    std::uint64_t t = 0;
    for (const auto& c : categories) t += c.logical_bytes_read;
    return t;
  }
  std::uint64_t total_logical_bytes_written() const {
    std::uint64_t t = 0;
    for (const auto& c : categories) t += c.logical_bytes_written;
    return t;
  }

  IoStatsSnapshot operator-(const IoStatsSnapshot& rhs) const {
    IoStatsSnapshot out;
    for (unsigned i = 0; i < kNumIoCategories; ++i) {
      out.categories[i].pages_read =
          categories[i].pages_read - rhs.categories[i].pages_read;
      out.categories[i].pages_written =
          categories[i].pages_written - rhs.categories[i].pages_written;
      out.categories[i].bytes_read =
          categories[i].bytes_read - rhs.categories[i].bytes_read;
      out.categories[i].bytes_written =
          categories[i].bytes_written - rhs.categories[i].bytes_written;
      out.categories[i].logical_bytes_read =
          categories[i].logical_bytes_read -
          rhs.categories[i].logical_bytes_read;
      out.categories[i].logical_bytes_written =
          categories[i].logical_bytes_written -
          rhs.categories[i].logical_bytes_written;
    }
    out.cache_hit_pages = cache_hit_pages - rhs.cache_hit_pages;
    out.cache_miss_pages = cache_miss_pages - rhs.cache_miss_pages;
    out.cache_evictions = cache_evictions - rhs.cache_evictions;
    out.cache_bypass_pages = cache_bypass_pages - rhs.cache_bypass_pages;
    out.cache_bytes_high_water = cache_bytes_high_water;
    out.io_retry_count = io_retry_count - rhs.io_retry_count;
    out.io_giveup_count = io_giveup_count - rhs.io_giveup_count;
    out.submit_batches = submit_batches - rhs.submit_batches;
    out.sqe_coalesced_ops = sqe_coalesced_ops - rhs.sqe_coalesced_ops;
    // Gauge: the high-water mark as of this snapshot, not a differenceable
    // quantity.
    out.max_inflight_depth = max_inflight_depth;
    return out;
  }
};

/// Thread-safe live counters.
///
/// Multi-tenant attribution: a Storage has ONE IoStats shared by every query
/// running over it, so per-query views need a second sink. A thread inside a
/// query's run installs one with IoStats::ScopedSink; every record_* call on
/// any IoStats then mirrors into the installed sink as well. ssd::AsyncIo
/// captures the submitting thread's sink and re-installs it on the pool
/// thread, so background loads/evictions stay attributed to the query that
/// issued them. The context-level IoStats keeps the cross-query aggregate.
class IoStats {
 public:
  /// Install `sink` as this thread's per-query mirror for the lifetime of
  /// the guard (nullptr = mirror nothing). Nesting restores the previous
  /// sink on destruction.
  class ScopedSink {
   public:
    explicit ScopedSink(IoStats* sink) : prev_(tls_sink()) {
      tls_sink() = sink;
    }
    ~ScopedSink() { tls_sink() = prev_; }
    ScopedSink(const ScopedSink&) = delete;
    ScopedSink& operator=(const ScopedSink&) = delete;

   private:
    IoStats* prev_;
  };

  /// The sink installed on the calling thread (nullptr when none).
  static IoStats* current_sink() noexcept { return tls_sink(); }

  void record_read(IoCategory c, std::uint64_t pages, std::uint64_t bytes) {
    record_read_impl(c, pages, bytes);
    if (IoStats* s = mirror()) s->record_read_impl(c, pages, bytes);
  }
  void record_write(IoCategory c, std::uint64_t pages, std::uint64_t bytes) {
    record_write_impl(c, pages, bytes);
    if (IoStats* s = mirror()) s->record_write_impl(c, pages, bytes);
  }
  void record_logical_read(IoCategory c, std::uint64_t bytes) {
    record_logical_read_impl(c, bytes);
    if (IoStats* s = mirror()) s->record_logical_read_impl(c, bytes);
  }
  void record_logical_write(IoCategory c, std::uint64_t bytes) {
    record_logical_write_impl(c, bytes);
    if (IoStats* s = mirror()) s->record_logical_write_impl(c, bytes);
  }
  void record_cache_hit(std::uint64_t pages) {
    cache_hit_pages_.fetch_add(pages, std::memory_order_relaxed);
    if (IoStats* s = mirror()) {
      s->cache_hit_pages_.fetch_add(pages, std::memory_order_relaxed);
    }
  }
  void record_cache_miss(std::uint64_t pages) {
    cache_miss_pages_.fetch_add(pages, std::memory_order_relaxed);
    if (IoStats* s = mirror()) {
      s->cache_miss_pages_.fetch_add(pages, std::memory_order_relaxed);
    }
  }
  void record_cache_eviction(std::uint64_t pages) {
    cache_evictions_.fetch_add(pages, std::memory_order_relaxed);
    if (IoStats* s = mirror()) {
      s->cache_evictions_.fetch_add(pages, std::memory_order_relaxed);
    }
  }
  void record_cache_bypass(std::uint64_t pages) {
    cache_bypass_pages_.fetch_add(pages, std::memory_order_relaxed);
    if (IoStats* s = mirror()) {
      s->cache_bypass_pages_.fetch_add(pages, std::memory_order_relaxed);
    }
  }
  void record_cache_high_water(std::uint64_t bytes) {
    record_max(cache_bytes_high_water_, bytes);
    if (IoStats* s = mirror()) record_max(s->cache_bytes_high_water_, bytes);
  }
  void record_io_retry() {
    io_retry_count_.fetch_add(1, std::memory_order_relaxed);
    if (IoStats* s = mirror()) {
      s->io_retry_count_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void record_io_giveup() {
    io_giveup_count_.fetch_add(1, std::memory_order_relaxed);
    if (IoStats* s = mirror()) {
      s->io_giveup_count_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void record_submit_batch() {
    submit_batches_.fetch_add(1, std::memory_order_relaxed);
    if (IoStats* s = mirror()) {
      s->submit_batches_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void record_sqe_coalesced(std::uint64_t ops) {
    sqe_coalesced_ops_.fetch_add(ops, std::memory_order_relaxed);
    if (IoStats* s = mirror()) {
      s->sqe_coalesced_ops_.fetch_add(ops, std::memory_order_relaxed);
    }
  }
  void record_inflight_depth(std::uint64_t depth) {
    record_max(max_inflight_depth_, depth);
    if (IoStats* s = mirror()) record_max(s->max_inflight_depth_, depth);
  }
  IoStatsSnapshot snapshot() const {
    IoStatsSnapshot out;
    for (unsigned i = 0; i < kNumIoCategories; ++i) {
      out.categories[i].pages_read =
          categories_[i].pages_read.load(std::memory_order_relaxed);
      out.categories[i].pages_written =
          categories_[i].pages_written.load(std::memory_order_relaxed);
      out.categories[i].bytes_read =
          categories_[i].bytes_read.load(std::memory_order_relaxed);
      out.categories[i].bytes_written =
          categories_[i].bytes_written.load(std::memory_order_relaxed);
      out.categories[i].logical_bytes_read =
          categories_[i].logical_bytes_read.load(std::memory_order_relaxed);
      out.categories[i].logical_bytes_written =
          categories_[i].logical_bytes_written.load(std::memory_order_relaxed);
    }
    out.cache_hit_pages = cache_hit_pages_.load(std::memory_order_relaxed);
    out.cache_miss_pages = cache_miss_pages_.load(std::memory_order_relaxed);
    out.cache_evictions = cache_evictions_.load(std::memory_order_relaxed);
    out.cache_bypass_pages =
        cache_bypass_pages_.load(std::memory_order_relaxed);
    out.cache_bytes_high_water =
        cache_bytes_high_water_.load(std::memory_order_relaxed);
    out.io_retry_count = io_retry_count_.load(std::memory_order_relaxed);
    out.io_giveup_count = io_giveup_count_.load(std::memory_order_relaxed);
    out.submit_batches = submit_batches_.load(std::memory_order_relaxed);
    out.sqe_coalesced_ops =
        sqe_coalesced_ops_.load(std::memory_order_relaxed);
    out.max_inflight_depth =
        max_inflight_depth_.load(std::memory_order_relaxed);
    return out;
  }

  void reset() {
    for (auto& cat : categories_) {
      cat.pages_read.store(0, std::memory_order_relaxed);
      cat.pages_written.store(0, std::memory_order_relaxed);
      cat.bytes_read.store(0, std::memory_order_relaxed);
      cat.bytes_written.store(0, std::memory_order_relaxed);
      cat.logical_bytes_read.store(0, std::memory_order_relaxed);
      cat.logical_bytes_written.store(0, std::memory_order_relaxed);
    }
    cache_hit_pages_.store(0, std::memory_order_relaxed);
    cache_miss_pages_.store(0, std::memory_order_relaxed);
    cache_evictions_.store(0, std::memory_order_relaxed);
    cache_bypass_pages_.store(0, std::memory_order_relaxed);
    cache_bytes_high_water_.store(0, std::memory_order_relaxed);
    io_retry_count_.store(0, std::memory_order_relaxed);
    io_giveup_count_.store(0, std::memory_order_relaxed);
    submit_batches_.store(0, std::memory_order_relaxed);
    sqe_coalesced_ops_.store(0, std::memory_order_relaxed);
    max_inflight_depth_.store(0, std::memory_order_relaxed);
  }

 private:
  struct Category {
    std::atomic<std::uint64_t> pages_read{0};
    std::atomic<std::uint64_t> pages_written{0};
    std::atomic<std::uint64_t> bytes_read{0};
    std::atomic<std::uint64_t> bytes_written{0};
    std::atomic<std::uint64_t> logical_bytes_read{0};
    std::atomic<std::uint64_t> logical_bytes_written{0};
  };

  static IoStats*& tls_sink() noexcept {
    thread_local IoStats* sink = nullptr;
    return sink;
  }
  /// The per-query sink to mirror into — skipped when recording directly
  /// into the sink itself (the sink is an IoStats too; without the guard a
  /// query's own counters would double).
  IoStats* mirror() const noexcept {
    IoStats* s = tls_sink();
    return s == this ? nullptr : s;
  }
  static void record_max(std::atomic<std::uint64_t>& gauge,
                         std::uint64_t value) {
    std::uint64_t cur = gauge.load(std::memory_order_relaxed);
    while (value > cur && !gauge.compare_exchange_weak(
                              cur, value, std::memory_order_relaxed)) {
    }
  }
  void record_read_impl(IoCategory c, std::uint64_t pages,
                        std::uint64_t bytes) {
    auto& cat = categories_[static_cast<unsigned>(c)];
    cat.pages_read.fetch_add(pages, std::memory_order_relaxed);
    cat.bytes_read.fetch_add(bytes, std::memory_order_relaxed);
  }
  void record_write_impl(IoCategory c, std::uint64_t pages,
                         std::uint64_t bytes) {
    auto& cat = categories_[static_cast<unsigned>(c)];
    cat.pages_written.fetch_add(pages, std::memory_order_relaxed);
    cat.bytes_written.fetch_add(bytes, std::memory_order_relaxed);
  }
  void record_logical_read_impl(IoCategory c, std::uint64_t bytes) {
    categories_[static_cast<unsigned>(c)].logical_bytes_read.fetch_add(
        bytes, std::memory_order_relaxed);
  }
  void record_logical_write_impl(IoCategory c, std::uint64_t bytes) {
    categories_[static_cast<unsigned>(c)].logical_bytes_written.fetch_add(
        bytes, std::memory_order_relaxed);
  }

  std::array<Category, kNumIoCategories> categories_{};
  std::atomic<std::uint64_t> cache_hit_pages_{0};
  std::atomic<std::uint64_t> cache_miss_pages_{0};
  std::atomic<std::uint64_t> cache_evictions_{0};
  std::atomic<std::uint64_t> cache_bypass_pages_{0};
  std::atomic<std::uint64_t> cache_bytes_high_water_{0};
  std::atomic<std::uint64_t> io_retry_count_{0};
  std::atomic<std::uint64_t> io_giveup_count_{0};
  std::atomic<std::uint64_t> submit_batches_{0};
  std::atomic<std::uint64_t> sqe_coalesced_ops_{0};
  std::atomic<std::uint64_t> max_inflight_depth_{0};
};

}  // namespace mlvc::ssd
