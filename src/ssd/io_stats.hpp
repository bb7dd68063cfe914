// Page-granular I/O accounting.
//
// Every engine in this repo funnels its storage traffic through ssd::Storage,
// which records page reads/writes here, bucketed by what the page holds.
// These counters are the primary evaluation signal: the paper's Figures 5b
// (page-access ratio) and 3 (page utilization) are ratios of exactly these
// numbers.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <string_view>
#include <type_traits>

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

/// How a field combines: a counter accumulates (diffs subtract, sums add);
/// a gauge is a high-water mark (diffs carry the current mark through, sums
/// take the max).
enum class IoFieldKind : std::uint8_t { kCounter, kGauge };

/// One entry of a field list below: the field's run-JSON key, where it
/// lives in the snapshot, and how it combines.
template <typename Owner>
struct IoField {
  std::string_view key;
  std::uint64_t Owner::*member;
  IoFieldKind kind = IoFieldKind::kCounter;
};

/// Plain-value snapshot of the counters (copyable, diffable, summable).
/// Every field is also listed in kIoCategoryFields or kIoScalarFields,
/// which drive the live counters, the arithmetic and the run JSON.
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
  /// High-water mark of resident cache bytes (a gauge).
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
  /// High-water mark of SQEs in flight on any one ring (a gauge).
  std::uint64_t max_inflight_depth = 0;

  const Category& operator[](IoCategory c) const {
    return categories[static_cast<unsigned>(c)];
  }
  Category& operator[](IoCategory c) {
    return categories[static_cast<unsigned>(c)];
  }

  /// One per-category field summed over every category.
  std::uint64_t total(std::uint64_t Category::*field) const {
    std::uint64_t t = 0;
    for (const auto& c : categories) t += c.*field;
    return t;
  }
  std::uint64_t total_pages_read() const {
    return total(&Category::pages_read);
  }
  std::uint64_t total_pages_written() const {
    return total(&Category::pages_written);
  }
  std::uint64_t total_pages() const {
    return total_pages_read() + total_pages_written();
  }
  /// Physical bytes as issued against the blobs (compressed under v2).
  std::uint64_t total_bytes_read() const {
    return total(&Category::bytes_read);
  }
  std::uint64_t total_bytes_written() const {
    return total(&Category::bytes_written);
  }
  /// Logical (post-decode / pre-encode) bytes, where the consumer reported
  /// them. logical/physical per category is the observed compression ratio.
  std::uint64_t total_logical_bytes_read() const {
    return total(&Category::logical_bytes_read);
  }
  std::uint64_t total_logical_bytes_written() const {
    return total(&Category::logical_bytes_written);
  }

  /// Traffic between two snapshots: counters subtract, gauges keep this
  /// snapshot's mark.
  IoStatsSnapshot operator-(const IoStatsSnapshot& rhs) const;
  /// Traffic of two disjoint spans: counters add, gauges take the max.
  IoStatsSnapshot& operator+=(const IoStatsSnapshot& rhs);
};

/// The per-category fields, in run-JSON order (`io.by_category`).
inline constexpr IoField<IoStatsSnapshot::Category> kIoCategoryFields[] = {
    {"pages_read", &IoStatsSnapshot::Category::pages_read},
    {"pages_written", &IoStatsSnapshot::Category::pages_written},
    {"bytes_read", &IoStatsSnapshot::Category::bytes_read},
    {"bytes_written", &IoStatsSnapshot::Category::bytes_written},
    {"logical_bytes_read", &IoStatsSnapshot::Category::logical_bytes_read},
    {"logical_bytes_written",
     &IoStatsSnapshot::Category::logical_bytes_written},
};

/// The scalar fields, in run-JSON order (the per-superstep `io` object).
inline constexpr IoField<IoStatsSnapshot> kIoScalarFields[] = {
    {"cache_hit_pages", &IoStatsSnapshot::cache_hit_pages},
    {"cache_miss_pages", &IoStatsSnapshot::cache_miss_pages},
    {"cache_evictions", &IoStatsSnapshot::cache_evictions},
    {"cache_bypass_pages", &IoStatsSnapshot::cache_bypass_pages},
    {"cache_bytes_high_water", &IoStatsSnapshot::cache_bytes_high_water,
     IoFieldKind::kGauge},
    {"io_retries", &IoStatsSnapshot::io_retry_count},
    {"io_giveups", &IoStatsSnapshot::io_giveup_count},
    {"submit_batches", &IoStatsSnapshot::submit_batches},
    {"sqe_coalesced_ops", &IoStatsSnapshot::sqe_coalesced_ops},
    {"max_inflight_depth", &IoStatsSnapshot::max_inflight_depth,
     IoFieldKind::kGauge},
};

inline IoStatsSnapshot IoStatsSnapshot::operator-(
    const IoStatsSnapshot& rhs) const {
  const auto diff = [](auto& out, const auto& r, const auto& fields) {
    for (const auto& f : fields) {
      if (f.kind == IoFieldKind::kCounter) out.*f.member -= r.*f.member;
    }
  };
  IoStatsSnapshot out = *this;
  for (unsigned i = 0; i < kNumIoCategories; ++i) {
    diff(out.categories[i], rhs.categories[i], kIoCategoryFields);
  }
  diff(out, rhs, kIoScalarFields);
  return out;
}

inline IoStatsSnapshot& IoStatsSnapshot::operator+=(
    const IoStatsSnapshot& rhs) {
  const auto sum = [](auto& out, const auto& r, const auto& fields) {
    for (const auto& f : fields) {
      out.*f.member = f.kind == IoFieldKind::kGauge
                          ? std::max(out.*f.member, r.*f.member)
                          : out.*f.member + r.*f.member;
    }
  };
  for (unsigned i = 0; i < kNumIoCategories; ++i) {
    sum(categories[i], rhs.categories[i], kIoCategoryFields);
  }
  sum(*this, rhs, kIoScalarFields);
  return *this;
}

/// Thread-safe live counters: one relaxed atomic per listed field.
///
/// Multi-tenant attribution: a Storage has ONE IoStats shared by every query
/// running over it, so per-query views need a second sink. A thread inside a
/// query's run installs one with IoStats::ScopedSink; every record_* call on
/// any IoStats then mirrors into the installed sink as well. ssd::AsyncIo
/// captures the submitting thread's sink and re-installs it on the pool
/// thread, so background loads/evictions stay attributed to the query that
/// issued them. The context-level IoStats keeps the cross-query aggregate.
class IoStats {
  using Cat = IoStatsSnapshot::Category;
  using Snap = IoStatsSnapshot;

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
    add<&Cat::pages_read, &Cat::bytes_read>(c, pages, bytes);
  }
  void record_write(IoCategory c, std::uint64_t pages, std::uint64_t bytes) {
    add<&Cat::pages_written, &Cat::bytes_written>(c, pages, bytes);
  }
  void record_logical_read(IoCategory c, std::uint64_t bytes) {
    add<&Cat::logical_bytes_read>(c, bytes);
  }
  void record_logical_write(IoCategory c, std::uint64_t bytes) {
    add<&Cat::logical_bytes_written>(c, bytes);
  }
  void record_cache_hit(std::uint64_t pages) {
    add<&Snap::cache_hit_pages>(kNoCategory, pages);
  }
  void record_cache_miss(std::uint64_t pages) {
    add<&Snap::cache_miss_pages>(kNoCategory, pages);
  }
  void record_cache_eviction(std::uint64_t pages) {
    add<&Snap::cache_evictions>(kNoCategory, pages);
  }
  void record_cache_bypass(std::uint64_t pages) {
    add<&Snap::cache_bypass_pages>(kNoCategory, pages);
  }
  void record_cache_high_water(std::uint64_t bytes) {
    add<&Snap::cache_bytes_high_water>(kNoCategory, bytes);
  }
  void record_io_retry() { add<&Snap::io_retry_count>(kNoCategory, 1); }
  void record_io_giveup() { add<&Snap::io_giveup_count>(kNoCategory, 1); }
  void record_submit_batch() { add<&Snap::submit_batches>(kNoCategory, 1); }
  void record_sqe_coalesced(std::uint64_t ops) {
    add<&Snap::sqe_coalesced_ops>(kNoCategory, ops);
  }
  void record_inflight_depth(std::uint64_t depth) {
    add<&Snap::max_inflight_depth>(kNoCategory, depth);
  }

  IoStatsSnapshot snapshot() const {
    IoStatsSnapshot out;
    for (unsigned c = 0; c < kNumIoCategories; ++c) {
      for (std::size_t i = 0; i < std::size(kIoCategoryFields); ++i) {
        out.categories[c].*kIoCategoryFields[i].member =
            categories_[c][i].load(std::memory_order_relaxed);
      }
    }
    for (std::size_t i = 0; i < std::size(kIoScalarFields); ++i) {
      out.*kIoScalarFields[i].member =
          scalars_[i].load(std::memory_order_relaxed);
    }
    return out;
  }

  void reset() {
    for (auto& cat : categories_) {
      for (auto& cell : cat) cell.store(0, std::memory_order_relaxed);
    }
    for (auto& cell : scalars_) cell.store(0, std::memory_order_relaxed);
  }

 private:
  using Cell = std::atomic<std::uint64_t>;
  /// The category argument of add() for scalar fields, which ignore it.
  static constexpr IoCategory kNoCategory = IoCategory::kCount;

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

  /// Position of `member` in `fields` (a compile error when unlisted).
  template <typename Owner, std::size_t N>
  static constexpr std::size_t index_of(const IoField<Owner> (&fields)[N],
                                        std::uint64_t Owner::*member) {
    for (std::size_t i = 0; i < N; ++i) {
      if (fields[i].member == member) return i;
    }
    throw "field missing from its list";
  }

  /// Counter: add `v`. Gauge: raise the mark to `v`.
  template <IoFieldKind kind>
  static void bump(Cell& cell, std::uint64_t v) {
    if constexpr (kind == IoFieldKind::kGauge) {
      std::uint64_t cur = cell.load(std::memory_order_relaxed);
      while (v > cur && !cell.compare_exchange_weak(
                            cur, v, std::memory_order_relaxed)) {
      }
    } else {
      cell.fetch_add(v, std::memory_order_relaxed);
    }
  }

  /// Record `v` into `Field` of `stats` (category `c` for per-category
  /// fields).
  template <auto Field>
  static void update(IoStats& stats, IoCategory c, std::uint64_t v) {
    if constexpr (std::is_same_v<decltype(Field), std::uint64_t Snap::*>) {
      constexpr std::size_t i = index_of(kIoScalarFields, Field);
      bump<kIoScalarFields[i].kind>(stats.scalars_[i], v);
    } else {
      constexpr std::size_t i = index_of(kIoCategoryFields, Field);
      bump<kIoCategoryFields[i].kind>(
          stats.categories_[static_cast<unsigned>(c)][i], v);
    }
  }

  /// Record `v...` into `Fields...` here and in the thread's sink: one TLS
  /// lookup per call and one relaxed atomic op per field on each side.
  template <auto... Fields, typename... V>
  void add(IoCategory c, V... v) {
    (update<Fields>(*this, c, v), ...);
    if (IoStats* s = mirror()) (update<Fields>(*s, c, v), ...);
  }

  std::array<std::array<Cell, std::size(kIoCategoryFields)>, kNumIoCategories>
      categories_{};
  std::array<Cell, std::size(kIoScalarFields)> scalars_{};
};

}  // namespace mlvc::ssd
