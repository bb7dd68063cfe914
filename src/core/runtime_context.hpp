// Process-wide runtime substrate for multi-tenant serving.
//
// A one-shot run owns everything: the Engine constructs its Storage, probes
// the io backend, sizes a private page cache, and its RunStats are the whole
// story. That shape makes "many concurrent queries over one graph" —
// FlashGraph's serving model, and the ROADMAP's north star — structurally
// impossible: two engines would race set_io_backend, collide on blob names,
// double-own the cache, and trample each other's counters.
//
// RuntimeContext hoists the per-PROCESS state out of the engine so an
// Engine becomes a cheap per-QUERY object:
//
//   RuntimeContext
//     ├── ssd::Storage           one directory of blobs, one DeviceModel,
//     │                          one cross-query IoStats aggregate
//     ├── io-backend selection   probed + selected exactly once
//     │                          (ssd::shared_io_backend_probe); engines in
//     │                          context mode never call set_io_backend
//     ├── ssd::PageCache         ONE shared adjacency cache; queries get
//     │                          QuerySlots (per-query hit/miss split +
//     │                          admission quota)
//     ├── BudgetArbiter          the Figure 4 host budget as a process pool;
//     │                          each query leases its whole budget up
//     │                          front and blocks until admitted
//     ├── SnapshotTable          generation-versioned publish over
//     │                          Storage::publish_blob with pinned read
//     │                          snapshots — a query never observes a
//     │                          half-published (or concurrently
//     │                          republished) checkpoint
//     └── query registry         unique query ids → unique blob prefixes,
//                                context-level aggregates merged from each
//                                query's RunStats view
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/memory_budget.hpp"
#include "core/stats.hpp"
#include "graph/stored_csr.hpp"
#include "ssd/device_model.hpp"
#include "ssd/io_backend.hpp"
#include "ssd/page_cache.hpp"
#include "ssd/storage.hpp"

namespace mlvc::core {

/// Generation-versioned blob publication with read-snapshot isolation.
///
/// publish(name, tmp) atomically renames `tmp` to the next generation of
/// `name` (blob "<name>@g<N>"); pin() freezes the set of latest generations
/// so a reader resolves names to the generations that were current at pin
/// time, no matter what is published meanwhile. A superseded generation's
/// blob is garbage-collected as soon as its pin count drops to zero — never
/// under a reader.
class SnapshotTable {
 public:
  explicit SnapshotTable(ssd::Storage& storage) : storage_(storage) {}

  /// A pinned read snapshot. Move-only RAII: destruction (or reset())
  /// unpins, letting superseded generations be collected.
  class Ref {
   public:
    Ref() = default;
    ~Ref() { reset(); }
    Ref(Ref&& other) noexcept
        : table_(other.table_), pinned_(std::move(other.pinned_)) {
      other.table_ = nullptr;
      other.pinned_.clear();
    }
    Ref& operator=(Ref&& other) noexcept {
      if (this != &other) {
        reset();
        table_ = other.table_;
        pinned_ = std::move(other.pinned_);
        other.table_ = nullptr;
        other.pinned_.clear();
      }
      return *this;
    }
    Ref(const Ref&) = delete;
    Ref& operator=(const Ref&) = delete;

    bool contains(const std::string& name) const {
      return pinned_.count(name) != 0;
    }
    /// The versioned blob name `name` resolves to under this snapshot.
    /// Throws InvalidArgument for names not published at pin time (a name
    /// published after the pin is — correctly — invisible).
    const std::string& resolve(const std::string& name) const;

    void reset();

   private:
    friend class SnapshotTable;
    struct Pin {
      std::uint64_t generation = 0;
      std::string blob;
    };
    SnapshotTable* table_ = nullptr;
    std::map<std::string, Pin> pinned_;
  };

  /// Atomically publish blob `tmp_blob` as the next generation of `name`.
  /// Returns the generation number. Bumps the epoch.
  std::uint64_t publish(const std::string& name, const std::string& tmp_blob);

  /// Pin the currently-latest generation of every published name.
  Ref pin();

  /// Monotonic publish counter (0 = nothing published yet).
  std::uint64_t epoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }
  /// Latest generation of `name` (0 = never published).
  std::uint64_t generation(const std::string& name) const;
  /// Generations of `name` whose blobs are still live (latest + pinned).
  std::size_t live_generations(const std::string& name) const;

 private:
  struct Generation {
    std::uint64_t number = 0;
    std::string blob;
    std::size_t pins = 0;
  };

  static std::string versioned_name(const std::string& name,
                                    std::uint64_t generation);
  void unpin(const std::map<std::string, Ref::Pin>& pinned);
  /// Drop superseded, unpinned generations of `name` (mutex held).
  void gc_locked(const std::string& name);

  ssd::Storage& storage_;
  mutable std::mutex mutex_;
  std::map<std::string, std::vector<Generation>> table_;
  std::atomic<std::uint64_t> epoch_{0};
};

/// Owns a context-mode query's "q<id>/" blob namespace: destruction removes
/// every blob still under it (values, multi-log, edge-log and broadcast
/// blobs, a checkpoint image a failed save left staged), closing their file
/// descriptors. A checkpoint the SnapshotTable published was renamed out of
/// the namespace and survives. A null storage owns nothing (one-shot
/// engines keep their blobs).
class QueryBlobScope {
 public:
  QueryBlobScope(ssd::Storage* storage, std::string prefix)
      : storage_(storage), prefix_(std::move(prefix)) {}
  ~QueryBlobScope() {
    if (storage_ == nullptr) return;
    try {
      storage_->remove_blobs_under(prefix_);
    } catch (...) {
      // Blobs left behind cost descriptors and disk, never correctness.
    }
  }
  QueryBlobScope(const QueryBlobScope&) = delete;
  QueryBlobScope& operator=(const QueryBlobScope&) = delete;

 private:
  ssd::Storage* storage_;
  std::string prefix_;
};

/// Cross-query aggregates the context accumulates from per-query RunStats.
struct ContextAggregates {
  std::uint64_t queries_completed = 0;
  std::uint64_t supersteps = 0;
  std::uint64_t messages = 0;
  std::uint64_t pages_read = 0;
  std::uint64_t pages_written = 0;
  std::uint64_t cache_hit_pages = 0;
  std::uint64_t cache_miss_pages = 0;
  std::uint64_t cache_bypass_pages = 0;
  double query_wall_seconds = 0;  // summed across queries (overlaps!)
};

struct RuntimeContextOptions {
  ssd::DeviceConfig device{};
  /// Selected once for the whole context (engines inherit it). The context
  /// applies the storage env rows (ssd::apply_io_env) over the backend,
  /// queue depth and retry policy, the way the engine does over its own
  /// options.
  ssd::IoBackendKind io_backend = ssd::IoBackendKind::kThreadPool;
  unsigned io_queue_depth = 64;
  ssd::RetryPolicy retry{};
  /// Process pool the BudgetArbiter leases per-query budgets from.
  std::size_t memory_pool_bytes = 256_MiB;
  /// Capacity of the shared adjacency PageCache.
  std::size_t shared_cache_bytes = 8_MiB;
};

class RuntimeContext {
 public:
  /// Creates (or reuses) `dir` as the backing storage directory, probes and
  /// selects the io backend once, and sizes the shared cache and budget
  /// pool.
  explicit RuntimeContext(std::filesystem::path dir,
                          RuntimeContextOptions options = {});

  RuntimeContext(const RuntimeContext&) = delete;
  RuntimeContext& operator=(const RuntimeContext&) = delete;

  ssd::Storage& storage() noexcept { return storage_; }
  const RuntimeContextOptions& options() const noexcept { return options_; }

  /// The shared adjacency cache (never null; capacity at least one page).
  const std::shared_ptr<ssd::PageCache>& shared_cache() const noexcept {
    return shared_cache_;
  }
  BudgetArbiter& arbiter() noexcept { return arbiter_; }
  SnapshotTable& snapshots() noexcept { return snapshots_; }

  /// Backend the context's probe actually selected, and why a kUring
  /// request fell back ("" = it didn't).
  ssd::IoBackendKind io_backend() const noexcept { return io_backend_; }
  std::string io_backend_name() const {
    return std::string(ssd::to_string(io_backend_));
  }
  const std::string& io_backend_fallback() const noexcept {
    return io_fallback_;
  }

  /// Route the graph's adjacency reads through the shared cache. Call once
  /// per graph after materialization.
  void adopt_graph(graph::StoredCsrGraph& graph) {
    graph.set_adjacency_cache(shared_cache_);
  }

  /// Monotonic per-context query ids; "q<id>" namespaces every blob a query
  /// creates, so concurrent engines on one Storage can't collide.
  std::uint64_t next_query_id() noexcept {
    return next_query_id_.fetch_add(1, std::memory_order_relaxed);
  }
  static std::string query_prefix(std::uint64_t query_id) {
    return "q" + std::to_string(query_id);
  }

  /// Fold one finished query's RunStats view into the context aggregates.
  void merge_run(const RunStats& stats);
  ContextAggregates aggregates() const;

  /// The context-level IoStats snapshot (every query's traffic combined).
  ssd::IoStatsSnapshot io_snapshot() const { return storage_.stats().snapshot(); }

 private:
  RuntimeContextOptions options_;
  ssd::Storage storage_;
  std::shared_ptr<ssd::PageCache> shared_cache_;
  BudgetArbiter arbiter_;
  SnapshotTable snapshots_;
  ssd::IoBackendKind io_backend_ = ssd::IoBackendKind::kThreadPool;
  std::string io_fallback_;
  std::atomic<std::uint64_t> next_query_id_{0};
  mutable std::mutex agg_mutex_;
  ContextAggregates aggregates_{};
};

}  // namespace mlvc::core
