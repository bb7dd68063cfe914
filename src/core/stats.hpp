// Per-superstep and per-run execution statistics.
//
// Every figure in the paper's evaluation is some view over these numbers:
// active counts (Fig 2), page accesses (Fig 5b), storage/compute split
// (Fig 5c), per-superstep relative time (Fig 7), predictor recall (Fig 9).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "ssd/io_stats.hpp"

namespace mlvc::core {

struct SuperstepStats {
  Superstep superstep = 0;
  std::uint64_t active_vertices = 0;
  std::uint64_t messages_consumed = 0;
  std::uint64_t messages_produced = 0;
  /// Out-edges traversed by sends this superstep ("active edges" in Fig 2).
  std::uint64_t edges_activated = 0;

  ssd::IoStatsSnapshot io;  // traffic attributable to this superstep
  double modeled_storage_seconds = 0;  // device model, this superstep
  /// Host wall time the superstep's critical path spent doing compute work:
  /// sort/combine/group (when not hidden by the pipeline) plus vertex
  /// processing. Measured directly, not derived from total_wall_seconds.
  double compute_wall_seconds = 0;
  /// Host wall time the critical path spent blocked on storage: log loads,
  /// adjacency/value fetches, and waits on pipeline prefetch futures. Under
  /// pipelined execution this shrinks as I/O hides behind compute.
  double io_wall_seconds = 0;
  double total_wall_seconds = 0;       // host wall clock for the superstep

  /// Wall time of the §V.B sort-and-group stage (decode + scatter-or-sort +
  /// combine + group offsets) summed over this superstep's interval groups,
  /// measured where the stage ran. On the serial path it is a subset of
  /// compute_wall_seconds; under the pipeline the stage runs on I/O threads
  /// one group ahead of compute, so it may exceed the critical-path share.
  double sort_group_seconds = 0;
  /// Interval groups handled by each §V.B implementation this superstep
  /// (the fused counting scatter vs the comparison-sort fallback). Only
  /// groups with log input count: a BSP wave releases every interval, and
  /// an empty chain runs neither path.
  std::uint64_t groups_scatter = 0;
  std::uint64_t groups_comparison = 0;

  /// Produce-path staging (§V.A): chunks flushed from per-thread staging
  /// buffers into the shared top pages, and the wall time those flushes
  /// spent holding interval locks (the residual serialized section of the
  /// scatter path — per-record locking made this the whole send cost).
  std::uint64_t scatter_flush_count = 0;
  double scatter_stall_seconds = 0;

  /// Produce-side log fold (multilog/multilog_store.hpp; combinable apps
  /// with combining on, zero otherwise): sends the fold combined away
  /// before they reached the log, and the CPU time it spent folding. The
  /// fold runs outside the interval locks, so scatter_stall_seconds does
  /// not include it. messages_produced and messages_consumed still count
  /// sends.
  std::uint64_t log_records_folded = 0;
  double fold_seconds = 0;

  /// Bytes dropped from torn trailing log pages this superstep (crash
  /// recovery with options.torn_page_recovery; always 0 on a healthy run).
  std::uint64_t torn_bytes_dropped = 0;

  /// Interval-granular scheduling (options.schedule_policy != kBsp; all
  /// zero under BSP). Chains activated this wave — exceeds the interval
  /// count when the asynchronous model re-queued intervals whose logs grew
  /// after their drain (same-wave delivery) — plus how far the priority
  /// policy moved an interval from its arrival rank at worst, and the total
  /// time ready chains waited before activation.
  std::uint64_t intervals_scheduled = 0;
  std::uint64_t schedule_reorder_depth = 0;
  double ready_latency_seconds = 0;

  /// CPU time of prefetched chain preps — their sort_group_seconds plus,
  /// for pulled intervals, the §4e fold — which ran on pipeline I/O
  /// threads and is therefore NOT inside compute_wall_seconds.
  /// compute_wall_seconds + offthread_sort_seconds is invariant to where
  /// the pipeline scheduled the stage.
  double offthread_sort_seconds = 0;

  /// Primary metric (DESIGN.md §4): host compute + modeled device time.
  double modeled_total_seconds() const {
    return compute_wall_seconds + modeled_storage_seconds;
  }

  /// Thread-placement-invariant modeled wall time: every CPU second the
  /// superstep spent — wherever the pipeline scheduled it — plus modeled
  /// device time, with no overlap credit. modeled_total_seconds() charges
  /// sort/group only when it ran on the critical path, so it understates
  /// pipelined runs (BSP prefetch hides the stage on I/O threads) relative
  /// to serial ones (the scheduled-async redelivery chains); this metric
  /// compares execution modes on equal footing and is what bench_async
  /// gates (DESIGN.md §4c).
  double modeled_work_seconds() const {
    return modeled_total_seconds() + offthread_sort_seconds;
  }

  /// Direction optimization (DESIGN.md §4e; all zero under push-only).
  /// Intervals this superstep consumed through the transpose-CSR pull path,
  /// and the log-record bytes the previous superstep's senders did NOT
  /// write because their destination interval had already chosen pull —
  /// the traffic class the direction switch exists to delete.
  std::uint64_t intervals_pulled = 0;
  std::uint64_t log_bytes_avoided = 0;

  // Edge-log optimizer observability (Figure 9).
  std::uint64_t pages_touched = 0;
  std::uint64_t pages_inefficient = 0;
  std::uint64_t pages_inefficient_predicted = 0;
  std::uint64_t edge_log_hits = 0;

  // Predictor accuracy on vertices.
  std::uint64_t predicted_active = 0;
};

struct RunStats {
  std::string engine;
  std::string app;
  /// I/O substrate the run's Storage actually used ("threadpool"/"uring") —
  /// the post-probe backend, so a uring request that fell back reports
  /// "threadpool".
  std::string io_backend;
  /// Superstep-internal execution order the run used ("bsp" / "fifo" /
  /// "hub-degree" / "log-bytes") — the resolved value after MLVC_SCHEDULE.
  std::string schedule_policy;
  /// Always "host"; kept because bench/e2e's job config still reads it.
  std::string combine_placement = "host";
  /// Intervals too wide for the produce-side fold's direct-addressed
  /// scratch (MultiLogStore::kFoldScratchMaxBytes): their sends are logged
  /// unfolded. 0 when the run does not fold.
  std::uint64_t fold_wide_intervals = 0;
  /// Striped devices of the run's Storage (1 = single-file layout).
  std::uint64_t num_devices = 1;
  /// Message movement direction the run resolved to ("push" / "pull" /
  /// "adaptive") after MLVC_DIRECTION and the eligibility gates.
  std::string direction = "push";
  /// Why a requested pull/adaptive run fell back to push (empty when pull
  /// was available): e.g. "store has no transpose" for v1 stores.
  std::string direction_fallback;
  /// FNV-1a over the final vertex values, streamed chunk-by-chunk (never
  /// the O(V) values() vector). Filled by callers that verify results
  /// (mlvc_run --json, mlvc_serve --verify); 0 + false when not computed.
  std::uint64_t values_hash = 0;
  bool has_values_hash = false;
  std::vector<SuperstepStats> supersteps;
  double build_seconds = 0;  // graph/shard materialization, excluded from run

  /// Context-mode identity: the RuntimeContext query id this run executed
  /// as (blob prefix "q<id>"). 0 for one-shot runs outside a context.
  std::uint64_t query_id = 0;
  /// Per-query view of the SHARED adjacency cache (from this query's
  /// PageCache::QuerySlot): pages this query hit, missed-and-filled, or read
  /// around the cache because it was at its admission quota. All zero for
  /// one-shot runs (their private cache is reported via the io snapshots).
  std::uint64_t query_cache_hit_pages = 0;
  std::uint64_t query_cache_miss_pages = 0;
  std::uint64_t query_cache_bypass_pages = 0;

  std::uint64_t total_pages_read() const {
    std::uint64_t t = 0;
    for (const auto& s : supersteps) t += s.io.total_pages_read();
    return t;
  }
  std::uint64_t total_pages_written() const {
    std::uint64_t t = 0;
    for (const auto& s : supersteps) t += s.io.total_pages_written();
    return t;
  }
  std::uint64_t total_pages() const {
    return total_pages_read() + total_pages_written();
  }
  double modeled_storage_seconds() const {
    double t = 0;
    for (const auto& s : supersteps) t += s.modeled_storage_seconds;
    return t;
  }
  double compute_seconds() const {
    double t = 0;
    for (const auto& s : supersteps) t += s.compute_wall_seconds;
    return t;
  }
  double sort_group_seconds() const {
    double t = 0;
    for (const auto& s : supersteps) t += s.sort_group_seconds;
    return t;
  }
  std::uint64_t groups_scatter() const {
    std::uint64_t t = 0;
    for (const auto& s : supersteps) t += s.groups_scatter;
    return t;
  }
  std::uint64_t groups_comparison() const {
    std::uint64_t t = 0;
    for (const auto& s : supersteps) t += s.groups_comparison;
    return t;
  }
  std::uint64_t scatter_flush_count() const {
    std::uint64_t t = 0;
    for (const auto& s : supersteps) t += s.scatter_flush_count;
    return t;
  }
  double scatter_stall_seconds() const {
    double t = 0;
    for (const auto& s : supersteps) t += s.scatter_stall_seconds;
    return t;
  }
  std::uint64_t log_records_folded() const {
    std::uint64_t t = 0;
    for (const auto& s : supersteps) t += s.log_records_folded;
    return t;
  }
  double fold_seconds() const {
    double t = 0;
    for (const auto& s : supersteps) t += s.fold_seconds;
    return t;
  }
  double io_wait_seconds() const {
    double t = 0;
    for (const auto& s : supersteps) t += s.io_wall_seconds;
    return t;
  }
  double total_wall_seconds() const {
    double t = 0;
    for (const auto& s : supersteps) t += s.total_wall_seconds;
    return t;
  }
  double modeled_total_seconds() const {
    double t = 0;
    for (const auto& s : supersteps) t += s.modeled_total_seconds();
    return t;
  }
  double offthread_sort_seconds() const {
    double t = 0;
    for (const auto& s : supersteps) t += s.offthread_sort_seconds;
    return t;
  }
  /// Thread-placement-invariant modeled wall time (SuperstepStats doc).
  double modeled_work_seconds() const {
    double t = 0;
    for (const auto& s : supersteps) t += s.modeled_work_seconds();
    return t;
  }
  std::uint64_t total_messages() const {
    std::uint64_t t = 0;
    for (const auto& s : supersteps) t += s.messages_produced;
    return t;
  }
  std::uint64_t torn_bytes_dropped() const {
    std::uint64_t t = 0;
    for (const auto& s : supersteps) t += s.torn_bytes_dropped;
    return t;
  }
  /// Effective rounds: supersteps actually executed. Under the asynchronous
  /// model with a schedule policy this is what same-wave delivery shrinks
  /// relative to BSP — the bench_async acceptance metric.
  std::uint64_t effective_rounds() const {
    return static_cast<std::uint64_t>(supersteps.size());
  }
  std::uint64_t intervals_scheduled() const {
    std::uint64_t t = 0;
    for (const auto& s : supersteps) t += s.intervals_scheduled;
    return t;
  }
  /// Gauge: the deepest any wave's priority policy reordered an interval.
  std::uint64_t schedule_reorder_depth() const {
    std::uint64_t m = 0;
    for (const auto& s : supersteps) {
      if (s.schedule_reorder_depth > m) m = s.schedule_reorder_depth;
    }
    return m;
  }
  double ready_latency_seconds() const {
    double t = 0;
    for (const auto& s : supersteps) t += s.ready_latency_seconds;
    return t;
  }
  std::uint64_t intervals_pulled() const {
    std::uint64_t t = 0;
    for (const auto& s : supersteps) t += s.intervals_pulled;
    return t;
  }
  std::uint64_t log_bytes_avoided() const {
    std::uint64_t t = 0;
    for (const auto& s : supersteps) t += s.log_bytes_avoided;
    return t;
  }
  std::uint64_t io_retries() const {
    std::uint64_t t = 0;
    for (const auto& s : supersteps) t += s.io.io_retry_count;
    return t;
  }
  std::uint64_t io_giveups() const {
    std::uint64_t t = 0;
    for (const auto& s : supersteps) t += s.io.io_giveup_count;
    return t;
  }
  std::uint64_t io_submit_batches() const {
    std::uint64_t t = 0;
    for (const auto& s : supersteps) t += s.io.submit_batches;
    return t;
  }
  std::uint64_t sqe_coalesced_ops() const {
    std::uint64_t t = 0;
    for (const auto& s : supersteps) t += s.io.sqe_coalesced_ops;
    return t;
  }
  /// Physical vs logical traffic split (DESIGN.md format v2): physical is
  /// what the blob layer moved (compressed lengths under v2), logical is the
  /// post-decode byte volume the consumers saw. logical/physical is the
  /// run-level compression ratio; restrict to one category for a per-layer
  /// view (adjacency vs message log vs checkpoint).
  std::uint64_t physical_bytes_read() const {
    std::uint64_t t = 0;
    for (const auto& s : supersteps) t += s.io.total_bytes_read();
    return t;
  }
  std::uint64_t physical_bytes_written() const {
    std::uint64_t t = 0;
    for (const auto& s : supersteps) t += s.io.total_bytes_written();
    return t;
  }
  std::uint64_t logical_bytes_read() const {
    std::uint64_t t = 0;
    for (const auto& s : supersteps) t += s.io.total_logical_bytes_read();
    return t;
  }
  std::uint64_t logical_bytes_written() const {
    std::uint64_t t = 0;
    for (const auto& s : supersteps) t += s.io.total_logical_bytes_written();
    return t;
  }
  /// Per-layer split of the same numbers (categories sum to the totals).
  ssd::IoStatsSnapshot::Category category_bytes(ssd::IoCategory c) const {
    ssd::IoStatsSnapshot::Category out;
    for (const auto& s : supersteps) {
      const auto& cat = s.io[c];
      out.pages_read += cat.pages_read;
      out.pages_written += cat.pages_written;
      out.bytes_read += cat.bytes_read;
      out.bytes_written += cat.bytes_written;
      out.logical_bytes_read += cat.logical_bytes_read;
      out.logical_bytes_written += cat.logical_bytes_written;
    }
    return out;
  }
  /// Gauge: the deepest any superstep drove the submission ring.
  std::uint64_t max_inflight_depth() const {
    std::uint64_t m = 0;
    for (const auto& s : supersteps) {
      if (s.io.max_inflight_depth > m) m = s.io.max_inflight_depth;
    }
    return m;
  }
};

}  // namespace mlvc::core
