// Per-superstep and per-run execution statistics.
//
// Every figure in the paper's evaluation is some view over these numbers:
// active counts (Fig 2), page accesses (Fig 5b), storage/compute split
// (Fig 5c), per-superstep relative time (Fig 7), predictor recall (Fig 9).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
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

  /// Produce-path commits (§V.A): one per (compute batch, destination
  /// interval) whose sends the batch committed to the multi-log
  /// (MultiLogStore::commit), and the wall time spent committing — the
  /// grouping, fold and encode, and the in-order append and eviction.
  std::uint64_t scatter_flush_count = 0;
  double scatter_stall_seconds = 0;

  /// Produce-side log fold (multilog/multilog_store.hpp; combinable apps
  /// with combining on, zero otherwise): sends the fold combined away
  /// before they reached the log, and the CPU time it spent folding (summed
  /// over threads; scatter_stall_seconds includes its wall time).
  /// messages_produced and messages_consumed still count sends.
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

  /// How RunStats::totals() combines a field across supersteps.
  enum class Combine : std::uint8_t { kSum, kMax };

  /// The field list: calls f(key, combine, s.field...) once per field, in
  /// run-JSON order, with the matching member of every `s`. Covers every
  /// field except `superstep` and `io` (combined by IoStatsSnapshot's own
  /// lists). A new field needs its declaration and one line here.
  template <typename F, typename... S>
  static void for_each_field(F&& f, S&&... s) {
    constexpr Combine kSum = Combine::kSum;
    f("active_vertices", kSum, s.active_vertices...);
    f("messages_consumed", kSum, s.messages_consumed...);
    f("messages_produced", kSum, s.messages_produced...);
    f("edges_activated", kSum, s.edges_activated...);
    f("modeled_storage_seconds", kSum, s.modeled_storage_seconds...);
    f("compute_wall_seconds", kSum, s.compute_wall_seconds...);
    f("sort_group_seconds", kSum, s.sort_group_seconds...);
    f("offthread_sort_seconds", kSum, s.offthread_sort_seconds...);
    f("groups_scatter", kSum, s.groups_scatter...);
    f("groups_comparison", kSum, s.groups_comparison...);
    f("scatter_flush_count", kSum, s.scatter_flush_count...);
    f("scatter_stall_seconds", kSum, s.scatter_stall_seconds...);
    f("log_records_folded", kSum, s.log_records_folded...);
    f("fold_seconds", kSum, s.fold_seconds...);
    f("io_wall_seconds", kSum, s.io_wall_seconds...);
    f("total_wall_seconds", kSum, s.total_wall_seconds...);
    f("torn_bytes_dropped", kSum, s.torn_bytes_dropped...);
    f("intervals_scheduled", kSum, s.intervals_scheduled...);
    f("schedule_reorder_depth", Combine::kMax, s.schedule_reorder_depth...);
    f("ready_latency_seconds", kSum, s.ready_latency_seconds...);
    f("intervals_pulled", kSum, s.intervals_pulled...);
    f("log_bytes_avoided", kSum, s.log_bytes_avoided...);
    f("pages_touched", kSum, s.pages_touched...);
    f("pages_inefficient", kSum, s.pages_inefficient...);
    f("pages_inefficient_predicted", kSum, s.pages_inefficient_predicted...);
    f("edge_log_hits", kSum, s.edge_log_hits...);
  }

  /// Combine `rhs` into this superstep's fields: sums, except the max of
  /// schedule_reorder_depth and of the io gauges. `superstep` is left alone.
  SuperstepStats& operator+=(const SuperstepStats& rhs) {
    for_each_field(
        [](std::string_view, Combine how, auto& total, const auto& v) {
          total = how == Combine::kMax ? std::max(total, v) : total + v;
        },
        *this, rhs);
    io += rhs.io;
    return *this;
  }
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

  /// Every superstep combined (SuperstepStats::operator+=). The named views
  /// below read one field of it each.
  SuperstepStats totals() const {
    SuperstepStats t;
    for (const auto& s : supersteps) t += s;
    return t;
  }

  std::uint64_t total_pages_read() const {
    return totals().io.total_pages_read();
  }
  std::uint64_t total_pages_written() const {
    return totals().io.total_pages_written();
  }
  std::uint64_t total_pages() const { return totals().io.total_pages(); }
  double modeled_storage_seconds() const {
    return totals().modeled_storage_seconds;
  }
  double compute_seconds() const { return totals().compute_wall_seconds; }
  double sort_group_seconds() const { return totals().sort_group_seconds; }
  std::uint64_t groups_scatter() const { return totals().groups_scatter; }
  std::uint64_t groups_comparison() const { return totals().groups_comparison; }
  std::uint64_t scatter_flush_count() const {
    return totals().scatter_flush_count;
  }
  double scatter_stall_seconds() const {
    return totals().scatter_stall_seconds;
  }
  std::uint64_t log_records_folded() const {
    return totals().log_records_folded;
  }
  double fold_seconds() const { return totals().fold_seconds; }
  double io_wait_seconds() const { return totals().io_wall_seconds; }
  double total_wall_seconds() const { return totals().total_wall_seconds; }
  /// Summed per superstep, not from totals(): compute + storage is added
  /// within each superstep first, and the floating-point order is kept.
  double modeled_total_seconds() const {
    double t = 0;
    for (const auto& s : supersteps) t += s.modeled_total_seconds();
    return t;
  }
  double offthread_sort_seconds() const {
    return totals().offthread_sort_seconds;
  }
  /// Thread-placement-invariant modeled wall time (SuperstepStats doc);
  /// summed per superstep like modeled_total_seconds().
  double modeled_work_seconds() const {
    double t = 0;
    for (const auto& s : supersteps) t += s.modeled_work_seconds();
    return t;
  }
  std::uint64_t total_messages() const { return totals().messages_produced; }
  std::uint64_t torn_bytes_dropped() const {
    return totals().torn_bytes_dropped;
  }
  /// Effective rounds: supersteps actually executed. Under the asynchronous
  /// model with a schedule policy this is what same-wave delivery shrinks
  /// relative to BSP — the bench_async acceptance metric.
  std::uint64_t effective_rounds() const {
    return static_cast<std::uint64_t>(supersteps.size());
  }
  std::uint64_t intervals_scheduled() const {
    return totals().intervals_scheduled;
  }
  /// Gauge: the deepest any wave's priority policy reordered an interval.
  std::uint64_t schedule_reorder_depth() const {
    return totals().schedule_reorder_depth;
  }
  double ready_latency_seconds() const {
    return totals().ready_latency_seconds;
  }
  std::uint64_t intervals_pulled() const { return totals().intervals_pulled; }
  std::uint64_t log_bytes_avoided() const { return totals().log_bytes_avoided; }
  std::uint64_t io_retries() const { return totals().io.io_retry_count; }
  std::uint64_t io_giveups() const { return totals().io.io_giveup_count; }
  /// One I/O category's pages and bytes (categories sum to the totals).
  ssd::IoStatsSnapshot::Category category_bytes(ssd::IoCategory c) const {
    return totals().io[c];
  }
};

}  // namespace mlvc::core
