// Engine configuration, mirroring the paper's Figure 4 memory layout and
// the design knobs DESIGN.md calls out for ablation.
#pragma once

#include <cstdint>
#include <cstdlib>

#include "common/memory_budget.hpp"
#include "common/types.hpp"
#include "ssd/device_model.hpp"
#include "ssd/io_backend.hpp"

namespace mlvc::core {

enum class ComputationModel {
  /// Bulk-synchronous: messages sent in superstep s are visible in s+1.
  kSynchronous,
  /// §V.F asynchronous: messages may be delivered within the same superstep
  /// (when the destination interval is processed after the send).
  kAsynchronous,
};

struct EngineOptions {
  /// Total host memory budget. The paper uses 1 GB against ~100 GB graphs;
  /// scale this down with graph size to keep the ratio (DESIGN.md §2).
  std::size_t memory_budget_bytes = 64_MiB;

  /// Figure 4 split: X% sort/group, A% multi-log buffers, B% edge log.
  BudgetSplit split{};

  /// Stop after this many supersteps even without convergence. The paper
  /// runs at most 15 (§VII).
  Superstep max_supersteps = 15;

  ComputationModel model = ComputationModel::kSynchronous;

  /// Superstep-internal chain order (common/types.hpp). kBsp is the
  /// paper's barrier wave: fused groups in id order (the scheduler's fifo
  /// order); any other value orders the wave's chains by
  /// core::IntervalScheduler priority. Ordering only — delivery semantics
  /// stay with `model`, so a scheduled synchronous run still converges to
  /// the BSP values, while kAsynchronous under any policy adds same-wave
  /// delivery: one redelivery chain per interval whose log grew after the
  /// sweep ran it (the effective-round win). MLVC_SCHEDULE overrides this.
  SchedulePolicy schedule_policy = SchedulePolicy::kBsp;

  /// §V.C edge-log optimizer. Off = every adjacency read hits the CSR.
  bool enable_edge_log = true;

  /// §V.A.2 interval fusion. Off = one interval per sort/group pass.
  bool enable_interval_fusion = true;

  /// §V.D combine path for associative+commutative apps. Off = all messages
  /// preserved even when the app provides a combine operator.
  bool enable_combine = true;

  /// Message movement direction (common/types.hpp). kPush keeps the paper's
  /// multi-log scatter untouched (the default — zero behavior change).
  /// kPull forces every eligible interval through the transpose-CSR gather
  /// path; kAdaptive compares, per destination interval per superstep, the
  /// predicted push log traffic against the interval's stored in-edge bytes
  /// and pulls when push would move more. Pull needs a stored transpose, a
  /// broadcast-send app (kHasPullGather) with a combine, and the synchronous
  /// model; anything else falls back to push with the reason recorded in
  /// RunStats. MLVC_DIRECTION overrides this.
  DirectionMode direction = DirectionMode::kPush;

  /// Adaptive-direction threshold: interval i pulls when
  ///   est_push_bytes(i) >= pull_density_threshold * est_pull_bytes(i).
  /// Raise above 1 to pull only when push is clearly worse; lower toward 0
  /// to pull aggressively.
  double pull_density_threshold = 1.0;

  /// §V.B sort-and-group implementation. kAuto uses the fused parallel
  /// counting scatter (histogram + prefix sum + scatter keyed by
  /// dst - interval_begin) whenever the fused range is not vastly wider than
  /// the log, falling back to decode + comparison sort for nearly-empty
  /// logs over wide ranges. Forcing a path is for tests and ablation.
  SortGroupPath sort_group_path = SortGroupPath::kAuto;

  /// History depth N for the active-vertex predictor (paper uses 1).
  unsigned predictor_history = 1;

  /// Page-utilization threshold below which a page counts as inefficient
  /// (paper uses 10%).
  double page_util_threshold = 0.10;

  /// Pipelined superstep execution (§VI async I/O): log load/decode/sort of
  /// interval group k+1 overlaps group k's compute, adjacency batches are
  /// prefetched while the current batch runs, and full multi-log top pages
  /// are written back by I/O threads instead of the producing compute
  /// thread. Vertex values are identical to the serial path; only the
  /// overlap (and so wall time) changes. false = fully serial superstep.
  bool enable_pipeline = true;

  /// Dedicated I/O threads for the pipeline (ssd::AsyncIo pool size). The
  /// paper keeps "many page reads in flight with minimal host resources";
  /// 0 behaves like enable_pipeline = false.
  unsigned io_threads = 4;

  /// How many active-vertex batches ahead the graph loader may run. 1 is
  /// classic double buffering (next batch loads while current computes).
  unsigned prefetch_depth = 2;

  /// Hot-path I/O substrate for the run's Storage (ssd/io_backend.hpp):
  /// kThreadPool = blocking pread/pwrite on the calling thread (default),
  /// kUring = batched submission through a raw io_uring ring. A kUring
  /// request transparently falls back to the thread pool when the kernel or
  /// sandbox refuses io_uring. MLVC_IO_BACKEND overrides this.
  ssd::IoBackendKind io_backend = ssd::IoBackendKind::kThreadPool;

  /// SQEs kept in flight per io_uring batch (ring size; the kernel rounds
  /// up to a power of two). Ignored by the thread-pool backend.
  unsigned io_queue_depth = 64;

  /// Per-thread, per-interval staging depth (records) for the produce path:
  /// send() appends into a thread-local buffer with no lock and no shared
  /// atomics, flushing into the shared multi-log top page one chunk at a
  /// time (on buffer-full, at batch end, and before asynchronous-mode
  /// drains). 0 = the old per-record locked append. The
  /// MLVC_SCATTER_STAGING environment variable, when set, overrides this
  /// (CI uses it to pin the worst-case depth of 1).
  unsigned scatter_staging_records = 64;

  /// Host-side CLOCK cache over CSR adjacency (colidx) pages, in bytes.
  /// 0 = no cache: every adjacency read hits storage (the out-of-core
  /// default, and what the paper's page-access counts assume).
  std::size_t adjacency_cache_bytes = 0;

  /// On-disk layout for the data this run *writes*: the multi-log message
  /// stream (and the stored CSR when a tool builds one with the same knob).
  /// kV2 delta+varint-compresses destination ids (and integral payloads)
  /// inside self-delimiting chunks, decoded inside the sort-and-group
  /// scatter pass; kV1 is the original fixed-width record layout. Reading
  /// is always format-aware (versioned headers), so a v2 engine still
  /// loads v1 graphs and v1 checkpoints. MLVC_FORMAT overrides this.
  OnDiskFormat on_disk_format = OnDiskFormat::kV2;

  /// Seed for all app-level randomness (MIS priorities, random walks).
  std::uint64_t seed = 1;

  /// Store vertex values on storage (true, the out-of-core default) or in
  /// host memory (false; only sensible for unit tests).
  bool values_on_storage = true;

  // Robustness ------------------------------------------------------------
  /// Transient I/O retry budget forwarded to ssd::Storage (attempts per
  /// no-progress streak before a typed IoError escalates).
  unsigned io_retry_attempts = 4;
  /// First backoff sleep between retries, microseconds (doubles per retry).
  unsigned io_retry_base_delay_us = 50;
  /// When a loaded log group's byte count is not a whole number of records
  /// (torn trailing page after a crash), drop the partial tail and continue
  /// instead of throwing. The dropped bytes are reported per superstep as
  /// torn_bytes_dropped. false = strict mode: any tear is fatal.
  bool torn_page_recovery = true;

  // Derived budget slices --------------------------------------------------
  std::size_t sort_budget() const {
    return static_cast<std::size_t>(memory_budget_bytes *
                                    split.sort_fraction);
  }
  std::size_t log_buffer_budget() const {
    return static_cast<std::size_t>(memory_budget_bytes *
                                    split.log_buffer_fraction);
  }
  std::size_t edge_log_budget() const {
    return static_cast<std::size_t>(memory_budget_bytes *
                                    split.edge_log_fraction);
  }
  /// Remainder: graph loader buffers (row pointers + adjacency pages).
  std::size_t loader_budget() const {
    return memory_budget_bytes - sort_budget() - log_buffer_budget() -
           edge_log_budget();
  }
};

/// Environment overrides, applied by the engine at construction so every
/// entry point (tools, tests, benches) honors them. MLVC_SCATTER_STAGING
/// pins the produce-path staging depth — CI runs the tier-1 suite with it
/// set to 1 to keep the worst-case flush-churn configuration honest. The
/// MLVC_FAULT_* overrides let the CI fault matrix tune the retry budget and
/// recovery mode underneath an unmodified test suite, and MLVC_IO_BACKEND /
/// MLVC_URING_DEPTH re-run the same suite on the io_uring substrate.
inline EngineOptions apply_env_overrides(EngineOptions options) {
  if (const char* env = std::getenv("MLVC_SCATTER_STAGING")) {
    options.scatter_staging_records =
        static_cast<unsigned>(std::strtoul(env, nullptr, 10));
  }
  if (const char* env = std::getenv("MLVC_FAULT_RETRIES")) {
    const unsigned n = static_cast<unsigned>(std::strtoul(env, nullptr, 10));
    options.io_retry_attempts = n > 0 ? n : 1;
  }
  if (const char* env = std::getenv("MLVC_FAULT_RETRY_BASE_US")) {
    options.io_retry_base_delay_us =
        static_cast<unsigned>(std::strtoul(env, nullptr, 10));
  }
  if (const char* env = std::getenv("MLVC_FAULT_TORN_RECOVERY")) {
    options.torn_page_recovery = std::strtoul(env, nullptr, 10) != 0;
  }
  if (const char* env = std::getenv("MLVC_IO_BACKEND")) {
    // Unknown values are rejected by Storage's own MLVC_IO_BACKEND parse;
    // here an unparsable value just leaves the configured backend alone.
    if (const auto kind = ssd::parse_io_backend(env)) {
      options.io_backend = *kind;
    }
  }
  if (const char* env = std::getenv("MLVC_FORMAT")) {
    // Same convention as MLVC_IO_BACKEND: an unparsable value leaves the
    // configured format alone rather than aborting every entry point.
    parse_on_disk_format(env, &options.on_disk_format);
  }
  if (const char* env = std::getenv("MLVC_SCHEDULE")) {
    // Ordering only: the override never flips the computation model, so a
    // tier-1 re-run under MLVC_SCHEDULE=hub-degree keeps every app's
    // delivery semantics (and therefore its values) intact.
    parse_schedule_policy(env, &options.schedule_policy);
  }
  if (const char* env = std::getenv("MLVC_DIRECTION")) {
    // Same convention as MLVC_SCHEDULE: an unparsable value leaves the
    // configured direction alone. Pull/adaptive are self-gating — a store
    // with no transpose (or an app with no pull hook) still runs push, so
    // a tier-1 re-run under MLVC_DIRECTION=adaptive is always safe.
    parse_direction_mode(env, &options.direction);
  }
  if (const char* env = std::getenv("MLVC_URING_DEPTH")) {
    const unsigned d = static_cast<unsigned>(std::strtoul(env, nullptr, 10));
    if (d > 0) options.io_queue_depth = d;
  }
  return options;
}

}  // namespace mlvc::core
