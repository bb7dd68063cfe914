// Engine configuration, mirroring the paper's Figure 4 memory layout and
// the design knobs DESIGN.md calls out for ablation.
#pragma once

#include <cstdint>

#include "common/env.hpp"
#include "common/memory_budget.hpp"
#include "common/types.hpp"
#include "ssd/device_model.hpp"
#include "ssd/storage.hpp"

namespace mlvc::core {

enum class ComputationModel {
  /// Bulk-synchronous: messages sent in superstep s are visible in s+1.
  kSynchronous,
  /// §V.F asynchronous: messages may be delivered within the same superstep
  /// (when the destination interval is processed after the send).
  kAsynchronous,
};

/// No option picks the produce path: each compute batch commits its sends
/// to the multi-log in vertex order once its threads join
/// (MultiLogStore::commit), so a run's logs do not depend on the thread
/// count or schedule, and at a fixed thread count neither do its values
/// and modeled time.
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
  /// broadcast-send app (kHasPullGather) with a combine, the synchronous
  /// model, and a V x sizeof(Message) broadcast table that fits the sort
  /// slice; anything else falls back to push with the reason recorded in
  /// RunStats. MLVC_DIRECTION overrides this.
  DirectionMode direction = DirectionMode::kPush;

  /// §V.B sort-and-group implementation. kAuto uses the fused parallel
  /// counting scatter (histogram + prefix sum + scatter keyed by
  /// dst - interval_begin) whenever the fused range is not vastly wider than
  /// the log, falling back to decode + comparison sort for nearly-empty
  /// logs over wide ranges. Forcing a path is for tests and ablation.
  SortGroupPath sort_group_path = SortGroupPath::kAuto;

  /// History depth N for the active-vertex predictor (paper uses 1).
  unsigned predictor_history = 1;

  /// Dedicated I/O threads (ssd::AsyncIo pool size) for pipelined superstep
  /// execution (§VI async I/O): log load/decode/sort of interval group k+1
  /// overlaps group k's compute, adjacency batches are prefetched while the
  /// current batch runs, and full multi-log top pages are written back by
  /// I/O threads instead of the producing compute thread. The paper keeps
  /// "many page reads in flight with minimal host resources". Vertex values
  /// are identical to the serial path; only the overlap (and so wall time)
  /// changes. 0 = fully serial superstep.
  unsigned io_threads = 4;

  /// Hot-path I/O substrate for the run's Storage (ssd/io_backend.hpp):
  /// kThreadPool = blocking pread/pwrite on the calling thread (default),
  /// kUring = batched submission through a raw io_uring ring. A kUring
  /// request transparently falls back to the thread pool when the kernel or
  /// sandbox refuses io_uring. MLVC_IO_BACKEND overrides this.
  ssd::IoBackendKind io_backend = ssd::IoBackendKind::kThreadPool;

  /// SQEs kept in flight per io_uring batch (ring size; the kernel rounds
  /// up to a power of two). Ignored by the thread-pool backend.
  unsigned io_queue_depth = 64;

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

/// The engine rows of the env table (common/env.hpp) over `options`,
/// applied by the engine at construction so every entry point (tools,
/// tests, benches) honors them; a tool flag reaches them through
/// env::pin_flags. CI re-runs the tier-1 suite under several of them: the
/// MLVC_FAULT_* rows tune retries and recovery under injected faults, and
/// MLVC_IO_BACKEND, MLVC_FORMAT, MLVC_SCHEDULE and MLVC_DIRECTION switch
/// the substrate, layout, order and direction under an unmodified suite.
inline EngineOptions apply_env_overrides(EngineOptions options) {
  if (auto on = env::get_bool(env::kFaultTornRecovery)) {
    options.torn_page_recovery = *on;
  }
  ssd::apply_io_env(options.io_backend, options.io_queue_depth,
                    options.io_retry_attempts, options.io_retry_base_delay_us);
  if (auto f = env::get_enum<OnDiskFormat>(env::kFormat,
                                           parse_on_disk_format)) {
    options.on_disk_format = *f;
  }
  // Ordering only: the override never flips the computation model, so a
  // tier-1 re-run under MLVC_SCHEDULE=hub-degree keeps every app's
  // delivery semantics (and therefore its values) intact.
  if (auto p = env::get_enum<SchedulePolicy>(env::kSchedule,
                                             parse_schedule_policy)) {
    options.schedule_policy = *p;
  }
  // Pull/adaptive are self-gating — a store with no transpose (or an app
  // with no pull hook) still runs push, so a tier-1 re-run under
  // MLVC_DIRECTION=adaptive is always safe.
  if (auto d = env::get_enum<DirectionMode>(env::kDirection,
                                            parse_direction_mode)) {
    options.direction = *d;
  }
  return options;
}

}  // namespace mlvc::core
