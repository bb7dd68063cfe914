// Core scalar types shared by every MultiLogVC module.
//
// The paper (§VI) uses a 4-byte vertex id and an 8-byte row-pointer entry;
// we mirror that so the on-disk CSR layout has the same density as the
// authors' implementation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string_view>

namespace mlvc {

/// Vertex identifier. 4 bytes, per the paper's implementation notes (§VI).
using VertexId = std::uint32_t;

/// Index into the edge (colIdx/val) arrays. 8 bytes so graphs with more than
/// 4G edges are representable, matching the paper's 8-byte rowPtr entries.
using EdgeIndex = std::uint64_t;

/// Identifier of a vertex interval (a contiguous group of vertices that
/// shares one message log). Interval counts are small (<5000 in the paper),
/// but we keep 32 bits for headroom.
using IntervalId = std::uint32_t;

/// Superstep (BSP iteration) number.
using Superstep = std::uint32_t;

/// Sentinel for "no vertex".
inline constexpr VertexId kInvalidVertex = std::numeric_limits<VertexId>::max();

/// Sentinel for "no interval".
inline constexpr IntervalId kInvalidInterval =
    std::numeric_limits<IntervalId>::max();

/// Which implementation the sort-and-group unit (§V.B) uses to group one
/// fused interval group's message log by destination. Shared by the engine
/// options (which may force a path for ablation) and the multilog layer
/// (which reports the path actually taken).
enum class SortGroupPath : std::uint8_t {
  /// Heuristic: counting scatter unless the destination histogram would be
  /// large relative to the record count (width >> n, e.g. a nearly-empty
  /// tail-superstep log), then comparison sort.
  kAuto,
  /// Fused histogram + prefix-sum + scatter keyed by dst - interval_begin.
  kCountingScatter,
  /// Decode + comparison parallel_sort (+ combine scan) — the pre-scatter
  /// path, kept as the wide-range fallback and for ablation.
  kComparisonSort,
};

inline constexpr const char* to_string(SortGroupPath p) {
  switch (p) {
    case SortGroupPath::kAuto: return "auto";
    case SortGroupPath::kCountingScatter: return "counting_scatter";
    case SortGroupPath::kComparisonSort: return "comparison_sort";
  }
  return "?";
}

/// On-disk layout generation for the stored CSR and the multi-log record
/// stream. kV1 = fixed-width records / raw u32 adjacency (the original
/// layout, still readable). kV2 = delta+zigzag+varint-compressed adjacency
/// blocks with a skip index, and varint-compressed chunked log records
/// decoded inside the sort-and-group scatter pass.
enum class OnDiskFormat : std::uint8_t {
  kV1 = 1,
  kV2 = 2,
};

inline constexpr const char* to_string(OnDiskFormat f) {
  switch (f) {
    case OnDiskFormat::kV1: return "v1";
    case OnDiskFormat::kV2: return "v2";
  }
  return "?";
}

/// Parse "v1"/"1"/"v2"/"2". Returns false (leaving *out untouched) on
/// anything else so callers can decide between ignoring and rejecting.
inline bool parse_on_disk_format(const char* s, OnDiskFormat* out) {
  if (s == nullptr) return false;
  const std::string_view v(s);
  if (v == "v1" || v == "1") {
    *out = OnDiskFormat::kV1;
    return true;
  }
  if (v == "v2" || v == "2") {
    *out = OnDiskFormat::kV2;
    return true;
  }
  return false;
}

/// How the engine orders vertex intervals within a superstep wave. Every
/// policy runs the same wave: core::IntervalScheduler releases each
/// interval's load→sort→compute chain and the engine fuses id-consecutive
/// runs of the resulting order. kBsp is the paper's barrier execution
/// (fused interval groups in id order); the others pick the next chain by
/// estimated impact. The policy controls ordering ONLY —
/// message delivery semantics stay with ComputationModel, so a scheduled
/// synchronous run converges to the same values as BSP.
enum class SchedulePolicy : std::uint8_t {
  /// Global barrier, fused groups, id order — the default. The scheduler
  /// runs it as kFifo; it differs only in reporting no scheduler stats.
  kBsp,
  /// Interval-granular chains in arrival (id) order — the scheduler's
  /// control case.
  kFifo,
  /// Hubs first: descending per-interval out-degree mass, weighted by the
  /// history predictor's expected-active set once history exists. The right
  /// signal on skewed (R-MAT/power-law) graphs.
  kHubDegree,
  /// Largest pending message-log volume first.
  kLogBytes,
};

inline constexpr const char* to_string(SchedulePolicy p) {
  switch (p) {
    case SchedulePolicy::kBsp: return "bsp";
    case SchedulePolicy::kFifo: return "fifo";
    case SchedulePolicy::kHubDegree: return "hub-degree";
    case SchedulePolicy::kLogBytes: return "log-bytes";
  }
  return "?";
}

/// Parse "bsp"/"fifo"/"hub-degree"/"log-bytes" (plus the underscore
/// spellings). Returns false (leaving *out untouched) on anything else so
/// callers can decide between ignoring and rejecting.
inline bool parse_schedule_policy(const char* s, SchedulePolicy* out) {
  if (s == nullptr) return false;
  const std::string_view v(s);
  if (v == "bsp") {
    *out = SchedulePolicy::kBsp;
    return true;
  }
  if (v == "fifo") {
    *out = SchedulePolicy::kFifo;
    return true;
  }
  if (v == "hub-degree" || v == "hub_degree" || v == "hub") {
    *out = SchedulePolicy::kHubDegree;
    return true;
  }
  if (v == "log-bytes" || v == "log_bytes" || v == "bytes") {
    *out = SchedulePolicy::kLogBytes;
    return true;
  }
  return false;
}

/// Per-interval message movement direction. kPush is the paper's multi-log
/// scatter: every active edge writes a log record that is later re-read and
/// sort-and-grouped. kPull inverts dense intervals: the engine streams the
/// stored in-edge (transpose) CSR and gathers each active in-neighbor's
/// broadcast message directly — zero log writes, decodes, or sort_and_group
/// for that interval. kAdaptive picks per interval per superstep from the
/// predicted active-edge mass (the direction-optimizing BFS idea applied to
/// the multi-log engine). Requires a stored transpose and a broadcast-send
/// app; the engine falls back to push (with a logged reason) otherwise.
enum class DirectionMode : std::uint8_t {
  kPush,
  kPull,
  kAdaptive,
};

inline constexpr const char* to_string(DirectionMode d) {
  switch (d) {
    case DirectionMode::kPush: return "push";
    case DirectionMode::kPull: return "pull";
    case DirectionMode::kAdaptive: return "adaptive";
  }
  return "?";
}

/// Parse "push"/"pull"/"adaptive". Returns false (leaving *out untouched)
/// on anything else so callers can decide between ignoring and rejecting.
inline bool parse_direction_mode(const char* s, DirectionMode* out) {
  if (s == nullptr) return false;
  const std::string_view v(s);
  if (v == "push") {
    *out = DirectionMode::kPush;
    return true;
  }
  if (v == "pull") {
    *out = DirectionMode::kPull;
    return true;
  }
  if (v == "adaptive" || v == "auto") {
    *out = DirectionMode::kAdaptive;
    return true;
  }
  return false;
}

/// Byte-size helpers.
inline constexpr std::size_t operator""_KiB(unsigned long long v) {
  return static_cast<std::size_t>(v) << 10;
}
inline constexpr std::size_t operator""_MiB(unsigned long long v) {
  return static_cast<std::size_t>(v) << 20;
}
inline constexpr std::size_t operator""_GiB(unsigned long long v) {
  return static_cast<std::size_t>(v) << 30;
}

}  // namespace mlvc
