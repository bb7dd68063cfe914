// The sort-and-group unit (§V.B of the paper).
//
// Loads per-interval logs (fused while they fit in the sort budget), groups
// them in memory by destination vertex — the whole point of the multi-log:
// each interval's updates fit in host memory, so no external sort — and
// optionally applies the application's combine operator (§V.D) before
// handing each group to ProcessVertex.
//
// Because an interval group's destinations are bounded by its vertex range
// (that is what the §V.A.1 interval sizing guarantees), grouping is a
// counting-sort problem, not a comparison-sort problem. The default path is
// therefore a fused counting scatter keyed by dst - range_begin: one
// parallel pass over the raw log bytes builds per-chunk histograms while
// decoding destination headers, a prefix sum over the fused-interval-width
// histogram yields the final group offsets for free, and a second pass
// scatters records straight from the log buffer into their final grouped
// positions — no intermediate decode copy, no O(n log n) sort, no separate
// group-offset scan. The comparison-sort path survives as an automatic
// fallback for nearly-empty logs over wide vertex ranges (width >> n, where
// the histogram itself would dominate) and as an ablation variant.
#pragma once

#include <algorithm>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "common/parallel.hpp"
#include "common/types.hpp"
#include "multilog/log_codec.hpp"
#include "multilog/record.hpp"

namespace mlvc::multilog {

/// Sort records by destination vertex id. Order of equal-destination records
/// is unspecified — vertex programs must treat their inbox as a multiset,
/// which the BSP model requires anyway.
template <typename Message>
void sort_records(std::vector<Record<Message>>& records) {
  parallel_sort(records.begin(), records.end(),
                [](const Record<Message>& a, const Record<Message>& b) {
                  return a.dst < b.dst;
                });
}

/// Invoke fn(dst, span_of_records) for every destination group in a sorted
/// record array.
template <typename Message, typename Fn>
void for_each_group(std::span<const Record<Message>> sorted, Fn&& fn) {
  std::size_t i = 0;
  while (i < sorted.size()) {
    std::size_t j = i + 1;
    while (j < sorted.size() && sorted[j].dst == sorted[i].dst) ++j;
    fn(sorted[i].dst, sorted.subspan(i, j - i));
    i = j;
  }
}

/// Group boundaries of a sorted record array: indices of group starts plus a
/// final end sentinel. Lets the engine parallelize per-group processing.
template <typename Message>
std::vector<std::size_t> group_offsets(
    std::span<const Record<Message>> sorted) {
  std::vector<std::size_t> offsets;
  std::size_t i = 0;
  while (i < sorted.size()) {
    offsets.push_back(i);
    std::size_t j = i + 1;
    while (j < sorted.size() && sorted[j].dst == sorted[i].dst) ++j;
    i = j;
  }
  offsets.push_back(sorted.size());
  return offsets;
}

/// Apply a combine operator in place on a *sorted* record array: all records
/// with the same destination collapse to one. Returns the new size. This is
/// the §V.D optimization path for associative+commutative applications.
template <typename Message, typename Combine>
std::size_t combine_sorted(std::vector<Record<Message>>& records,
                           Combine&& combine) {
  if (records.empty()) return 0;
  std::size_t out = 0;
  for (std::size_t i = 1; i < records.size(); ++i) {
    if (records[i].dst == records[out].dst) {
      records[out].payload = combine(records[out].payload, records[i].payload);
    } else {
      records[++out] = records[i];
    }
  }
  records.resize(out + 1);
  return records.size();
}

// ---- fused counting-scatter grouping ---------------------------------------

/// One fused interval group's log, decoded and grouped by destination:
/// records ordered by ascending dst, offsets = start index of every
/// non-empty destination group plus an end sentinel (the layout
/// group_offsets() produces, so consumers are path-agnostic).
template <typename Message>
struct GroupedLog {
  std::vector<Record<Message>> records;
  std::vector<std::size_t> offsets = {0};
  /// Records present in the raw log, before any combine shrinks them —
  /// messages_consumed counts what was sent, not what survived combine.
  std::size_t decoded = 0;
  /// The implementation actually used (never kAuto).
  SortGroupPath path = SortGroupPath::kComparisonSort;
};

/// Heuristic for SortGroupPath::kAuto: the counting scatter costs
/// O(n + width) time and O(chunks × width) histogram bytes, so it wins
/// whenever the fused range is not vastly wider than the log is long. The
/// §V.A.1 sizing rule bounds width by the sort budget, so on dense logs —
/// the case that matters, per the paper — this always picks the scatter;
/// nearly-empty tail-superstep logs over wide ranges fall back.
inline bool counting_scatter_fits(std::size_t n_records, std::size_t width) {
  if (n_records > std::numeric_limits<std::uint32_t>::max()) {
    return false;  // per-chunk cursors are 32-bit
  }
  return width <= std::max<std::size_t>(4096, 2 * n_records);
}

namespace detail {

/// Records per parallel chunk. Chunk boundaries are a pure function of the
/// record count, so the scatter is deterministic (and stable: equal-dst
/// records keep log-append order) under any thread scheduling.
inline constexpr std::size_t kScatterChunkRecords = std::size_t{1} << 15;

/// Validate one raw record's destination against the fused range. An
/// out-of-range destination means a corrupt log page; the scatter would
/// otherwise index past its histogram, so this surfaces as a typed error.
inline void check_dst_in_range(VertexId dst, VertexId range_begin,
                               VertexId range_end) {
  MLVC_CHECK_MSG(dst >= range_begin && dst < range_end,
                 "log record destination " << dst
                                           << " outside interval range ["
                                           << range_begin << ", " << range_end
                                           << ") — corrupt log page?");
}

/// The fused counting scatter, no combine: histogram pass + prefix sum +
/// scatter pass, straight from the raw log bytes into final grouped
/// positions.
template <typename Message>
GroupedLog<Message> scatter_group(std::span<const std::byte> bytes,
                                  VertexId range_begin, VertexId range_end) {
  using Rec = Record<Message>;
  constexpr std::size_t kRec = sizeof(Rec);
  GroupedLog<Message> out;
  out.path = SortGroupPath::kCountingScatter;
  const std::size_t n = checked_record_count<Message>(bytes);
  out.decoded = n;
  if (n == 0) return out;
  MLVC_CHECK(n <= std::numeric_limits<std::uint32_t>::max());
  const std::size_t width =
      static_cast<std::size_t>(range_end - range_begin);
  const std::byte* base = bytes.data();
  const auto bounds =
      chunk_bounds(n, kScatterChunkRecords, hardware_threads());
  const std::size_t n_chunks = bounds.size() - 1;

  // Pass 1: per-chunk histograms keyed by dst - range_begin, built while
  // the destination headers are decoded straight from the log bytes.
  std::vector<std::uint32_t> hist(n_chunks * width, 0);
  parallel_for(std::size_t{0}, n_chunks, [&](std::size_t c) {
    std::uint32_t* h = hist.data() + c * width;
    for (std::size_t i = bounds[c]; i < bounds[c + 1]; ++i) {
      VertexId dst;
      std::memcpy(&dst, base + i * kRec, sizeof(VertexId));
      check_dst_in_range(dst, range_begin, range_end);
      ++h[dst - range_begin];
    }
  });

  // Prefix sum over the fused-interval-width histogram: starts[d] becomes
  // destination d's first slot, which is also its group offset.
  std::vector<std::size_t> starts(width);
  const auto wb = chunk_bounds(width, std::size_t{4096}, hardware_threads());
  parallel_for(std::size_t{0}, wb.size() - 1, [&](std::size_t wc) {
    for (std::size_t d = wb[wc]; d < wb[wc + 1]; ++d) {
      std::size_t total = 0;
      for (std::size_t c = 0; c < n_chunks; ++c) total += hist[c * width + d];
      starts[d] = total;
    }
  });
  const std::size_t total =
      parallel_exclusive_scan(std::span<std::size_t>(starts));
  MLVC_CHECK(total == n);
  out.offsets.clear();
  for (std::size_t d = 0; d < width; ++d) {
    const std::size_t next = d + 1 < width ? starts[d + 1] : n;
    if (next != starts[d]) out.offsets.push_back(starts[d]);
  }
  out.offsets.push_back(n);

  // Turn the per-chunk histograms into per-chunk write cursors: chunk c's
  // records for destination d land at starts[d] + (d-counts of chunks < c).
  parallel_for(std::size_t{0}, wb.size() - 1, [&](std::size_t wc) {
    for (std::size_t d = wb[wc]; d < wb[wc + 1]; ++d) {
      std::size_t pos = starts[d];
      for (std::size_t c = 0; c < n_chunks; ++c) {
        const std::uint32_t cnt = hist[c * width + d];
        hist[c * width + d] = static_cast<std::uint32_t>(pos);
        pos += cnt;
      }
    }
  });

  // Pass 2: scatter records from the log buffer into their final grouped
  // positions — one memcpy per record, fusing decode and grouping.
  out.records.resize(n);
  Rec* recs = out.records.data();
  parallel_for(std::size_t{0}, n_chunks, [&](std::size_t c) {
    std::uint32_t* cursors = hist.data() + c * width;
    for (std::size_t i = bounds[c]; i < bounds[c + 1]; ++i) {
      Rec r;
      std::memcpy(&r, base + i * kRec, kRec);
      recs[cursors[r.dst - range_begin]++] = r;
    }
  });
  return out;
}

/// Scatter-with-combine (§V.D fused into §V.B): a single parallel pass over
/// the raw log combines each chunk's records into per-chunk accumulator
/// slots (one per destination), then a width-parallel reduction folds the
/// chunk accumulators — in chunk order, so the result is deterministic —
/// into exactly one output record per live destination. The n-record
/// intermediate array of the unfused path never exists.
template <typename Message, typename Combine>
GroupedLog<Message> scatter_group_combine(std::span<const std::byte> bytes,
                                          VertexId range_begin,
                                          VertexId range_end,
                                          Combine&& combine) {
  using Rec = Record<Message>;
  constexpr std::size_t kRec = sizeof(Rec);
  GroupedLog<Message> out;
  out.path = SortGroupPath::kCountingScatter;
  const std::size_t n = checked_record_count<Message>(bytes);
  out.decoded = n;
  if (n == 0) return out;
  MLVC_CHECK(n <= std::numeric_limits<std::uint32_t>::max());
  const std::size_t width =
      static_cast<std::size_t>(range_end - range_begin);
  const std::byte* base = bytes.data();
  // Fixed-size units, as chunk_units cuts v2: the thread count does not
  // move the merge order of a float combine.
  std::vector<std::size_t> bounds;
  for (std::size_t off = 0; off < n; off += kScatterChunkRecords) {
    bounds.push_back(off);
  }
  bounds.push_back(n);
  const std::size_t n_chunks = bounds.size() - 1;

  std::vector<std::uint32_t> hist(n_chunks * width, 0);
  std::vector<Message> accs(n_chunks * width);
  parallel_for(std::size_t{0}, n_chunks, [&](std::size_t c) {
    std::uint32_t* h = hist.data() + c * width;
    Message* a = accs.data() + c * width;
    for (std::size_t i = bounds[c]; i < bounds[c + 1]; ++i) {
      Rec r;
      std::memcpy(&r, base + i * kRec, kRec);
      check_dst_in_range(r.dst, range_begin, range_end);
      const std::size_t d = r.dst - range_begin;
      a[d] = h[d] ? combine(a[d], r.payload) : r.payload;
      ++h[d];
    }
  });

  // Count live destinations per width chunk, then assign output slots.
  const auto wb = chunk_bounds(width, std::size_t{4096}, hardware_threads());
  const std::size_t n_wc = wb.size() - 1;
  std::vector<std::size_t> slot_base(n_wc, 0);
  parallel_for(std::size_t{0}, n_wc, [&](std::size_t wc) {
    std::size_t live = 0;
    for (std::size_t d = wb[wc]; d < wb[wc + 1]; ++d) {
      for (std::size_t c = 0; c < n_chunks; ++c) {
        if (hist[c * width + d] != 0) {
          ++live;
          break;
        }
      }
    }
    slot_base[wc] = live;
  });
  const std::size_t n_groups =
      parallel_exclusive_scan(std::span<std::size_t>(slot_base));

  out.records.resize(n_groups);
  Rec* recs = out.records.data();
  parallel_for(std::size_t{0}, n_wc, [&](std::size_t wc) {
    std::size_t slot = slot_base[wc];
    for (std::size_t d = wb[wc]; d < wb[wc + 1]; ++d) {
      Message acc{};
      bool live = false;
      for (std::size_t c = 0; c < n_chunks; ++c) {
        if (hist[c * width + d] == 0) continue;
        const Message& m = accs[c * width + d];
        acc = live ? combine(acc, m) : m;
        live = true;
      }
      if (live) {
        recs[slot] = Rec{static_cast<VertexId>(range_begin + d), acc};
        ++slot;
      }
    }
  });
  out.offsets.resize(n_groups + 1);
  for (std::size_t i = 0; i <= n_groups; ++i) out.offsets[i] = i;
  return out;
}

inline bool choose_scatter(SortGroupPath policy, std::size_t n_records,
                           std::size_t width) {
  switch (policy) {
    case SortGroupPath::kCountingScatter: return true;
    case SortGroupPath::kComparisonSort: return false;
    case SortGroupPath::kAuto: break;
  }
  return counting_scatter_fits(n_records, width);
}

// ---- v2 (chunked delta+varint) decode fused into the scatter ---------------

/// Group consecutive encoded chunks into parallel work units of about
/// kScatterChunkRecords records each. A pure function of the chunk index, so
/// the v2 scatter is as deterministic as the v1 one.
inline std::vector<std::size_t> chunk_units(const LogChunkIndex& idx) {
  const std::size_t n_enc = idx.chunk_offsets.size();
  std::vector<std::size_t> ub;
  ub.push_back(0);
  std::size_t unit_start_rec = 0;
  for (std::size_t c = 0; c < n_enc; ++c) {
    if (idx.rec_offsets[c + 1] - unit_start_rec >= kScatterChunkRecords) {
      ub.push_back(c + 1);
      unit_start_rec = idx.rec_offsets[c + 1];
    }
  }
  if (ub.back() != n_enc) ub.push_back(n_enc);
  return ub;
}

/// Fill record bytes [4, record_size) — everything after the destination —
/// from a chunk's payload cursor. The uvarint branch writes the message's
/// exact bit pattern (encode zero-extends it into a u64); the fixed branch
/// copies the raw record tail, padding bytes included, so the decoded
/// record is byte-identical to what the producer sent.
template <typename Message>
void read_chunk_payload(const std::uint8_t** cur, const std::uint8_t* end,
                        Record<Message>* r) {
  constexpr std::size_t kArea = sizeof(Record<Message>) - sizeof(VertexId);
  auto* out = reinterpret_cast<std::byte*>(r) + sizeof(VertexId);
  if constexpr (kPayloadVarint<Message>) {
    static_assert(kArea <= 8);
    const std::uint64_t v = get_uvarint(cur, end);
    std::memcpy(out, &v, kArea);
  } else {
    MLVC_CHECK_MSG(static_cast<std::size_t>(end - *cur) >= kArea,
                   "log chunk payload area truncated");
    std::memcpy(out, *cur, kArea);
    *cur += kArea;
  }
}

/// Decode every record of encoded chunks [c_begin, c_end) in append order,
/// calling fn(const Record&). One dst-array scratch per call (bounded by
/// kLogChunkMaxRecords), reused across chunks.
template <typename Message, typename Fn>
void for_each_unit_record(const std::uint8_t* data, const LogChunkIndex& idx,
                          std::size_t c_begin, std::size_t c_end, Fn&& fn) {
  using Rec = Record<Message>;
  std::vector<VertexId> dsts;
  for (std::size_t c = c_begin; c < c_end; ++c) {
    const std::uint8_t* chunk = data + idx.chunk_offsets[c];
    const LogChunkHeader h = read_chunk_header(chunk);
    dsts.resize(h.n_records);
    std::size_t k = 0;
    for_each_chunk_dst(chunk, h, [&](VertexId dst) { dsts[k++] = dst; });
    const std::uint8_t* cur = chunk + kLogChunkHeaderBytes + h.dst_bytes;
    const std::uint8_t* end = chunk + kLogChunkHeaderBytes + h.body_bytes;
    for (k = 0; k < h.n_records; ++k) {
      Rec r;
      r.dst = dsts[k];
      read_chunk_payload<Message>(&cur, end, &r);
      fn(static_cast<const Rec&>(r));
    }
    MLVC_CHECK_MSG(cur == end, "log chunk payload area length mismatch");
  }
}

/// v2 counting scatter, no combine: the histogram pass decodes only the
/// destination streams (skipping payload areas via the header's dst_bytes),
/// the scatter pass decodes records straight into their final grouped
/// positions — decompression is fused into the same two passes the v1 path
/// makes over raw bytes; no intermediate expanded copy of the log exists.
template <typename Message>
GroupedLog<Message> scatter_group_v2(std::span<const std::byte> bytes,
                                     const LogChunkIndex& idx,
                                     VertexId range_begin, VertexId range_end) {
  using Rec = Record<Message>;
  GroupedLog<Message> out;
  out.path = SortGroupPath::kCountingScatter;
  const std::size_t n = idx.n_records();
  out.decoded = n;
  if (n == 0) return out;
  MLVC_CHECK(n <= std::numeric_limits<std::uint32_t>::max());
  const std::size_t width = static_cast<std::size_t>(range_end - range_begin);
  const auto* data = reinterpret_cast<const std::uint8_t*>(bytes.data());
  const std::vector<std::size_t> ub = chunk_units(idx);
  const std::size_t n_units = ub.size() - 1;

  // Pass 1: per-unit histograms from the dst streams alone.
  std::vector<std::uint32_t> hist(n_units * width, 0);
  parallel_for(std::size_t{0}, n_units, [&](std::size_t u) {
    std::uint32_t* h = hist.data() + u * width;
    for (std::size_t c = ub[u]; c < ub[u + 1]; ++c) {
      const std::uint8_t* chunk = data + idx.chunk_offsets[c];
      for_each_chunk_dst(chunk, read_chunk_header(chunk), [&](VertexId dst) {
        check_dst_in_range(dst, range_begin, range_end);
        ++h[dst - range_begin];
      });
    }
  });

  // Prefix sum + group offsets + per-unit cursors: identical to the v1 path.
  std::vector<std::size_t> starts(width);
  const auto wb = chunk_bounds(width, std::size_t{4096}, hardware_threads());
  parallel_for(std::size_t{0}, wb.size() - 1, [&](std::size_t wc) {
    for (std::size_t d = wb[wc]; d < wb[wc + 1]; ++d) {
      std::size_t total = 0;
      for (std::size_t u = 0; u < n_units; ++u) total += hist[u * width + d];
      starts[d] = total;
    }
  });
  const std::size_t total =
      parallel_exclusive_scan(std::span<std::size_t>(starts));
  MLVC_CHECK(total == n);
  out.offsets.clear();
  for (std::size_t d = 0; d < width; ++d) {
    const std::size_t next = d + 1 < width ? starts[d + 1] : n;
    if (next != starts[d]) out.offsets.push_back(starts[d]);
  }
  out.offsets.push_back(n);
  parallel_for(std::size_t{0}, wb.size() - 1, [&](std::size_t wc) {
    for (std::size_t d = wb[wc]; d < wb[wc + 1]; ++d) {
      std::size_t pos = starts[d];
      for (std::size_t u = 0; u < n_units; ++u) {
        const std::uint32_t cnt = hist[u * width + d];
        hist[u * width + d] = static_cast<std::uint32_t>(pos);
        pos += cnt;
      }
    }
  });

  // Pass 2: full decode, scattered straight to final grouped positions.
  out.records.resize(n);
  Rec* recs = out.records.data();
  parallel_for(std::size_t{0}, n_units, [&](std::size_t u) {
    std::uint32_t* cursors = hist.data() + u * width;
    for_each_unit_record<Message>(data, idx, ub[u], ub[u + 1],
                                  [&](const Rec& r) {
                                    recs[cursors[r.dst - range_begin]++] = r;
                                  });
  });
  return out;
}

/// v2 scatter-with-combine: decode fused into the single accumulate pass
/// (mirrors scatter_group_combine over chunk units).
template <typename Message, typename Combine>
GroupedLog<Message> scatter_group_combine_v2(std::span<const std::byte> bytes,
                                             const LogChunkIndex& idx,
                                             VertexId range_begin,
                                             VertexId range_end,
                                             Combine&& combine) {
  using Rec = Record<Message>;
  GroupedLog<Message> out;
  out.path = SortGroupPath::kCountingScatter;
  const std::size_t n = idx.n_records();
  out.decoded = n;
  if (n == 0) return out;
  MLVC_CHECK(n <= std::numeric_limits<std::uint32_t>::max());
  const std::size_t width = static_cast<std::size_t>(range_end - range_begin);
  const auto* data = reinterpret_cast<const std::uint8_t*>(bytes.data());
  const std::vector<std::size_t> ub = chunk_units(idx);
  const std::size_t n_units = ub.size() - 1;

  std::vector<std::uint32_t> hist(n_units * width, 0);
  std::vector<Message> accs(n_units * width);
  parallel_for(std::size_t{0}, n_units, [&](std::size_t u) {
    std::uint32_t* h = hist.data() + u * width;
    Message* a = accs.data() + u * width;
    for_each_unit_record<Message>(
        data, idx, ub[u], ub[u + 1], [&](const Rec& r) {
          check_dst_in_range(r.dst, range_begin, range_end);
          const std::size_t d = r.dst - range_begin;
          a[d] = h[d] ? combine(a[d], r.payload) : r.payload;
          ++h[d];
        });
  });

  const auto wb = chunk_bounds(width, std::size_t{4096}, hardware_threads());
  const std::size_t n_wc = wb.size() - 1;
  std::vector<std::size_t> slot_base(n_wc, 0);
  parallel_for(std::size_t{0}, n_wc, [&](std::size_t wc) {
    std::size_t live = 0;
    for (std::size_t d = wb[wc]; d < wb[wc + 1]; ++d) {
      for (std::size_t u = 0; u < n_units; ++u) {
        if (hist[u * width + d] != 0) {
          ++live;
          break;
        }
      }
    }
    slot_base[wc] = live;
  });
  const std::size_t n_groups =
      parallel_exclusive_scan(std::span<std::size_t>(slot_base));

  out.records.resize(n_groups);
  Rec* recs = out.records.data();
  parallel_for(std::size_t{0}, n_wc, [&](std::size_t wc) {
    std::size_t slot = slot_base[wc];
    for (std::size_t d = wb[wc]; d < wb[wc + 1]; ++d) {
      Message acc{};
      bool live = false;
      for (std::size_t u = 0; u < n_units; ++u) {
        if (hist[u * width + d] == 0) continue;
        const Message& m = accs[u * width + d];
        acc = live ? combine(acc, m) : m;
        live = true;
      }
      if (live) {
        recs[slot] = Rec{static_cast<VertexId>(range_begin + d), acc};
        ++slot;
      }
    }
  });
  out.offsets.resize(n_groups + 1);
  for (std::size_t i = 0; i <= n_groups; ++i) out.offsets[i] = i;
  return out;
}

}  // namespace detail

/// Decode + group one fused interval group's raw log (destinations all in
/// [range_begin, range_end)), no combine. `policy` kAuto picks the counting
/// scatter unless the histogram would be too large relative to the record
/// count; forcing a path is for tests and ablation.
template <typename Message>
GroupedLog<Message> sort_and_group(std::span<const std::byte> bytes,
                                   VertexId range_begin, VertexId range_end,
                                   SortGroupPath policy) {
  const std::size_t n = bytes.size() / sizeof(Record<Message>);
  if (detail::choose_scatter(policy, n, range_end - range_begin)) {
    return detail::scatter_group<Message>(bytes, range_begin, range_end);
  }
  GroupedLog<Message> out;
  out.path = SortGroupPath::kComparisonSort;
  out.records = decode_records<Message>(bytes);
  out.decoded = out.records.size();
  sort_records(out.records);
  out.offsets = group_offsets(
      std::span<const Record<Message>>(out.records.data(), out.records.size()));
  return out;
}

/// As above, with the application's combine operator (§V.D) fused in: the
/// result carries exactly one record per live destination. Combine must be
/// associative and commutative — fold order differs between the two paths.
template <typename Message, typename Combine>
GroupedLog<Message> sort_and_group(std::span<const std::byte> bytes,
                                   VertexId range_begin, VertexId range_end,
                                   SortGroupPath policy, Combine&& combine) {
  const std::size_t n = bytes.size() / sizeof(Record<Message>);
  if (detail::choose_scatter(policy, n, range_end - range_begin)) {
    return detail::scatter_group_combine<Message>(
        bytes, range_begin, range_end, std::forward<Combine>(combine));
  }
  GroupedLog<Message> out;
  out.path = SortGroupPath::kComparisonSort;
  out.records = decode_records<Message>(bytes);
  out.decoded = out.records.size();
  sort_records(out.records);
  combine_sorted(out.records, std::forward<Combine>(combine));
  out.offsets = group_offsets(
      std::span<const Record<Message>>(out.records.data(), out.records.size()));
  return out;
}

// ---- v2 (chunked delta+varint) entry points --------------------------------
//
// Same contracts as sort_and_group, over a v2 chunk stream (the shape
// MultiLogStore::load_interval returns under OnDiskFormat::kV2). The stream
// must be whole chunks — the engine's torn-page funnel
// (index_log_chunks under TornPagePolicy::kTruncate) runs at load time,
// so a tear never reaches the scatter. Record order within the stream is
// append order, exactly the order the v1 byte stream carries, so both
// formats produce identical grouped output.

/// Expand a v2 chunk stream into typed records (the comparison-sort
/// fallback's decode; also used by checkpoint transcoding tests).
template <typename Message>
std::vector<Record<Message>> decode_records_v2(std::span<const std::byte> bytes) {
  std::vector<std::byte> raw;
  decode_chunks_to_records(bytes, sizeof(Record<Message>),
                           kPayloadVarint<Message>, raw);
  return decode_records<Message>(raw);
}

template <typename Message>
GroupedLog<Message> sort_and_group_v2(std::span<const std::byte> bytes,
                                      VertexId range_begin, VertexId range_end,
                                      SortGroupPath policy) {
  const LogChunkIndex idx = index_log_chunks(bytes, TornPagePolicy::kThrow);
  if (detail::choose_scatter(policy, idx.n_records(),
                             range_end - range_begin)) {
    return detail::scatter_group_v2<Message>(bytes, idx, range_begin,
                                             range_end);
  }
  GroupedLog<Message> out;
  out.path = SortGroupPath::kComparisonSort;
  out.records = decode_records_v2<Message>(bytes);
  out.decoded = out.records.size();
  sort_records(out.records);
  out.offsets = group_offsets(
      std::span<const Record<Message>>(out.records.data(), out.records.size()));
  return out;
}

template <typename Message, typename Combine>
GroupedLog<Message> sort_and_group_v2(std::span<const std::byte> bytes,
                                      VertexId range_begin, VertexId range_end,
                                      SortGroupPath policy,
                                      Combine&& combine) {
  const LogChunkIndex idx = index_log_chunks(bytes, TornPagePolicy::kThrow);
  if (detail::choose_scatter(policy, idx.n_records(),
                             range_end - range_begin)) {
    return detail::scatter_group_combine_v2<Message>(
        bytes, idx, range_begin, range_end, std::forward<Combine>(combine));
  }
  GroupedLog<Message> out;
  out.path = SortGroupPath::kComparisonSort;
  out.records = decode_records_v2<Message>(bytes);
  out.decoded = out.records.size();
  sort_records(out.records);
  combine_sorted(out.records, std::forward<Combine>(combine));
  out.offsets = group_offsets(
      std::span<const Record<Message>>(out.records.data(), out.records.size()));
  return out;
}

}  // namespace mlvc::multilog
