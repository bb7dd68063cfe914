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
// therefore a fused counting scatter keyed by dst - range_begin: one pass
// over the log builds histograms while decoding destination headers, a
// prefix sum over the fused-interval-width histogram yields the final group
// offsets for free, and a second pass decodes records straight into their
// final grouped positions — no intermediate decode copy, no O(n log n) sort,
// no separate group-offset scan. Both on-disk formats reach the scatter
// through a log-unit reader (raw fixed-width records for v1, delta+varint
// chunks for v2), so one scatter and one scatter-with-combine serve both.
// The comparison-sort path survives as an automatic fallback for
// nearly-empty logs over wide vertex ranges (width >> n, where the histogram
// itself would dominate) and as an ablation variant.
#pragma once

#include <algorithm>
#include <cstring>
#include <limits>
#include <span>
#include <type_traits>
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
/// O(n + width) time and O(rows × width) histogram bytes, so it wins
/// whenever the fused range is not vastly wider than the log is long. The
/// §V.A.1 sizing rule bounds width by the sort budget, so on dense logs —
/// the case that matters, per the paper — this always picks the scatter;
/// nearly-empty tail-superstep logs over wide ranges fall back.
inline bool counting_scatter_fits(std::size_t n_records, std::size_t width) {
  if (n_records > std::numeric_limits<std::uint32_t>::max()) {
    return false;  // per-row cursors are 32-bit
  }
  return width <= std::max<std::size_t>(4096, 2 * n_records);
}

/// sort_and_group's combine argument when the group is not combined.
struct NoCombine {};

namespace detail {

/// Records per log unit. Unit boundaries are a pure function of the log, so
/// the per-unit combine folds in the same order under any thread count.
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

// ---- log-unit readers -------------------------------------------------------
//
// A reader cuts one group's log into units and decodes a unit at a time, in
// append order:
//   n_records()             records in the log
//   n_units()               number of units
//   for_each_dst(u, fn)     fn(VertexId) for every record of unit u
//   for_each_record(u, fn)  fn(const Record&) for every record of unit u
// Constructing one is the torn-page funnel: a log that is not a whole number
// of records (v1) or chunks (v2) throws a typed mlvc::Error.

/// v1: raw fixed-width records, cut into fixed kScatterChunkRecords units.
template <typename Message>
class RecordUnits {
 public:
  using Rec = Record<Message>;

  explicit RecordUnits(std::span<const std::byte> bytes)
      : base_(bytes.data()), n_(checked_record_count<Message>(bytes)) {}

  std::size_t n_records() const { return n_; }
  std::size_t n_units() const {
    return (n_ + kScatterChunkRecords - 1) / kScatterChunkRecords;
  }

  template <typename Fn>
  void for_each_dst(std::size_t u, Fn&& fn) const {
    const std::size_t end = unit_end(u);
    for (std::size_t i = u * kScatterChunkRecords; i < end; ++i) {
      VertexId dst;
      std::memcpy(&dst, base_ + i * sizeof(Rec), sizeof(VertexId));
      fn(dst);
    }
  }

  template <typename Fn>
  void for_each_record(std::size_t u, Fn&& fn) const {
    const std::size_t end = unit_end(u);
    for (std::size_t i = u * kScatterChunkRecords; i < end; ++i) {
      Rec r;
      std::memcpy(&r, base_ + i * sizeof(Rec), sizeof(Rec));
      fn(static_cast<const Rec&>(r));
    }
  }

 private:
  std::size_t unit_end(std::size_t u) const {
    return std::min(n_, (u + 1) * kScatterChunkRecords);
  }

  const std::byte* base_;
  std::size_t n_;
};

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

/// v2: a chunk stream (the shape MultiLogStore::load_interval returns under
/// OnDiskFormat::kV2), cut at whole chunks into units of about
/// kScatterChunkRecords records. for_each_dst decodes only the destination
/// streams, skipping payload areas via the header's dst_bytes.
template <typename Message>
class ChunkUnits {
 public:
  using Rec = Record<Message>;

  explicit ChunkUnits(std::span<const std::byte> bytes)
      : data_(reinterpret_cast<const std::uint8_t*>(bytes.data())),
        idx_(index_log_chunks(bytes, TornPagePolicy::kThrow)) {
    const std::size_t n_enc = idx_.chunk_offsets.size();
    std::size_t unit_start_rec = 0;
    for (std::size_t c = 0; c < n_enc; ++c) {
      if (idx_.rec_offsets[c + 1] - unit_start_rec >= kScatterChunkRecords) {
        units_.push_back(c + 1);
        unit_start_rec = idx_.rec_offsets[c + 1];
      }
    }
    if (units_.back() != n_enc) units_.push_back(n_enc);
  }

  std::size_t n_records() const { return idx_.n_records(); }
  std::size_t n_units() const { return units_.size() - 1; }

  template <typename Fn>
  void for_each_dst(std::size_t u, Fn&& fn) const {
    for (std::size_t c = units_[u]; c < units_[u + 1]; ++c) {
      const std::uint8_t* chunk = data_ + idx_.chunk_offsets[c];
      for_each_chunk_dst(chunk, read_chunk_header(chunk), fn);
    }
  }

  /// One dst-array scratch per call (bounded by kLogChunkMaxRecords),
  /// reused across the unit's chunks.
  template <typename Fn>
  void for_each_record(std::size_t u, Fn&& fn) const {
    std::vector<VertexId> dsts;
    for (std::size_t c = units_[u]; c < units_[u + 1]; ++c) {
      const std::uint8_t* chunk = data_ + idx_.chunk_offsets[c];
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

 private:
  const std::uint8_t* data_;
  LogChunkIndex idx_;
  std::vector<std::size_t> units_ = {0};  // first chunk of each unit + end
};

// ---- the two scatters and the fallback --------------------------------------

/// The counting scatter, no combine: histogram pass + prefix sum + scatter
/// pass, decoding each unit straight into final grouped positions. It is
/// stable (equal-dst records keep append order), so the output does not
/// depend on how units are cut: each histogram row takes a contiguous run
/// of units, and there are at most hardware_threads() rows.
template <typename Message, typename Units>
GroupedLog<Message> scatter_group(const Units& units, VertexId range_begin,
                                  VertexId range_end) {
  using Rec = Record<Message>;
  GroupedLog<Message> out;
  out.path = SortGroupPath::kCountingScatter;
  const std::size_t n = units.n_records();
  out.decoded = n;
  if (n == 0) return out;
  MLVC_CHECK(n <= std::numeric_limits<std::uint32_t>::max());
  const std::size_t width =
      static_cast<std::size_t>(range_end - range_begin);
  const auto rows = chunk_bounds(units.n_units(), 1, hardware_threads());
  const std::size_t n_rows = rows.size() - 1;

  // Pass 1: per-row histograms keyed by dst - range_begin, built while the
  // destination headers are decoded.
  std::vector<std::uint32_t> hist(n_rows * width, 0);
  parallel_for(std::size_t{0}, n_rows, [&](std::size_t r) {
    std::uint32_t* h = hist.data() + r * width;
    for (std::size_t u = rows[r]; u < rows[r + 1]; ++u) {
      units.for_each_dst(u, [&](VertexId dst) {
        check_dst_in_range(dst, range_begin, range_end);
        ++h[dst - range_begin];
      });
    }
  });

  // Prefix sum over the fused-interval-width histogram: starts[d] becomes
  // destination d's first slot, which is also its group offset.
  std::vector<std::size_t> starts(width);
  const auto wb = chunk_bounds(width, std::size_t{4096}, hardware_threads());
  parallel_for(std::size_t{0}, wb.size() - 1, [&](std::size_t wc) {
    for (std::size_t d = wb[wc]; d < wb[wc + 1]; ++d) {
      std::size_t total = 0;
      for (std::size_t r = 0; r < n_rows; ++r) total += hist[r * width + d];
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

  // Turn the per-row histograms into per-row write cursors: row r's records
  // for destination d land at starts[d] + (d-counts of rows < r).
  parallel_for(std::size_t{0}, wb.size() - 1, [&](std::size_t wc) {
    for (std::size_t d = wb[wc]; d < wb[wc + 1]; ++d) {
      std::size_t pos = starts[d];
      for (std::size_t r = 0; r < n_rows; ++r) {
        const std::uint32_t cnt = hist[r * width + d];
        hist[r * width + d] = static_cast<std::uint32_t>(pos);
        pos += cnt;
      }
    }
  });

  // Pass 2: decode records straight into their final grouped positions.
  out.records.resize(n);
  Rec* recs = out.records.data();
  parallel_for(std::size_t{0}, n_rows, [&](std::size_t r) {
    std::uint32_t* cursors = hist.data() + r * width;
    for (std::size_t u = rows[r]; u < rows[r + 1]; ++u) {
      units.for_each_record(u, [&](const Rec& rec) {
        recs[cursors[rec.dst - range_begin]++] = rec;
      });
    }
  });
  return out;
}

/// Scatter-with-combine (§V.D fused into §V.B): each unit combines its
/// records into one accumulator row (one slot per destination, its count
/// in the matching histogram row), so the n-record intermediate array of
/// the unfused path never exists. Row 0 is the group's accumulator: it
/// takes unit 0, and the later units run in rounds over the other rows,
/// each round folding its rows into row 0 in unit order. A destination's
/// fold sequence is thus a function of the log alone (float combines give
/// the same bits at every thread count), and the scratch is
/// min(units, max(threads, 2)) × width × (4 + sizeof(Message)) bytes.
template <typename Message, typename Units, typename Combine>
GroupedLog<Message> scatter_group_combine(const Units& units,
                                          VertexId range_begin,
                                          VertexId range_end,
                                          Combine&& combine) {
  using Rec = Record<Message>;
  GroupedLog<Message> out;
  out.path = SortGroupPath::kCountingScatter;
  const std::size_t n = units.n_records();
  out.decoded = n;
  if (n == 0) return out;
  MLVC_CHECK(n <= std::numeric_limits<std::uint32_t>::max());
  const std::size_t width =
      static_cast<std::size_t>(range_end - range_begin);
  const std::size_t n_units = units.n_units();
  const std::size_t n_rows = std::min<std::size_t>(
      n_units, std::max<std::size_t>(hardware_threads(), 2));
  const auto wb = chunk_bounds(width, std::size_t{4096}, hardware_threads());
  const std::size_t n_wc = wb.size() - 1;

  std::vector<std::uint32_t> hist(n_rows * width, 0);
  std::vector<Message> accs(n_rows * width);
  for (std::size_t u0 = 0; u0 < n_units;) {
    // The first round fills every row; later rounds leave row 0 to the fold.
    const std::size_t r0 = u0 == 0 ? 0 : 1;
    const std::size_t round = std::min(n_rows - r0, n_units - u0);
    parallel_for(std::size_t{0}, round, [&](std::size_t k) {
      std::uint32_t* h = hist.data() + (r0 + k) * width;
      Message* a = accs.data() + (r0 + k) * width;
      units.for_each_record(u0 + k, [&](const Rec& rec) {
        check_dst_in_range(rec.dst, range_begin, range_end);
        const std::size_t d = rec.dst - range_begin;
        a[d] = h[d] ? combine(a[d], rec.payload) : rec.payload;
        ++h[d];
      });
    });
    u0 += round;
    if (r0 + round == 1) continue;
    // Fold rows 1.. into row 0 in unit order, clearing them for the next
    // round.
    parallel_for(std::size_t{0}, n_wc, [&](std::size_t wc) {
      for (std::size_t d = wb[wc]; d < wb[wc + 1]; ++d) {
        for (std::size_t r = 1; r < r0 + round; ++r) {
          std::uint32_t& h = hist[r * width + d];
          if (h == 0) continue;
          const Message& m = accs[r * width + d];
          accs[d] = hist[d] ? combine(accs[d], m) : m;
          hist[d] += h;
          h = 0;
        }
      }
    });
  }

  // Count live destinations per width chunk, then assign output slots.
  std::vector<std::size_t> slot_base(n_wc, 0);
  parallel_for(std::size_t{0}, n_wc, [&](std::size_t wc) {
    slot_base[wc] = static_cast<std::size_t>(
        std::count_if(hist.begin() + wb[wc], hist.begin() + wb[wc + 1],
                      [](std::uint32_t c) { return c != 0; }));
  });
  const std::size_t n_groups =
      parallel_exclusive_scan(std::span<std::size_t>(slot_base));

  out.records.resize(n_groups);
  Rec* recs = out.records.data();
  parallel_for(std::size_t{0}, n_wc, [&](std::size_t wc) {
    std::size_t slot = slot_base[wc];
    for (std::size_t d = wb[wc]; d < wb[wc + 1]; ++d) {
      if (hist[d] != 0) {
        recs[slot++] = Rec{static_cast<VertexId>(range_begin + d), accs[d]};
      }
    }
  });
  out.offsets.resize(n_groups + 1);
  for (std::size_t i = 0; i <= n_groups; ++i) out.offsets[i] = i;
  return out;
}

template <typename Combine>
inline constexpr bool kNoCombine =
    std::is_same_v<std::remove_cvref_t<Combine>, NoCombine>;

/// Decode every unit in append order, sort by destination, combine if
/// asked: the comparison-sort path.
template <typename Message, typename Units, typename Combine>
GroupedLog<Message> comparison_group(const Units& units, Combine&& combine) {
  GroupedLog<Message> out;
  out.path = SortGroupPath::kComparisonSort;
  out.decoded = units.n_records();
  out.records.resize(out.decoded);
  Record<Message>* next = out.records.data();
  for (std::size_t u = 0; u < units.n_units(); ++u) {
    units.for_each_record(u, [&](const Record<Message>& r) { *next++ = r; });
  }
  sort_records(out.records);
  if constexpr (!kNoCombine<Combine>) combine_sorted(out.records, combine);
  out.offsets = group_offsets(
      std::span<const Record<Message>>(out.records.data(), out.records.size()));
  return out;
}

template <typename Message, typename Units, typename Combine>
GroupedLog<Message> group_units(const Units& units, VertexId range_begin,
                                VertexId range_end, SortGroupPath policy,
                                Combine&& combine) {
  const bool scatter =
      policy == SortGroupPath::kAuto
          ? counting_scatter_fits(units.n_records(), range_end - range_begin)
          : policy == SortGroupPath::kCountingScatter;
  if (!scatter) return comparison_group<Message>(units, combine);
  if constexpr (kNoCombine<Combine>) {
    return scatter_group<Message>(units, range_begin, range_end);
  } else {
    return scatter_group_combine<Message>(units, range_begin, range_end,
                                          combine);
  }
}

}  // namespace detail

/// Decode + group one fused interval group's log (destinations all in
/// [range_begin, range_end)), stored in `format`. `policy` kAuto picks the
/// counting scatter unless the histogram would be too large relative to the
/// record count; forcing a path is for tests and ablation. Given the
/// application's combine operator (§V.D), the result carries exactly one
/// record per live destination; combine must be associative and
/// commutative — fold order differs between the two paths.
///
/// A v2 stream must be whole chunks: the engine's torn-page funnel
/// (index_log_chunks under TornPagePolicy::kTruncate) runs at load time, so
/// a tear never reaches here. Record order within a v2 stream is append
/// order, exactly the order the v1 byte stream carries, so both formats
/// produce identical grouped output.
template <typename Message, typename Combine = NoCombine>
GroupedLog<Message> sort_and_group(std::span<const std::byte> bytes,
                                   OnDiskFormat format, VertexId range_begin,
                                   VertexId range_end, SortGroupPath policy,
                                   Combine&& combine = {}) {
  if (format == OnDiskFormat::kV2) {
    return detail::group_units<Message>(detail::ChunkUnits<Message>(bytes),
                                        range_begin, range_end, policy,
                                        combine);
  }
  return detail::group_units<Message>(detail::RecordUnits<Message>(bytes),
                                      range_begin, range_end, policy, combine);
}

}  // namespace mlvc::multilog
