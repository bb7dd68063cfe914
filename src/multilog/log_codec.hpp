// Chunked delta+varint codec for the v2 on-disk message-log format.
//
// A v2 log is a byte stream of self-delimiting chunks; the multi-log's pages
// are plain page_size slices of that stream, so chunks may straddle page
// boundaries and concatenating two valid streams yields a valid stream (the
// engine concatenates interval logs before sort-and-group). Chunk layout:
//
//   [u16 n_records][u16 dst_bytes][u16 body_bytes]   6-byte header
//   [dst stream:      dst_bytes]                      first dst absolute
//                                                     uvarint, rest zigzag'd
//                                                     deltas (send order)
//   [payload area:    body_bytes - dst_bytes]         one payload per record,
//                                                     uvarint when
//                                                     payload_varint, else
//                                                     record_size - 4 raw
//                                                     bytes each
//
// Destinations within a committed chunk cluster (sends walk sorted adjacency
// lists), so the delta stream is short; incompressible payloads (floats)
// keep their fixed width. Record order within a chunk is append order — the
// decoder reproduces the exact record sequence of the v1 stream, so both
// formats group to identical results.
//
// Torn-page funnel: a crash can only shorten the stream, so a tear shows up
// in the header-only walk as a stream ending mid-header or mid-chunk.
// TornPagePolicy::kTruncate drops the partial chunk; kThrow surfaces a typed
// mlvc::Error. A header that cannot be valid at any length (zero records,
// dst stream larger than the body) is corruption, not truncation, and
// always throws.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "common/varint.hpp"

namespace mlvc::multilog {

/// What to do when a raw log buffer ends mid-record (v1) or mid-chunk (v2) —
/// a torn or truncated trailing page left by a crash mid-append.
enum class TornPagePolicy {
  kThrow,     // strict: surface as a typed mlvc::Error
  kTruncate,  // recovery: drop the partial tail and continue
};

inline constexpr std::size_t kLogChunkHeaderBytes = 6;

/// Encoder cap on records per chunk (the u16 body size field caps it harder
/// for large records). Bounds the decoder's per-chunk scratch.
inline constexpr std::size_t kLogChunkMaxRecords = 4096;

/// Worst-case encoded bytes one record can add to a chunk body: a u32
/// destination varint (absolute or zigzag'd delta) is at most 5 bytes.
inline std::size_t worst_chunk_record_bytes(std::size_t record_size,
                                            bool payload_varint) {
  return 5 + (payload_varint ? kMaxVarintBytes
                             : record_size - sizeof(VertexId));
}

inline std::size_t max_records_per_chunk(std::size_t record_size,
                                         bool payload_varint) {
  const std::size_t per = worst_chunk_record_bytes(record_size, payload_varint);
  return std::max<std::size_t>(
      1, std::min<std::size_t>(kLogChunkMaxRecords, 0xFFFF / per));
}

struct LogChunkHeader {
  std::size_t n_records = 0;
  std::size_t dst_bytes = 0;
  std::size_t body_bytes = 0;
};

/// Parse a header the caller has verified has kLogChunkHeaderBytes of room.
inline LogChunkHeader read_chunk_header(const std::uint8_t* p) {
  std::uint16_t n = 0, d = 0, b = 0;
  std::memcpy(&n, p + 0, 2);
  std::memcpy(&d, p + 2, 2);
  std::memcpy(&b, p + 4, 2);
  return {n, d, b};
}

/// Encode `n` fixed-width records (first 4 bytes = destination id) into the
/// chunk stream appended to `out`. Splits into multiple chunks so every size
/// field fits u16. payload_varint requires the payload to be at most 8 bytes
/// (it is read as a little-endian u64 bit pattern and round-trips exactly,
/// signed or not).
inline void encode_log_records(const std::byte* records, std::size_t n,
                               std::size_t record_size, bool payload_varint,
                               std::vector<std::uint8_t>& out) {
  const std::size_t payload_bytes = record_size - sizeof(VertexId);
  MLVC_CHECK_MSG(!payload_varint || payload_bytes <= 8,
                 "varint payloads must fit a u64");
  const std::size_t per_chunk =
      max_records_per_chunk(record_size, payload_varint);
  std::size_t off = 0;
  while (off < n) {
    const std::size_t take = std::min(n - off, per_chunk);
    const std::size_t header_pos = out.size();
    out.resize(header_pos + kLogChunkHeaderBytes);
    std::int64_t prev = 0;
    for (std::size_t k = 0; k < take; ++k) {
      VertexId dst = 0;
      std::memcpy(&dst, records + (off + k) * record_size, sizeof(VertexId));
      const std::int64_t cur = static_cast<std::int64_t>(dst);
      if (k == 0) {
        put_uvarint(out, static_cast<std::uint64_t>(cur));
      } else {
        put_uvarint(out, zigzag_encode(cur - prev));
      }
      prev = cur;
    }
    const std::size_t dst_bytes = out.size() - header_pos - kLogChunkHeaderBytes;
    for (std::size_t k = 0; k < take; ++k) {
      const std::byte* payload =
          records + (off + k) * record_size + sizeof(VertexId);
      if (payload_varint) {
        std::uint64_t v = 0;
        std::memcpy(&v, payload, payload_bytes);
        put_uvarint(out, v);
      } else {
        const auto* p = reinterpret_cast<const std::uint8_t*>(payload);
        out.insert(out.end(), p, p + payload_bytes);
      }
    }
    const std::size_t body = out.size() - header_pos - kLogChunkHeaderBytes;
    MLVC_CHECK(take <= 0xFFFF && dst_bytes <= 0xFFFF && body <= 0xFFFF);
    const std::uint16_t h[3] = {static_cast<std::uint16_t>(take),
                                static_cast<std::uint16_t>(dst_bytes),
                                static_cast<std::uint16_t>(body)};
    std::memcpy(out.data() + header_pos, h, kLogChunkHeaderBytes);
    off += take;
  }
}

/// One serial header walk over a chunk stream: per-chunk byte offsets plus a
/// record-count prefix sum (rec_offsets[c] = records before chunk c). This is
/// the torn-page funnel for v2 — see TornPagePolicy above for tear vs
/// corruption semantics.
struct LogChunkIndex {
  std::vector<std::size_t> chunk_offsets;  // start byte of each whole chunk
  std::vector<std::size_t> rec_offsets;    // size chunk_offsets.size() + 1
  std::size_t valid_bytes = 0;             // prefix covered by whole chunks
  std::size_t dropped_bytes = 0;           // torn tail (kTruncate only)
  std::uint64_t n_records() const { return rec_offsets.back(); }
};

inline LogChunkIndex index_log_chunks(std::span<const std::byte> bytes,
                                      TornPagePolicy policy) {
  LogChunkIndex idx;
  idx.rec_offsets.push_back(0);
  const auto* data = reinterpret_cast<const std::uint8_t*>(bytes.data());
  std::size_t pos = 0;
  bool torn = false;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kLogChunkHeaderBytes) {
      torn = true;
      break;
    }
    const LogChunkHeader h = read_chunk_header(data + pos);
    // Each destination varint is at least one byte, so a valid header has
    // dst_bytes in [n_records, body_bytes]. Violations cannot come from a
    // shortened stream — they are corruption and throw under either policy.
    MLVC_CHECK_MSG(h.n_records > 0 && h.dst_bytes >= h.n_records &&
                       h.dst_bytes <= h.body_bytes,
                   "corrupt log chunk header at byte "
                       << pos << " (" << h.n_records << " records, "
                       << h.dst_bytes << " dst bytes, " << h.body_bytes
                       << " body bytes)");
    if (bytes.size() - pos - kLogChunkHeaderBytes < h.body_bytes) {
      torn = true;
      break;
    }
    idx.chunk_offsets.push_back(pos);
    idx.rec_offsets.push_back(idx.rec_offsets.back() + h.n_records);
    pos += kLogChunkHeaderBytes + h.body_bytes;
  }
  if (torn) {
    MLVC_CHECK_MSG(policy == TornPagePolicy::kTruncate,
                   "log chunk stream ends mid-chunk at byte "
                       << pos << " of " << bytes.size()
                       << " — torn/truncated page?");
    idx.dropped_bytes = bytes.size() - pos;
  }
  idx.valid_bytes = pos;
  return idx;
}

/// Decode one chunk's destination stream, calling fn(dst) per record in
/// append order. Varint truncation/overflow inside the body surfaces as a
/// typed mlvc::Error (the header walk only validates chunk framing).
template <typename Fn>
void for_each_chunk_dst(const std::uint8_t* chunk, const LogChunkHeader& h,
                        Fn&& fn) {
  const std::uint8_t* cur = chunk + kLogChunkHeaderBytes;
  const std::uint8_t* end = cur + h.dst_bytes;
  std::int64_t prev = 0;
  for (std::size_t k = 0; k < h.n_records; ++k) {
    std::int64_t v;
    if (k == 0) {
      v = static_cast<std::int64_t>(get_uvarint(&cur, end));
    } else {
      v = prev + zigzag_decode(get_uvarint(&cur, end));
    }
    if (v < 0 || v > static_cast<std::int64_t>(UINT32_MAX)) {
      throw Error("log chunk: delta-decoded destination out of u32 range");
    }
    fn(static_cast<VertexId>(v));
    prev = v;
  }
  MLVC_CHECK_MSG(cur == end, "log chunk dst stream length mismatch");
}

/// Inverse of encode_log_records over a whole (healthy) stream: expand
/// chunks back to fixed-width records, appended to `out`. Used by the
/// checkpoint transcoder and the comparison-sort fallback.
inline void decode_chunks_to_records(std::span<const std::byte> chunks,
                                     std::size_t record_size,
                                     bool payload_varint,
                                     std::vector<std::byte>& out) {
  const LogChunkIndex idx = index_log_chunks(chunks, TornPagePolicy::kThrow);
  const std::size_t payload_bytes = record_size - sizeof(VertexId);
  const auto* data = reinterpret_cast<const std::uint8_t*>(chunks.data());
  std::size_t base = out.size();
  out.resize(base + idx.n_records() * record_size);
  for (std::size_t c = 0; c < idx.chunk_offsets.size(); ++c) {
    const std::uint8_t* chunk = data + idx.chunk_offsets[c];
    const LogChunkHeader h = read_chunk_header(chunk);
    std::byte* rec = out.data() + base;
    for_each_chunk_dst(chunk, h, [&](VertexId dst) {
      std::memcpy(rec, &dst, sizeof(VertexId));
      rec += record_size;
    });
    const std::uint8_t* cur = chunk + kLogChunkHeaderBytes + h.dst_bytes;
    const std::uint8_t* end = chunk + kLogChunkHeaderBytes + h.body_bytes;
    rec = out.data() + base;
    for (std::size_t k = 0; k < h.n_records; ++k) {
      std::byte* payload = rec + sizeof(VertexId);
      if (payload_varint) {
        const std::uint64_t v = get_uvarint(&cur, end);
        std::memcpy(payload, &v, payload_bytes);
      } else {
        MLVC_CHECK_MSG(static_cast<std::size_t>(end - cur) >= payload_bytes,
                       "log chunk payload area truncated");
        std::memcpy(payload, cur, payload_bytes);
        cur += payload_bytes;
      }
      rec += record_size;
    }
    MLVC_CHECK_MSG(cur == end, "log chunk payload area length mismatch");
    base += h.n_records * record_size;
  }
}

/// encode_log_records over an untyped record image (checkpoint transcoder's
/// v1 -> v2 direction). `records.size()` must be whole records.
inline void encode_records_to_chunks(std::span<const std::byte> records,
                                     std::size_t record_size,
                                     bool payload_varint,
                                     std::vector<std::uint8_t>& out) {
  MLVC_CHECK_MSG(records.size() % record_size == 0,
                 "record image not a whole number of records");
  encode_log_records(records.data(), records.size() / record_size, record_size,
                     payload_varint, out);
}

}  // namespace mlvc::multilog
