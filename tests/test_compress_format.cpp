// On-disk format v2 (delta+varint) property tests: the varint primitives
// over adversarial value distributions, chunk-codec round-trips for every
// payload class (varint, fixed float, padded fixed), the v2 torn-page
// funnel's tear-vs-corruption split, fused-scatter equivalence against the
// v1 grouping, stored-CSR v1/v2 equivalence, an engine v1-vs-v2 matrix, and
// checkpoint restores across format changes (including a synthesized
// pre-format-v2 version-2 image).
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <random>
#include <vector>

#include "apps/bfs.hpp"
#include "apps/cdlp.hpp"
#include "apps/pagerank.hpp"
#include "apps/wcc.hpp"
#include "common/checksum.hpp"
#include "common/varint.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "graph/stored_csr.hpp"
#include "multilog/sort_group.hpp"
#include "tests/reference.hpp"
#include "tests/test_util.hpp"

namespace mlvc {
namespace {

using multilog::LogChunkHeader;
using multilog::LogChunkIndex;
using multilog::Record;
using multilog::TornPagePolicy;

/// Format-pinning tests clear this (the engine re-applies it at
/// construction) so a CI format leg cannot retarget them.
const std::vector<const char*> kFormatVars = {"MLVC_FORMAT"};

// ---- varint primitives ------------------------------------------------------

std::vector<std::uint64_t> adversarial_u64s() {
  std::vector<std::uint64_t> vs = {0, 1, 2, 0x7F, 0x80, 0xFF, 0x100};
  // Every 7-bit group boundary, where the encoded length steps up.
  for (unsigned k = 1; k < 10; ++k) {
    const std::uint64_t b = std::uint64_t{1} << (7 * k);
    vs.push_back(b - 1);
    vs.push_back(b);
    vs.push_back(b + 1);
  }
  vs.push_back(UINT32_MAX);
  vs.push_back(std::uint64_t{UINT32_MAX} + 1);
  vs.push_back(UINT64_MAX - 1);
  vs.push_back(UINT64_MAX);
  std::mt19937_64 rng(17);
  for (int i = 0; i < 2000; ++i) {
    // Spread across magnitudes: random bit width, then random value in it.
    const unsigned bits = 1 + static_cast<unsigned>(rng() % 64);
    vs.push_back(rng() >> (64 - bits));
  }
  return vs;
}

TEST(Varint, RoundTripAdversarialValues) {
  for (const std::uint64_t v : adversarial_u64s()) {
    std::vector<std::uint8_t> buf;
    const std::size_t len = put_uvarint(buf, v);
    ASSERT_EQ(len, buf.size());
    ASSERT_LE(len, kMaxVarintBytes);
    // Length = ceil(bit_width / 7), one byte minimum.
    std::size_t expect_len = 1;
    for (std::uint64_t x = v; x >= 0x80; x >>= 7) ++expect_len;
    EXPECT_EQ(len, expect_len) << "value " << v;

    // The raw-buffer encoder must agree byte for byte.
    std::uint8_t raw[kMaxVarintBytes];
    ASSERT_EQ(put_uvarint(raw, v), len);
    EXPECT_EQ(std::memcmp(raw, buf.data(), len), 0);

    const std::uint8_t* cur = buf.data();
    EXPECT_EQ(get_uvarint(&cur, buf.data() + buf.size()), v);
    EXPECT_EQ(cur, buf.data() + buf.size());

    cur = buf.data();
    std::uint64_t out = 0;
    ASSERT_TRUE(try_get_uvarint(&cur, buf.data() + buf.size(), &out));
    EXPECT_EQ(out, v);
  }
}

TEST(Varint, TruncatedValueRejected) {
  for (const std::uint64_t v :
       {std::uint64_t{0x80}, std::uint64_t{1} << 35, UINT64_MAX}) {
    std::vector<std::uint8_t> buf;
    put_uvarint(buf, v);
    // Every proper prefix must be rejected, not silently mis-decoded.
    for (std::size_t cut = 0; cut < buf.size(); ++cut) {
      const std::uint8_t* cur = buf.data();
      EXPECT_THROW(get_uvarint(&cur, buf.data() + cut), Error)
          << "value " << v << " cut to " << cut << " bytes";
      cur = buf.data();
      std::uint64_t out = 0;
      EXPECT_FALSE(try_get_uvarint(&cur, buf.data() + cut, &out));
    }
  }
}

TEST(Varint, OverflowRejected) {
  // 10 continuation bytes push the shift past 64 bits.
  std::vector<std::uint8_t> runaway(11, 0x80);
  runaway.push_back(0x00);
  const std::uint8_t* cur = runaway.data();
  EXPECT_THROW(get_uvarint(&cur, runaway.data() + runaway.size()), Error);

  // Exactly 10 bytes, but the top byte carries bits above 2^64.
  std::vector<std::uint8_t> wide(9, 0x80);
  wide.push_back(0x02);
  cur = wide.data();
  EXPECT_THROW(get_uvarint(&cur, wide.data() + wide.size()), Error);
  cur = wide.data();
  std::uint64_t out = 0;
  EXPECT_FALSE(try_get_uvarint(&cur, wide.data() + wide.size(), &out));
}

TEST(Varint, ZigzagRoundTrip) {
  const std::int64_t vs[] = {0,
                             1,
                             -1,
                             63,
                             -64,
                             64,
                             -65,
                             INT32_MAX,
                             INT32_MIN,
                             INT64_MAX,
                             INT64_MIN};
  for (const std::int64_t v : vs) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v);
  }
  // Small magnitudes must map to small codes (that is the whole point).
  EXPECT_EQ(zigzag_encode(0), 0u);
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
  EXPECT_EQ(zigzag_encode(-2), 3u);
}

TEST(Varint, DeltaBlockRoundTrip) {
  std::mt19937 rng(23);
  std::vector<std::uint32_t> values;
  std::uint32_t walk = 5000;
  for (int i = 0; i < 5000; ++i) {
    // Mostly small steps (the adjacency-like case), occasional huge jumps
    // (row restarts), plus the extremes.
    if (rng() % 64 == 0) {
      walk = static_cast<std::uint32_t>(rng());
    } else {
      walk += static_cast<std::uint32_t>(rng() % 17) - 8;
    }
    values.push_back(walk);
  }
  values.front() = 0;
  values.back() = UINT32_MAX;

  // One absolute-first stream, split into two blocks chained through `prev`
  // exactly as the CSR block encoder chains them.
  const std::size_t half = values.size() / 2;
  std::vector<std::uint8_t> buf;
  put_delta_block(buf, values.data(), half, 0, /*absolute_first=*/true);
  put_delta_block(buf, values.data() + half, values.size() - half,
                  static_cast<std::int64_t>(values[half - 1]),
                  /*absolute_first=*/false);

  std::vector<std::uint32_t> decoded(values.size());
  const std::uint8_t* cur = buf.data();
  const std::uint8_t* end = buf.data() + buf.size();
  get_delta_block(&cur, end, decoded.data(), half, 0, true);
  get_delta_block(&cur, end, decoded.data() + half, values.size() - half,
                  static_cast<std::int64_t>(values[half - 1]), false);
  EXPECT_EQ(cur, end);
  EXPECT_EQ(decoded, values);
}

TEST(Varint, DeltaBlockRangeChecked) {
  // A delta that lands below zero...
  std::vector<std::uint8_t> buf;
  put_uvarint(buf, zigzag_encode(-5));
  const std::uint8_t* cur = buf.data();
  std::uint32_t out = 0;
  EXPECT_THROW(
      get_delta_block(&cur, buf.data() + buf.size(), &out, 1, 0, false),
      Error);
  // ...and an absolute value above u32 are both corruption, not wraparound.
  buf.clear();
  put_uvarint(buf, std::uint64_t{1} << 40);
  cur = buf.data();
  EXPECT_THROW(
      get_delta_block(&cur, buf.data() + buf.size(), &out, 1, 0, true),
      Error);
}

// ---- chunk codec ------------------------------------------------------------

/// Clustered destinations in [lo, hi): a random walk with occasional jumps,
/// the shape committed sends actually produce.
std::vector<VertexId> clustered_dsts(std::size_t n, VertexId lo, VertexId hi,
                                     std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<VertexId> dsts;
  dsts.reserve(n);
  VertexId cur = lo + static_cast<VertexId>(rng() % (hi - lo));
  for (std::size_t i = 0; i < n; ++i) {
    if (rng() % 97 == 0) {
      cur = lo + static_cast<VertexId>(rng() % (hi - lo));
    } else {
      const VertexId step = static_cast<VertexId>(rng() % 9);
      cur = std::min<VertexId>(hi - 1, std::max<VertexId>(lo, cur + step - 4));
    }
    dsts.push_back(cur);
  }
  return dsts;
}

template <typename Message>
std::vector<std::byte> to_bytes(const std::vector<Record<Message>>& records) {
  std::vector<std::byte> bytes(records.size() * sizeof(Record<Message>));
  std::memcpy(bytes.data(), records.data(), bytes.size());
  return bytes;
}

TEST(LogCodec, VarintPayloadRoundTripMultiChunk) {
  // > kLogChunkMaxRecords records forces several chunks.
  const std::size_t n = 10'000;
  const auto dsts = clustered_dsts(n, 100, 5000, 31);
  std::mt19937_64 rng(37);
  std::vector<Record<std::uint32_t>> records(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Mostly small payloads (BFS depths, labels — the case varint is for),
    // salted with full-width extremes to keep the round-trip honest.
    std::uint32_t payload = static_cast<std::uint32_t>(rng() % 128);
    if (rng() % 50 == 0) payload = static_cast<std::uint32_t>(rng());
    if (rng() % 997 == 0) payload = UINT32_MAX;
    records[i] = {dsts[i], payload};
  }
  const auto raw = to_bytes(records);

  std::vector<std::uint8_t> chunks;
  multilog::encode_log_records(raw.data(), n, sizeof(Record<std::uint32_t>),
                               /*payload_varint=*/true, chunks);
  // Small integral payloads over clustered destinations must actually
  // compress, not just round-trip.
  EXPECT_LT(chunks.size(), raw.size() / 2);

  std::vector<std::byte> back;
  multilog::decode_chunks_to_records(
      std::as_bytes(std::span<const std::uint8_t>(chunks)),
      sizeof(Record<std::uint32_t>), true, back);
  ASSERT_EQ(back.size(), raw.size());
  EXPECT_EQ(std::memcmp(back.data(), raw.data(), raw.size()), 0);

  // Every chunk header respects the encoder caps.
  const auto idx = multilog::index_log_chunks(
      std::as_bytes(std::span<const std::uint8_t>(chunks)),
      TornPagePolicy::kThrow);
  EXPECT_EQ(idx.n_records(), n);
  EXPECT_GT(idx.chunk_offsets.size(), 1u);
  for (const std::size_t off : idx.chunk_offsets) {
    const auto h = multilog::read_chunk_header(chunks.data() + off);
    EXPECT_LE(h.n_records, multilog::kLogChunkMaxRecords);
    EXPECT_LE(h.body_bytes, std::size_t{0xFFFF});
  }
}

TEST(LogCodec, FixedFloatPayloadBitExact) {
  // Floats take the fixed-width fallback and must round-trip bit-exact,
  // including the bit patterns memcmp-equality would miss with ==.
  std::vector<Record<float>> records;
  const std::uint32_t patterns[] = {
      0x00000000u,  // +0.0
      0x80000000u,  // -0.0
      0x7F800000u,  // +inf
      0xFF800000u,  // -inf
      0x7FC00001u,  // qNaN with payload
      0x00000001u,  // smallest denormal
      0x3F9D70A4u,  // 1.23
  };
  VertexId dst = 10;
  for (const std::uint32_t bits : patterns) {
    float f;
    std::memcpy(&f, &bits, 4);
    records.push_back({dst++, f});
  }
  const auto raw = to_bytes(records);
  std::vector<std::uint8_t> chunks;
  multilog::encode_log_records(raw.data(), records.size(),
                               sizeof(Record<float>),
                               /*payload_varint=*/false, chunks);
  std::vector<std::byte> back;
  multilog::decode_chunks_to_records(
      std::as_bytes(std::span<const std::uint8_t>(chunks)),
      sizeof(Record<float>), false, back);
  ASSERT_EQ(back.size(), raw.size());
  EXPECT_EQ(std::memcmp(back.data(), raw.data(), raw.size()), 0);
}

TEST(LogCodec, PaddedPayloadRoundTripsByteIdentical) {
  // Record<std::uint64_t> has 4 padding bytes between dst and payload, so
  // kPayloadVarint must reject it and the fixed path must round-trip the
  // full record image byte-identically, padding included.
  static_assert(!multilog::kPayloadVarint<std::uint64_t>);
  constexpr std::size_t kRec = sizeof(Record<std::uint64_t>);
  static_assert(kRec == 16);
  const std::size_t n = 500;
  std::vector<std::byte> raw(n * kRec);
  std::mt19937_64 rng(41);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    raw[i] = static_cast<std::byte>(rng());
  }
  // Destinations must be genuine u32s (any value works — the codec delta
  // stream covers the full range), which the random fill already provides.
  std::vector<std::uint8_t> chunks;
  multilog::encode_log_records(raw.data(), n, kRec, /*payload_varint=*/false,
                               chunks);
  std::vector<std::byte> back;
  multilog::decode_chunks_to_records(
      std::as_bytes(std::span<const std::uint8_t>(chunks)), kRec, false, back);
  ASSERT_EQ(back.size(), raw.size());
  EXPECT_EQ(std::memcmp(back.data(), raw.data(), raw.size()), 0);
}

TEST(LogCodec, EmptyAndConcatenatedStreams) {
  // Empty stream: zero chunks, zero records, no error.
  const auto empty = multilog::index_log_chunks({}, TornPagePolicy::kThrow);
  EXPECT_EQ(empty.n_records(), 0u);
  EXPECT_EQ(empty.valid_bytes, 0u);

  // Concatenating two valid streams is a valid stream whose record sequence
  // is the concatenation (the engine fuses interval logs this way).
  std::vector<Record<std::uint32_t>> a(300), b(77);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = {static_cast<VertexId>(i % 50), static_cast<std::uint32_t>(i)};
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = {static_cast<VertexId>(1000 + i), static_cast<std::uint32_t>(~i)};
  }
  const auto raw_a = to_bytes(a);
  const auto raw_b = to_bytes(b);
  std::vector<std::uint8_t> stream;
  multilog::encode_log_records(raw_a.data(), a.size(),
                               sizeof(Record<std::uint32_t>), true, stream);
  multilog::encode_log_records(raw_b.data(), b.size(),
                               sizeof(Record<std::uint32_t>), true, stream);
  std::vector<std::byte> back;
  multilog::decode_chunks_to_records(
      std::as_bytes(std::span<const std::uint8_t>(stream)),
      sizeof(Record<std::uint32_t>), true, back);
  ASSERT_EQ(back.size(), raw_a.size() + raw_b.size());
  EXPECT_EQ(std::memcmp(back.data(), raw_a.data(), raw_a.size()), 0);
  EXPECT_EQ(
      std::memcmp(back.data() + raw_a.size(), raw_b.data(), raw_b.size()), 0);
}

// ---- torn-page funnel -------------------------------------------------------

std::vector<std::uint8_t> two_chunk_stream() {
  std::vector<Record<std::uint32_t>> recs(multilog::kLogChunkMaxRecords + 50);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    recs[i] = {static_cast<VertexId>(i), 7};
  }
  const auto raw = to_bytes(recs);
  std::vector<std::uint8_t> stream;
  multilog::encode_log_records(raw.data(), recs.size(),
                               sizeof(Record<std::uint32_t>), true, stream);
  return stream;
}

TEST(TornFunnelV2, MidChunkTearTruncatesOrThrows) {
  const auto stream = two_chunk_stream();
  const auto whole = multilog::index_log_chunks(
      std::as_bytes(std::span<const std::uint8_t>(stream)),
      TornPagePolicy::kThrow);
  ASSERT_EQ(whole.chunk_offsets.size(), 2u);
  const std::size_t last = whole.chunk_offsets.back();

  // Cut inside the final chunk's body: a torn page, not corruption.
  const std::size_t cut = stream.size() - 3;
  const auto torn_span = std::as_bytes(
      std::span<const std::uint8_t>(stream.data(), cut));
  EXPECT_THROW(multilog::index_log_chunks(torn_span, TornPagePolicy::kThrow),
               Error);
  const auto idx =
      multilog::index_log_chunks(torn_span, TornPagePolicy::kTruncate);
  EXPECT_EQ(idx.chunk_offsets.size(), 1u);
  EXPECT_EQ(idx.n_records(), multilog::kLogChunkMaxRecords);
  EXPECT_EQ(idx.valid_bytes, last);
  EXPECT_EQ(idx.dropped_bytes, cut - last);
  // The surviving prefix decodes cleanly.
  std::vector<std::byte> back;
  multilog::decode_chunks_to_records(
      torn_span.subspan(0, idx.valid_bytes), sizeof(Record<std::uint32_t>),
      true, back);
  EXPECT_EQ(back.size(),
            multilog::kLogChunkMaxRecords * sizeof(Record<std::uint32_t>));
}

TEST(TornFunnelV2, MidHeaderTearTruncatesOrThrows) {
  const auto stream = two_chunk_stream();
  const auto whole = multilog::index_log_chunks(
      std::as_bytes(std::span<const std::uint8_t>(stream)),
      TornPagePolicy::kThrow);
  const std::size_t last = whole.chunk_offsets.back();
  // Keep only 3 of the final chunk's 6 header bytes.
  const std::size_t cut = last + 3;
  const auto torn_span =
      std::as_bytes(std::span<const std::uint8_t>(stream.data(), cut));
  EXPECT_THROW(multilog::index_log_chunks(torn_span, TornPagePolicy::kThrow),
               Error);
  const auto idx =
      multilog::index_log_chunks(torn_span, TornPagePolicy::kTruncate);
  EXPECT_EQ(idx.valid_bytes, last);
  EXPECT_EQ(idx.dropped_bytes, std::size_t{3});
}

TEST(TornFunnelV2, CorruptHeaderThrowsUnderBothPolicies) {
  // Headers that cannot be valid at any stream length are corruption, never
  // truncation: zero records, dst stream shorter than one byte per record,
  // dst stream longer than the body.
  const struct {
    std::uint16_t n, dst, body;
  } bad[] = {{0, 0, 0}, {5, 3, 100}, {1, 12, 4}};
  for (const auto& h : bad) {
    std::vector<std::uint8_t> stream(multilog::kLogChunkHeaderBytes + 128, 0);
    std::memcpy(stream.data() + 0, &h.n, 2);
    std::memcpy(stream.data() + 2, &h.dst, 2);
    std::memcpy(stream.data() + 4, &h.body, 2);
    const auto span = std::as_bytes(std::span<const std::uint8_t>(stream));
    EXPECT_THROW(multilog::index_log_chunks(span, TornPagePolicy::kThrow),
                 Error);
    EXPECT_THROW(multilog::index_log_chunks(span, TornPagePolicy::kTruncate),
                 Error);
  }
}

// ---- fused scatter vs v1 grouping ------------------------------------------

/// Group-local normal form: within each destination group, order of equal-dst
/// records is unspecified (parallel sort / unit decomposition), so sort each
/// group's payloads before comparing.
template <typename Message>
std::vector<Record<Message>> normalized(multilog::GroupedLog<Message> g) {
  for (std::size_t i = 0; i + 1 < g.offsets.size(); ++i) {
    std::sort(g.records.begin() + g.offsets[i],
              g.records.begin() + g.offsets[i + 1],
              [](const Record<Message>& a, const Record<Message>& b) {
                return a.payload < b.payload;
              });
  }
  return std::move(g.records);
}

TEST(SortGroupV2, MatchesV1OnBothPaths) {
  const VertexId lo = 200, hi = 1800;
  const std::size_t n = 9'000;
  const auto dsts = clustered_dsts(n, lo, hi, 53);
  std::mt19937_64 rng(59);
  std::vector<Record<std::uint32_t>> recs(n);
  for (std::size_t i = 0; i < n; ++i) {
    recs[i] = {dsts[i], static_cast<std::uint32_t>(rng())};
  }
  const auto v1_bytes = to_bytes(recs);
  std::vector<std::uint8_t> chunks;
  multilog::encode_log_records(v1_bytes.data(), n,
                               sizeof(Record<std::uint32_t>), true, chunks);
  const auto v2_bytes = std::as_bytes(std::span<const std::uint8_t>(chunks));

  for (const auto path :
       {SortGroupPath::kCountingScatter, SortGroupPath::kComparisonSort}) {
    auto a = multilog::sort_and_group<std::uint32_t>(v1_bytes, lo, hi, path);
    auto b = multilog::sort_and_group_v2<std::uint32_t>(v2_bytes, lo, hi, path);
    ASSERT_EQ(a.decoded, n);
    ASSERT_EQ(b.decoded, n);
    ASSERT_EQ(a.offsets, b.offsets) << "path " << static_cast<int>(path);
    const auto na = normalized(std::move(a));
    const auto nb = normalized(std::move(b));
    ASSERT_EQ(na.size(), nb.size());
    for (std::size_t i = 0; i < na.size(); ++i) {
      ASSERT_EQ(na[i].dst, nb[i].dst) << "record " << i;
      ASSERT_EQ(na[i].payload, nb[i].payload) << "record " << i;
    }
  }
}

TEST(SortGroupV2, MatchesV1WithCombine) {
  const VertexId lo = 0, hi = 700;
  const std::size_t n = 6'000;
  const auto dsts = clustered_dsts(n, lo, hi, 61);
  std::vector<Record<std::uint32_t>> recs(n);
  for (std::size_t i = 0; i < n; ++i) {
    recs[i] = {dsts[i], static_cast<std::uint32_t>(i % 251)};
  }
  const auto v1_bytes = to_bytes(recs);
  std::vector<std::uint8_t> chunks;
  multilog::encode_log_records(v1_bytes.data(), n,
                               sizeof(Record<std::uint32_t>), true, chunks);
  const auto v2_bytes = std::as_bytes(std::span<const std::uint8_t>(chunks));
  const auto sum = [](std::uint32_t a, std::uint32_t b) { return a + b; };

  for (const auto path :
       {SortGroupPath::kCountingScatter, SortGroupPath::kComparisonSort}) {
    const auto a =
        multilog::sort_and_group<std::uint32_t>(v1_bytes, lo, hi, path, sum);
    const auto b =
        multilog::sort_and_group_v2<std::uint32_t>(v2_bytes, lo, hi, path, sum);
    // Combine is associative+commutative on u32 (wrapping sum), so both
    // formats must collapse to exactly one identical record per live dst.
    ASSERT_EQ(a.records.size(), b.records.size())
        << "path " << static_cast<int>(path);
    ASSERT_EQ(a.offsets, b.offsets);
    for (std::size_t i = 0; i < a.records.size(); ++i) {
      ASSERT_EQ(a.records[i].dst, b.records[i].dst) << "record " << i;
      ASSERT_EQ(a.records[i].payload, b.records[i].payload) << "record " << i;
    }
  }
}

// ---- stored CSR v1 vs v2 ----------------------------------------------------

struct Env {
  ssd::TempDir dir;
  ssd::Storage storage;
  Env() : storage(dir.path(), [] {
            ssd::DeviceConfig d;
            d.page_size = 4_KiB;
            return d;
          }()) {}
};

graph::CsrGraph sample_graph(unsigned scale = 9, std::uint64_t seed = 5) {
  graph::RmatParams p;
  p.scale = scale;
  p.edge_factor = 6;
  p.seed = seed;
  return graph::CsrGraph::from_edge_list(graph::generate_rmat(p));
}

void expect_adjacency_equals(graph::StoredCsrGraph& stored,
                             const graph::CsrGraph& csr) {
  ASSERT_EQ(stored.num_edges(), csr.num_edges());
  const auto& iv = stored.intervals();
  for (IntervalId i = 0; i < iv.count(); ++i) {
    const VertexId width = iv.width(i);
    std::vector<EdgeIndex> rowptr(width + 1);
    stored.read_local_row_ptrs(i, 0, width + 1, rowptr);
    std::vector<VertexId> colidx(rowptr.back());
    stored.read_adjacency(i, 0, rowptr.back(), colidx);
    for (VertexId lv = 0; lv < width; ++lv) {
      const auto expected = csr.neighbors(iv.begin(i) + lv);
      ASSERT_EQ(rowptr[lv + 1] - rowptr[lv], expected.size());
      for (std::size_t k = 0; k < expected.size(); ++k) {
        ASSERT_EQ(colidx[rowptr[lv] + k], expected[k])
            << "vertex " << iv.begin(i) + lv << " edge " << k;
      }
    }
  }
}

std::uint64_t stored_adjacency_bytes(const graph::StoredCsrGraph& g) {
  std::uint64_t total = 0;
  for (IntervalId i = 0; i < g.intervals().count(); ++i) {
    total += g.adjacency_stored_bytes(i);
  }
  return total;
}

TEST(StoredCsrFormat, V2MatchesCsrCompressesAndReopens) {
  Env env;
  const auto csr = sample_graph();
  const auto iv = graph::VertexIntervals::uniform(csr.num_vertices(), 64);
  graph::StoredCsrGraph v1(env.storage, "v1", csr, iv,
                           {.format = OnDiskFormat::kV1});
  graph::StoredCsrGraph v2(env.storage, "v2", csr, iv,
                           {.format = OnDiskFormat::kV2});
  expect_adjacency_equals(v2, csr);
  // Sorted R-MAT adjacency must compress well below the fixed 4 B/edge.
  EXPECT_EQ(stored_adjacency_bytes(v1), csr.num_edges() * sizeof(VertexId));
  EXPECT_LT(stored_adjacency_bytes(v2), stored_adjacency_bytes(v1) / 2);

  // Both format tags persist through csr/meta and open() restores full
  // read access without the in-memory CsrGraph.
  const auto r1 = graph::StoredCsrGraph::open(env.storage, "v1");
  const auto r2 = graph::StoredCsrGraph::open(env.storage, "v2");
  EXPECT_EQ(r1->format(), OnDiskFormat::kV1);
  EXPECT_EQ(r2->format(), OnDiskFormat::kV2);
  expect_adjacency_equals(*r1, csr);
  expect_adjacency_equals(*r2, csr);
}

// A vectored v2 read fetches each compressed block once, cached or not:
// ranges that overlap, abut, are empty or share a block cost exactly what
// one read of the blocks they cover costs, and decode to what v1 stores.
TEST(StoredCsrFormat, V2VectoredReadFetchesEachBlockOnce) {
  Env env;
  const auto csr = sample_graph(11);
  const auto iv =
      graph::VertexIntervals::uniform(csr.num_vertices(), csr.num_vertices());
  graph::StoredCsrGraph v1(env.storage, "v1", csr, iv,
                           {.format = OnDiskFormat::kV1});
  graph::StoredCsrGraph v2(env.storage, "v2", csr, iv,
                           {.format = OnDiskFormat::kV2});
  ASSERT_GT(v2.interval_edge_count(0), 4400u);
  // Blocks of kCsrBlockEdges = 2048 edges; together the ranges cover blocks
  // 0-2 without a gap, so they cost one read of edges [100, 4400).
  const std::vector<std::pair<EdgeIndex, EdgeIndex>> spans = {
      {4200, 4400}, {100, 300},   {200, 500},   {500, 900},  {900, 1000},
      {1200, 1200}, {1900, 2300}, {2100, 2200}, {3000, 4200}};
  const auto read_spans = [&](const graph::StoredCsrGraph& g) {
    std::vector<std::vector<VertexId>> out(spans.size());
    std::vector<graph::StoredCsrGraph::ElemRange> ranges;
    for (std::size_t k = 0; k < spans.size(); ++k) {
      out[k].resize(spans[k].second - spans[k].first);
      ranges.push_back({spans[k].first, spans[k].second, out[k].data()});
    }
    g.read_adjacency_multi(0, ranges);
    return out;
  };
  const auto expected = read_spans(v1);
  for (const bool cached : {false, true}) {
    SCOPED_TRACE(cached ? "cached" : "uncached");
    v2.set_adjacency_cache(cached ? 1_MiB : 0);
    auto before = env.storage.stats().snapshot();
    std::vector<VertexId> whole(4400 - 100);
    v2.read_adjacency(0, 100, 4400, whole);
    const auto one_read = env.storage.stats().snapshot() - before;

    v2.set_adjacency_cache(cached ? 1_MiB : 0);  // a cold cache again
    before = env.storage.stats().snapshot();
    EXPECT_EQ(read_spans(v2), expected);
    const auto multi = env.storage.stats().snapshot() - before;
    EXPECT_EQ(multi[ssd::IoCategory::kCsrColIdx].bytes_read,
              one_read[ssd::IoCategory::kCsrColIdx].bytes_read);
    EXPECT_EQ(multi[ssd::IoCategory::kCsrColIdx].pages_read,
              one_read[ssd::IoCategory::kCsrColIdx].pages_read);
    EXPECT_EQ(multi.cache_hit_pages, 0u);
  }
}

TEST(StoredCsrFormat, WeightsRoundTripUnderV2) {
  Env env;
  graph::EdgeList list;
  list.set_num_vertices(3);
  list.add(0, 1, 1.5f);
  list.add(0, 2, 2.5f);
  list.add(1, 2, 3.5f);
  const auto csr = graph::CsrGraph::from_edge_list(list);
  graph::StoredCsrGraph stored(
      env.storage, "g", csr, graph::VertexIntervals::uniform(3, 2),
      {.with_weights = true, .format = OnDiskFormat::kV2});
  std::vector<float> w(2);
  stored.read_values(0, 0, 2, w);
  EXPECT_FLOAT_EQ(w[0], 1.5f);
  EXPECT_FLOAT_EQ(w[1], 2.5f);
}

// ---- engine v1-vs-v2 matrix -------------------------------------------------

template <core::VertexApp App>
std::vector<typename App::Value> run_fmt(const graph::CsrGraph& csr, App app,
                                         OnDiskFormat format, bool pipeline,
                                         Superstep max_steps) {
  Env env;
  auto opts = testing_options();
  opts.max_supersteps = max_steps;
  opts.on_disk_format = format;
  opts.io_threads = pipeline ? 4 : 0;
  graph::StoredCsrGraph stored(env.storage, "g", csr,
                               core::partition_for_app<App>(csr, opts),
                               {.with_weights = App::kNeedsWeights,
                                .format = format});
  core::MultiLogVCEngine<App> engine(stored, app, opts);
  engine.run();
  return engine.values();
}

// The format is a pure storage change: for every app (varint payload, fixed
// float payload) x scheduling (serial / pipelined), v1 and v2 must agree.
// Integer-valued apps compare bit-exact; PageRank's float sums compare
// within rounding tolerance.
TEST(EngineFormatMatrix, ValuesMatchAcrossFormats) {
  ScopedEnv guard(kFormatVars);
  const auto csr = sample_graph(9, 11);

  const auto bfs_expected = reference::bfs_distances(csr, 3);
  for (const bool pipeline : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "pipeline=" << pipeline);
    const auto bfs1 = run_fmt(csr, apps::Bfs{.source = 3}, OnDiskFormat::kV1,
                              pipeline, 50);
    const auto bfs2 = run_fmt(csr, apps::Bfs{.source = 3}, OnDiskFormat::kV2,
                              pipeline, 50);
    EXPECT_EQ(bfs1, bfs2);
    for (VertexId v = 0; v < csr.num_vertices(); ++v) {
      ASSERT_EQ(bfs2[v], bfs_expected[v]) << "vertex " << v;
    }

    const auto wcc1 = run_fmt(csr, apps::Wcc{}, OnDiskFormat::kV1,
                              pipeline, 50);
    const auto wcc2 = run_fmt(csr, apps::Wcc{}, OnDiskFormat::kV2,
                              pipeline, 50);
    EXPECT_EQ(wcc1, wcc2);

    apps::PageRank pr;
    pr.threshold = 0.1f;
    const auto pr1 =
        run_fmt(csr, pr, OnDiskFormat::kV1, pipeline, 15);
    const auto pr2 =
        run_fmt(csr, pr, OnDiskFormat::kV2, pipeline, 15);
    ASSERT_EQ(pr1.size(), pr2.size());
    for (VertexId v = 0; v < csr.num_vertices(); ++v) {
      ASSERT_NEAR(pr1[v], pr2[v], 1e-3) << "vertex " << v;
    }
  }
}

// ---- checkpoint across formats ----------------------------------------------

graph::CsrGraph ckpt_graph(std::uint64_t seed = 71) {
  graph::RmatParams p;
  p.scale = 9;
  p.edge_factor = 5;
  p.seed = seed;
  return graph::CsrGraph::from_edge_list(graph::generate_rmat(p));
}

core::EngineOptions fmt_opts(OnDiskFormat format, Superstep max_steps = 15) {
  auto o = testing_options();
  o.max_supersteps = max_steps;
  o.on_disk_format = format;
  return o;
}

/// Checkpoint after superstep 0 of CDLP (logs at their fattest) in one
/// format, restore + resume in the other over the same directory; the final
/// labels must match an uninterrupted run. This is the transcode path for
/// real interval logs, both directions.
void check_cross_format_resume(OnDiskFormat save_fmt, OnDiskFormat load_fmt) {
  ScopedEnv guard(kFormatVars);
  const auto csr = ckpt_graph();
  const auto expected = reference::cdlp_labels(csr, 15);
  ssd::TempDir dir;
  ssd::DeviceConfig device;
  device.page_size = 4_KiB;

  {
    ssd::Storage storage(dir.path(), device);
    const auto opts = fmt_opts(save_fmt);
    graph::StoredCsrGraph stored(
        storage, "g", csr, core::partition_for_app<apps::Cdlp>(csr, opts),
        {.format = save_fmt});
    core::MultiLogVCEngine<apps::Cdlp> engine(stored, apps::Cdlp{}, opts);
    int steps = 0;
    engine.run_with_callback(
        [&](const core::SuperstepStats&) { return ++steps < 1; });
    engine.save_checkpoint("xfmt");
  }

  ssd::Storage reopened(dir.path(), device);
  const auto opts = fmt_opts(load_fmt);
  graph::StoredCsrGraph stored(
      reopened, "g", csr, core::partition_for_app<apps::Cdlp>(csr, opts),
      {.format = load_fmt});
  core::MultiLogVCEngine<apps::Cdlp> engine(stored, apps::Cdlp{}, opts);
  engine.load_checkpoint("xfmt");
  const auto stats = engine.run();
  // The first resumed superstep must consume the transcoded pending log.
  ASSERT_GE(stats.supersteps.size(), 1u);
  EXPECT_GT(stats.supersteps.front().messages_consumed, 0u);
  const auto values = engine.values();
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    ASSERT_EQ(values[v], expected[v]) << "vertex " << v;
  }
}

TEST(CheckpointFormat, V1ImageRestoresIntoV2Store) {
  check_cross_format_resume(OnDiskFormat::kV1, OnDiskFormat::kV2);
}

TEST(CheckpointFormat, V2ImageRestoresIntoV1Store) {
  check_cross_format_resume(OnDiskFormat::kV2, OnDiskFormat::kV1);
}

TEST(CheckpointFormat, LegacyVersion2ImageLoads) {
  // Pre-format-v2 checkpoints were version 2: no log-format byte, logs in
  // v1 layout. Synthesize one from a version-3 v1-format image by stripping
  // the format byte and re-stamping the header, then restore it into a v2
  // store — exercising both the legacy acceptance and the v1 -> v2
  // transcode in one load.
  ScopedEnv guard(kFormatVars);
  const auto csr = ckpt_graph(72);
  const auto expected = reference::cdlp_labels(csr, 15);
  ssd::TempDir dir;
  ssd::DeviceConfig device;
  device.page_size = 4_KiB;

  std::vector<std::uint8_t> image;
  {
    ssd::Storage storage(dir.path(), device);
    const auto opts = fmt_opts(OnDiskFormat::kV1);
    graph::StoredCsrGraph stored(
        storage, "g", csr, core::partition_for_app<apps::Cdlp>(csr, opts),
        {.format = OnDiskFormat::kV1});
    core::MultiLogVCEngine<apps::Cdlp> engine(stored, apps::Cdlp{}, opts);
    int steps = 0;
    engine.run_with_callback(
        [&](const core::SuperstepStats&) { return ++steps < 1; });
    engine.save_checkpoint("v3");
    ssd::Blob& blob = storage.open_blob("mlvc/ckpt_v3");
    image.resize(blob.size());
    blob.read(0, image.data(), image.size());
  }

  // Header: [u32 magic][u32 version][u64 payload_bytes][u32 crc]. The
  // version-3 payload is [u32 next_superstep][u8 log_format][...]; drop the
  // format byte at payload offset 4 and restamp version/length/CRC.
  ASSERT_GT(image.size(), std::size_t{25});
  std::uint64_t payload_bytes = 0;
  std::memcpy(&payload_bytes, image.data() + 8, 8);
  ASSERT_EQ(image.size(), 20 + payload_bytes);
  std::vector<std::uint8_t> legacy(image.begin(), image.end());
  legacy.erase(legacy.begin() + 24);  // the log-format byte
  const std::uint32_t version2 = 2;
  const std::uint64_t new_payload = payload_bytes - 1;
  std::memcpy(legacy.data() + 4, &version2, 4);
  std::memcpy(legacy.data() + 8, &new_payload, 8);
  const std::uint32_t crc = crc32(legacy.data() + 20, new_payload);
  std::memcpy(legacy.data() + 16, &crc, 4);

  ssd::Storage reopened(dir.path(), device);
  ssd::Blob& blob =
      reopened.create_blob("mlvc/ckpt_legacy", ssd::IoCategory::kMisc);
  blob.append(legacy.data(), legacy.size());

  const auto opts = fmt_opts(OnDiskFormat::kV2);
  graph::StoredCsrGraph stored(
      reopened, "g", csr, core::partition_for_app<apps::Cdlp>(csr, opts),
      {.format = OnDiskFormat::kV2});
  core::MultiLogVCEngine<apps::Cdlp> engine(stored, apps::Cdlp{}, opts);
  engine.load_checkpoint("legacy");
  engine.run();
  const auto values = engine.values();
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    ASSERT_EQ(values[v], expected[v]) << "vertex " << v;
  }
}

}  // namespace
}  // namespace mlvc
