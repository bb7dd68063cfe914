// Property tests for the §V.B fused counting-scatter grouping path.
//
// Unit level: on random logs the counting scatter must produce the identical
// per-destination multiset, group structure, and (with a combine operator)
// identical combined records as the decode + comparison-sort path, across
// empty logs, single-destination logs, duplicate-destination floods, and
// sparse/wide ranges. Corrupt inputs (torn pages, out-of-range destinations)
// must surface as typed errors, not UB.
//
// Engine level: random R-MAT graphs × seeds × apps, with and without
// combine, on both the serial and pipelined engines — final vertex values
// must not depend on the grouping path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <tuple>

#include "apps/bfs.hpp"
#include "apps/cdlp.hpp"
#include "apps/pagerank.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "multilog/record.hpp"
#include "multilog/sort_group.hpp"
#include "ssd/storage.hpp"
#include "tests/test_util.hpp"

namespace mlvc {
namespace {

using TestRecord = multilog::Record<std::uint32_t>;

constexpr OnDiskFormat kFormats[] = {OnDiskFormat::kV1, OnDiskFormat::kV2};

/// A log of `records` as `format` stores it: raw records (v1) or
/// delta+varint chunks (v2).
template <typename Message>
std::vector<std::byte> encode(
    const std::vector<multilog::Record<Message>>& records,
    OnDiskFormat format) {
  constexpr std::size_t kRec = sizeof(multilog::Record<Message>);
  std::vector<std::byte> bytes(records.size() * kRec);
  if (!bytes.empty()) std::memcpy(bytes.data(), records.data(), bytes.size());
  if (format == OnDiskFormat::kV1) return bytes;
  std::vector<std::uint8_t> chunks;
  multilog::encode_log_records(bytes.data(), records.size(), kRec,
                               multilog::kPayloadVarint<Message>, chunks);
  const auto* p = reinterpret_cast<const std::byte*>(chunks.data());
  return {p, p + chunks.size()};
}

std::vector<TestRecord> random_log(std::uint64_t seed, std::size_t n,
                                   VertexId range_begin, VertexId width) {
  SplitMix64 rng(seed);
  std::vector<TestRecord> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    records.push_back(
        {range_begin + static_cast<VertexId>(rng.next_below(width)),
         static_cast<std::uint32_t>(rng.next_below(1000))});
  }
  return records;
}

using DstMultisets = std::map<VertexId, std::multiset<std::uint32_t>>;

DstMultisets by_destination(const multilog::GroupedLog<std::uint32_t>& g) {
  DstMultisets out;
  for (const auto& r : g.records) out[r.dst].insert(r.payload);
  return out;
}

/// The two paths must agree on everything except intra-group record order
/// (unspecified by contract: inboxes are multisets).
void expect_equivalent(const std::vector<TestRecord>& log, OnDiskFormat format,
                       VertexId begin, VertexId end) {
  SCOPED_TRACE(to_string(format));
  const auto bytes = encode(log, format);
  const auto scatter = multilog::sort_and_group<std::uint32_t>(
      bytes, format, begin, end, SortGroupPath::kCountingScatter);
  const auto cmp = multilog::sort_and_group<std::uint32_t>(
      bytes, format, begin, end, SortGroupPath::kComparisonSort);
  ASSERT_EQ(scatter.path, SortGroupPath::kCountingScatter);
  ASSERT_EQ(cmp.path, SortGroupPath::kComparisonSort);
  EXPECT_EQ(scatter.decoded, log.size());
  EXPECT_EQ(cmp.decoded, log.size());
  EXPECT_EQ(scatter.offsets, cmp.offsets);
  ASSERT_EQ(scatter.records.size(), cmp.records.size());
  // Group heads must name the same destinations in the same order.
  for (std::size_t gi = 0; gi + 1 < scatter.offsets.size(); ++gi) {
    EXPECT_EQ(scatter.records[scatter.offsets[gi]].dst,
              cmp.records[cmp.offsets[gi]].dst);
  }
  EXPECT_EQ(by_destination(scatter), by_destination(cmp));

  // With a combine operator both paths collapse to one record per
  // destination; u32 sums are exact, so the results match bit-for-bit.
  const auto sum = [](std::uint32_t a, std::uint32_t b) { return a + b; };
  const auto scatter_c = multilog::sort_and_group<std::uint32_t>(
      bytes, format, begin, end, SortGroupPath::kCountingScatter, sum);
  const auto cmp_c = multilog::sort_and_group<std::uint32_t>(
      bytes, format, begin, end, SortGroupPath::kComparisonSort, sum);
  EXPECT_EQ(scatter_c.offsets, cmp_c.offsets);
  ASSERT_EQ(scatter_c.records.size(), cmp_c.records.size());
  for (std::size_t i = 0; i < scatter_c.records.size(); ++i) {
    EXPECT_EQ(scatter_c.records[i].dst, cmp_c.records[i].dst);
    EXPECT_EQ(scatter_c.records[i].payload, cmp_c.records[i].payload);
  }
  EXPECT_EQ(scatter_c.decoded, log.size());
  EXPECT_EQ(cmp_c.decoded, log.size());
}

class SortGroupScatterProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SortGroupScatterProperty, MatchesComparisonPath) {
  SplitMix64 seeds(GetParam());
  for (int round = 0; round < 8; ++round) {
    // The last two rounds span three whole 32 K-record units plus a few
    // records, so the scatters cross unit boundaries.
    const std::size_t n =
        round < 6 ? 1 + seeds.next_below(20000) : 3 * 32'768 + 7;
    const VertexId width = 1 + static_cast<VertexId>(seeds.next_below(4096));
    const VertexId begin = static_cast<VertexId>(seeds.next_below(1u << 20));
    const auto log = random_log(seeds.next(), n, begin, width);
    for (const auto format : kFormats) {
      expect_equivalent(log, format, begin, begin + width);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SortGroupScatterProperty,
                         ::testing::Values(1, 2, 7, 19, 42));

TEST(SortGroupScatter, EmptyLog) {
  for (const auto format : kFormats) expect_equivalent({}, format, 100, 200);
  const auto g = multilog::sort_and_group<std::uint32_t>(
      {}, OnDiskFormat::kV1, 100, 200, SortGroupPath::kCountingScatter);
  EXPECT_TRUE(g.records.empty());
  EXPECT_EQ(g.offsets, std::vector<std::size_t>{0});
  EXPECT_EQ(g.decoded, 0u);
}

TEST(SortGroupScatter, SingleDestinationLog) {
  std::vector<TestRecord> log;
  for (std::uint32_t i = 0; i < 5000; ++i) log.push_back({77, i});
  expect_equivalent(log, OnDiskFormat::kV1, 50, 150);
  // Scatter keeps append order within the group (stable counting sort).
  const auto g = multilog::sort_and_group<std::uint32_t>(
      encode(log, OnDiskFormat::kV1), OnDiskFormat::kV1, 50, 150,
      SortGroupPath::kCountingScatter);
  ASSERT_EQ(g.records.size(), 5000u);
  EXPECT_EQ(g.offsets, (std::vector<std::size_t>{0, 5000}));
  for (std::uint32_t i = 0; i < 5000; ++i) {
    EXPECT_EQ(g.records[i].payload, i);
  }
}

TEST(SortGroupScatter, DuplicateDestinationFlood) {
  SplitMix64 rng(5);
  std::vector<TestRecord> log;
  for (int i = 0; i < 60000; ++i) {
    log.push_back({static_cast<VertexId>(rng.next_below(3)),
                   static_cast<std::uint32_t>(i)});
  }
  for (const auto format : kFormats) expect_equivalent(log, format, 0, 64);
}

TEST(SortGroupScatter, WidthOne) {
  std::vector<TestRecord> log;
  for (std::uint32_t i = 0; i < 100; ++i) log.push_back({9, i});
  for (const auto format : kFormats) expect_equivalent(log, format, 9, 10);
}

TEST(SortGroupScatter, AutoPicksScatterForDenseLogs) {
  const auto log = random_log(1, 10000, 0, 256);
  const auto g = multilog::sort_and_group<std::uint32_t>(
      encode(log, OnDiskFormat::kV1), OnDiskFormat::kV1, 0, 256,
      SortGroupPath::kAuto);
  EXPECT_EQ(g.path, SortGroupPath::kCountingScatter);
}

TEST(SortGroupScatter, AutoFallsBackForNearlyEmptyWideLogs) {
  // A tail-superstep log: a handful of records over a huge vertex range.
  const auto log = random_log(2, 8, 0, 1u << 20);
  const auto g = multilog::sort_and_group<std::uint32_t>(
      encode(log, OnDiskFormat::kV1), OnDiskFormat::kV1, 0, 1u << 20,
      SortGroupPath::kAuto);
  EXPECT_EQ(g.path, SortGroupPath::kComparisonSort);
  expect_equivalent(log, OnDiskFormat::kV1, 0, 1u << 20);
}

/// A float sum folds in unit order, in rounds of at most one row per
/// thread: ten units (more than any tested team) fold in several rounds,
/// and the combined records must keep the same bits at every team size.
TEST(SortGroupScatter, FloatCombineBitIdenticalAcrossThreadCounts) {
  using FloatRecord = multilog::Record<float>;
  SplitMix64 rng(31);
  std::vector<FloatRecord> log(9 * 32'768 + 7);
  for (auto& r : log) {
    // Magnitudes over 2^0..2^19, so the sums depend on their fold order.
    r = {static_cast<VertexId>(rng.next_below(512)),
         std::ldexp(static_cast<float>(rng.next_below(1u << 24)),
                    static_cast<int>(rng.next_below(20)) - 24)};
  }
  const auto sum = [](float a, float b) { return a + b; };
  for (const auto format : kFormats) {
    SCOPED_TRACE(to_string(format));
    const auto bytes = encode(log, format);
    const auto group = [&](unsigned threads) {
      ThreadCount team(threads);
      return multilog::sort_and_group<float>(
          bytes, format, 0, 512, SortGroupPath::kCountingScatter, sum);
    };
    const auto one = group(1);
    ASSERT_EQ(one.records.size(), 512u);
    for (const unsigned threads : {2u, 4u}) {
      const auto many = group(threads);
      ASSERT_EQ(many.records.size(), one.records.size());
      EXPECT_EQ(std::memcmp(many.records.data(), one.records.data(),
                            one.records.size() * sizeof(FloatRecord)),
                0)
          << threads << " threads";
    }
  }
}

// ---- corruption surfaces as typed errors, not UB ---------------------------

TEST(SortGroupScatter, TornLogPageThrowsOnEveryPath) {
  auto bytes = encode(random_log(3, 1000, 0, 64), OnDiskFormat::kV1);
  bytes.resize(bytes.size() - 3);  // torn mid-record
  for (auto path : {SortGroupPath::kAuto, SortGroupPath::kCountingScatter,
                    SortGroupPath::kComparisonSort}) {
    EXPECT_THROW((multilog::sort_and_group<std::uint32_t>(
                     bytes, OnDiskFormat::kV1, 0, 64, path)),
                 Error)
        << to_string(path);
    EXPECT_THROW((multilog::sort_and_group<std::uint32_t>(
                     bytes, OnDiskFormat::kV1, 0, 64, path,
                     [](std::uint32_t a, std::uint32_t b) { return a + b; })),
                 Error)
        << to_string(path);
  }
}

TEST(SortGroupScatter, OutOfRangeDestinationThrows) {
  auto log = random_log(4, 1000, 100, 64);
  log[500].dst = 9999;  // corrupt destination header
  const auto bytes = encode(log, OnDiskFormat::kV1);
  EXPECT_THROW((multilog::sort_and_group<std::uint32_t>(
                   bytes, OnDiskFormat::kV1, 100, 164,
                   SortGroupPath::kCountingScatter)),
               Error);
  EXPECT_THROW((multilog::sort_and_group<std::uint32_t>(
                   bytes, OnDiskFormat::kV1, 100, 164,
                   SortGroupPath::kCountingScatter,
                   [](std::uint32_t a, std::uint32_t b) { return a + b; })),
               Error);
}

// ---- engine-level equivalence ----------------------------------------------

struct Env {
  ssd::TempDir dir;
  ssd::Storage storage;
  Env() : storage(dir.path(), [] {
            ssd::DeviceConfig d;
            d.page_size = 4_KiB;
            return d;
          }()) {}
};

template <core::VertexApp App>
std::pair<std::vector<typename App::Value>, core::RunStats> run_engine(
    const graph::CsrGraph& csr, App app, core::EngineOptions opts) {
  Env env;
  auto intervals = core::partition_for_app<App>(csr, opts);
  graph::StoredCsrGraph stored(env.storage, "g", csr, intervals);
  core::MultiLogVCEngine<App> engine(stored, app, opts);
  auto stats = engine.run();
  return {engine.values(), std::move(stats)};
}

graph::CsrGraph property_graph(std::uint64_t seed) {
  graph::RmatParams p;
  p.scale = 8;
  p.edge_factor = 6;
  p.seed = seed;
  return graph::CsrGraph::from_edge_list(graph::generate_rmat(p));
}

/// Every grouping path must yield the same values on the serial and the
/// pipelined engine, with combine enabled and disabled. Pinned to push: the
/// path counters assert on grouped log input, and a pulled interval's input
/// is gathered, not grouped.
template <core::VertexApp App, typename Cmp>
void path_matrix(const graph::CsrGraph& csr, App app, Cmp&& compare) {
  ScopedEnv push("MLVC_DIRECTION", "push");
  for (const bool pipeline : {false, true}) {
    for (const bool combine : {true, false}) {
      auto base = testing_options();
      base.max_supersteps = 30;
      base.io_threads = pipeline ? 4 : 0;
      base.enable_combine = combine;

      base.sort_group_path = SortGroupPath::kComparisonSort;
      const auto [ref_values, ref_stats] = run_engine(csr, app, base);
      EXPECT_EQ(ref_stats.groups_scatter(), 0u);
      EXPECT_GT(ref_stats.groups_comparison(), 0u);

      for (const auto path :
           {SortGroupPath::kCountingScatter, SortGroupPath::kAuto}) {
        auto opts = base;
        opts.sort_group_path = path;
        const auto [values, stats] = run_engine(csr, app, opts);
        if (path == SortGroupPath::kCountingScatter) {
          EXPECT_EQ(stats.groups_comparison(), 0u);
          EXPECT_GT(stats.groups_scatter(), 0u);
        } else {
          EXPECT_GT(stats.groups_scatter() + stats.groups_comparison(), 0u);
        }
        ASSERT_EQ(values.size(), ref_values.size());
        for (VertexId v = 0; v < csr.num_vertices(); ++v) {
          compare(ref_values[v], values[v], v, pipeline, combine);
        }
      }
    }
  }
}

const auto exact = [](const auto& a, const auto& b, VertexId v, bool pipeline,
                      bool combine) {
  ASSERT_EQ(a, b) << "vertex " << v << " pipeline=" << pipeline
                  << " combine=" << combine;
};

class SortGroupEngineProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SortGroupEngineProperty, BfsValuesPathIndependent) {
  path_matrix(property_graph(GetParam()), apps::Bfs{.source = 1}, exact);
}

TEST_P(SortGroupEngineProperty, CdlpValuesPathIndependent) {
  path_matrix(property_graph(GetParam()), apps::Cdlp{}, exact);
}

TEST_P(SortGroupEngineProperty, PageRankValuesPathIndependent) {
  apps::PageRank app;
  app.threshold = 0.1f;
  // Combine fold order differs between the paths, so float sums compare
  // within rounding tolerance rather than bit-exactly.
  path_matrix(property_graph(GetParam()), app,
              [](float a, float b, VertexId v, bool pipeline, bool combine) {
                ASSERT_NEAR(a, b, 1e-4)
                    << "vertex " << v << " pipeline=" << pipeline
                    << " combine=" << combine;
              });
}

INSTANTIATE_TEST_SUITE_P(Seeds, SortGroupEngineProperty,
                         ::testing::Values(11, 29));

TEST(SortGroupEngineStats, SortGroupTimeIsReported) {
  auto opts = testing_options();
  opts.max_supersteps = 5;
  const auto [values, stats] =
      run_engine(property_graph(11), apps::Cdlp{}, opts);
  (void)values;
  EXPECT_GT(stats.groups_scatter() + stats.groups_comparison(), 0u);
  EXPECT_GE(stats.sort_group_seconds(), 0.0);
  for (const auto& s : stats.supersteps) {
    EXPECT_GE(s.sort_group_seconds, 0.0);
  }
}

TEST(SortGroupEngineStats, OnlyChainsWithLogInputCountAGroupPath) {
  // A BSP wave releases every interval, so superstep 0 — whose logs are
  // all empty (BFS starts from a sticky source) — runs chains but no
  // sort-and-group path; later supersteps count one path per fused group
  // that had input. Pinned to push: a pulled interval's input is gathered,
  // not grouped.
  ScopedEnv push("MLVC_DIRECTION", "push");
  auto opts = testing_options();
  opts.memory_budget_bytes = 256_KiB;  // several intervals
  const auto [values, stats] =
      run_engine(property_graph(11), apps::Bfs{.source = 0}, opts);
  (void)values;
  ASSERT_GE(stats.supersteps.size(), 3u);
  const auto& first = stats.supersteps.front();
  EXPECT_EQ(first.messages_consumed, 0u);
  EXPECT_EQ(first.groups_scatter + first.groups_comparison, 0u);
  for (const auto& s : stats.supersteps) {
    if (s.messages_consumed > 0) {
      EXPECT_GT(s.groups_scatter + s.groups_comparison, 0u)
          << "superstep " << s.superstep;
    }
  }
}

}  // namespace
}  // namespace mlvc
