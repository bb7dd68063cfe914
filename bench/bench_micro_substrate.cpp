// Google-benchmark microbenches for the substrate hot paths: page-accounted
// storage I/O, multi-log append/spill/load, in-memory sort+group, and the
// external sorter. These guard against regressions in the layers every
// engine sits on.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "grafboost/external_sorter.hpp"
#include "graph/generators.hpp"
#include "multilog/multilog_store.hpp"
#include "multilog/record.hpp"
#include "multilog/sort_group.hpp"
#include "ssd/async_io.hpp"
#include "ssd/io_backend.hpp"
#include "ssd/storage.hpp"
#include "ssd/uring_io.hpp"

namespace {

using namespace mlvc;

void BM_StorageAppendRead(benchmark::State& state) {
  ssd::TempDir dir;
  ssd::Storage storage(dir.path());
  ssd::Blob& blob = storage.create_blob("bench", ssd::IoCategory::kMisc);
  std::vector<char> page(16_KiB, 'x');
  std::uint64_t pages = 0;
  for (auto _ : state) {
    blob.append(page.data(), page.size());
    blob.read(pages * page.size(), page.data(), page.size());
    ++pages;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(pages * page.size() * 2));
}
BENCHMARK(BM_StorageAppendRead);

void BM_MultiLogAppend(benchmark::State& state) {
  ssd::TempDir dir;
  ssd::Storage storage(dir.path());
  auto intervals = graph::VertexIntervals::uniform(1u << 20, 1u << 14);
  multilog::MultiLogStore store(storage, "bench", intervals,
                                {.record_size = 8});
  SplitMix64 rng(1);
  struct Rec {
    VertexId dst;
    std::uint32_t payload;
  };
  std::uint64_t n = 0;
  for (auto _ : state) {
    Rec rec{static_cast<VertexId>(rng.next_below(1u << 20)),
            static_cast<std::uint32_t>(n)};
    store.append(rec.dst, &rec);
    ++n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MultiLogAppend);

void BM_MultiLogRoundTrip(benchmark::State& state) {
  const std::int64_t messages = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    ssd::TempDir dir;
    ssd::Storage storage(dir.path());
    auto intervals = graph::VertexIntervals::uniform(1u << 16, 1u << 12);
    multilog::MultiLogStore store(storage, "bench", intervals,
                                  {.record_size = 8});
    SplitMix64 rng(7);
    state.ResumeTiming();

    struct Rec {
      VertexId dst;
      std::uint32_t payload;
    };
    for (std::int64_t i = 0; i < messages; ++i) {
      Rec rec{static_cast<VertexId>(rng.next_below(1u << 16)), 0u};
      store.append(rec.dst, &rec);
    }
    store.swap_generations();
    std::vector<std::byte> bytes;
    for (IntervalId i = 0; i < intervals.count(); ++i) {
      store.load_interval(i, bytes);
    }
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetItemsProcessed(state.iterations() * messages);
}
BENCHMARK(BM_MultiLogRoundTrip)->Arg(100000);

void BM_SortGroup(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  SplitMix64 rng(3);
  std::vector<multilog::Record<std::uint32_t>> base(n);
  for (auto& r : base) {
    r.dst = static_cast<VertexId>(rng.next_below(1u << 18));
    r.payload = 1;
  }
  for (auto _ : state) {
    auto records = base;
    multilog::sort_records(records);
    const auto combined = multilog::combine_sorted(
        records, [](std::uint32_t a, std::uint32_t b) { return a + b; });
    benchmark::DoNotOptimize(combined);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SortGroup)->Arg(1 << 16)->Arg(1 << 20);

// ---- §V.B scatter-vs-comparison sweep --------------------------------------
//
// One fused interval group's raw log: n records, destinations uniform in
// [0, width). The sweep crosses record counts (2^10–2^24) with sparse →
// dense interval widths and combine on/off, one benchmark per grouping
// path, so the counting scatter's win (and the fallback's crossover region)
// is directly visible. Each run logs the path the group actually took as a
// counter (path_scatter = 1 for the counting scatter).
std::vector<std::byte> make_group_log(std::int64_t n, std::int64_t width,
                                      std::uint64_t seed) {
  using Rec = multilog::Record<std::uint32_t>;
  std::vector<std::byte> bytes(static_cast<std::size_t>(n) * sizeof(Rec));
  SplitMix64 rng(seed);
  for (std::int64_t i = 0; i < n; ++i) {
    Rec rec{static_cast<VertexId>(
                rng.next_below(static_cast<std::uint64_t>(width))),
            1u};
    std::memcpy(bytes.data() + static_cast<std::size_t>(i) * sizeof(Rec),
                &rec, sizeof(Rec));
  }
  return bytes;
}

void sort_group_path_bench(benchmark::State& state, SortGroupPath policy) {
  const std::int64_t n = state.range(0);
  const std::int64_t width = state.range(1);
  const bool combine = state.range(2) != 0;
  const auto bytes = make_group_log(n, width, 3);
  const auto span = std::span<const std::byte>(bytes);
  const auto end = static_cast<VertexId>(width);
  SortGroupPath taken = policy;
  for (auto _ : state) {
    if (combine) {
      auto g = multilog::sort_and_group<std::uint32_t>(
          span, OnDiskFormat::kV1, 0, end, policy,
          [](std::uint32_t a, std::uint32_t b) { return a + b; });
      taken = g.path;
      benchmark::DoNotOptimize(g.records.data());
    } else {
      auto g = multilog::sort_and_group<std::uint32_t>(
          span, OnDiskFormat::kV1, 0, end, policy);
      taken = g.path;
      benchmark::DoNotOptimize(g.records.data());
    }
  }
  state.counters["path_scatter"] =
      taken == SortGroupPath::kCountingScatter ? 1 : 0;
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_SortGroupScatter(benchmark::State& state) {
  sort_group_path_bench(state, SortGroupPath::kCountingScatter);
}
void BM_SortGroupComparison(benchmark::State& state) {
  sort_group_path_bench(state, SortGroupPath::kComparisonSort);
}
void BM_SortGroupAuto(benchmark::State& state) {
  sort_group_path_bench(state, SortGroupPath::kAuto);
}

void SortGroupSweep(benchmark::internal::Benchmark* b) {
  for (int ln : {10, 14, 18, 22, 24}) {        // record counts 2^10–2^24
    for (int lw : {ln - 6, ln, ln + 2}) {      // dense → sparse widths
      const int w = std::max(4, lw);
      for (int combine : {0, 1}) {
        b->Args({std::int64_t{1} << ln, std::int64_t{1} << w, combine});
      }
    }
  }
}
BENCHMARK(BM_SortGroupScatter)->Apply(SortGroupSweep);
BENCHMARK(BM_SortGroupComparison)->Apply(SortGroupSweep);
// The auto path at the crossover region, to watch the heuristic choose.
BENCHMARK(BM_SortGroupAuto)
    ->Args({1 << 10, 1 << 16, 0})
    ->Args({1 << 18, 1 << 12, 0})
    ->Args({1 << 18, 1 << 12, 1});

// ---- produce-path scatter contention sweep ----------------------------------
//
// N producer threads feed one MultiLogStore random-destination sends — the
// engine's scatter hot path. BM_ScatterAppendLocked is the per-record
// interval-locked append(). BM_ScatterAppendStaged is the engine's path:
// each thread fills its own chunks with no lock and no shared state, then
// the chunks commit in chunk order (MultiLogStore::commit groups them by
// interval and appends in interval order). The sweep crosses thread count ×
// interval count. Manual std::threads, so wall time is the meaningful clock
// (UseRealTime).
constexpr std::int64_t kScatterPerThread = 1 << 17;

struct ScatterSetup {
  ssd::TempDir dir;
  ssd::Storage storage{dir.path()};
  graph::VertexIntervals intervals;
  multilog::MultiLogStore store;
  /// Destinations are pregenerated so the timed region is the produce path
  /// itself, not the RNG.
  std::vector<std::vector<VertexId>> dsts;

  ScatterSetup(unsigned threads, VertexId n_intervals)
      : intervals(graph::VertexIntervals::uniform(n_intervals * 64,
                                                  n_intervals)),
        store(storage, "bench", intervals, {.record_size = 8}),
        dsts(threads) {
    for (unsigned t = 0; t < threads; ++t) {
      SplitMix64 rng(t + 1);
      dsts[t].reserve(kScatterPerThread);
      for (std::int64_t k = 0; k < kScatterPerThread; ++k) {
        dsts[t].push_back(
            static_cast<VertexId>(rng.next_below(n_intervals * 64)));
      }
    }
  }
};

template <typename Body>
void run_producers(unsigned threads, Body&& body) {
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) workers.emplace_back(body, t);
  for (auto& w : workers) w.join();
}

void BM_ScatterAppendLocked(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  ScatterSetup setup(threads, static_cast<VertexId>(state.range(1)));
  for (auto _ : state) {
    run_producers(threads, [&](unsigned t) {
      std::uint32_t k = 0;
      for (const VertexId dst : setup.dsts[t]) {
        multilog::append_record<std::uint32_t>(setup.store, dst, k++);
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * threads * kScatterPerThread);
}

void BM_ScatterAppendStaged(benchmark::State& state) {
  constexpr std::int64_t kChunkRecords = 4096;
  constexpr std::int64_t kChunksPerThread = kScatterPerThread / kChunkRecords;
  const auto threads = static_cast<unsigned>(state.range(0));
  ScatterSetup setup(threads, static_cast<VertexId>(state.range(1)));
  // Thread t owns chunks [t * kChunksPerThread, (t + 1) * kChunksPerThread),
  // reused across iterations as the engine reuses its send chunks.
  std::vector<std::vector<multilog::Record<std::uint32_t>>> chunks(
      threads * kChunksPerThread);
  for (auto _ : state) {
    run_producers(threads, [&](unsigned t) {
      std::uint32_t k = 0;
      for (std::int64_t c = 0; c < kChunksPerThread; ++c) {
        auto& chunk = chunks[t * kChunksPerThread + c];
        chunk.clear();
        for (std::int64_t r = 0; r < kChunkRecords; ++r, ++k) {
          chunk.push_back({setup.dsts[t][k], k});
        }
      }
    });
    multilog::commit_records<std::uint32_t>(setup.store, chunks);
  }
  state.SetItemsProcessed(state.iterations() * threads * kScatterPerThread);
}

void ScatterSweep(benchmark::internal::Benchmark* b) {
  for (std::int64_t threads : {1, 2, 4, 8}) {
    for (std::int64_t iv : {4, 64, 512}) b->Args({threads, iv});
  }
  b->UseRealTime();
}
BENCHMARK(BM_ScatterAppendLocked)->Apply(ScatterSweep);
BENCHMARK(BM_ScatterAppendStaged)->Apply(ScatterSweep);

// ---- I/O-substrate sweep ----------------------------------------------------
//
// Random reads of a given size at a given queue depth through each backend,
// against one shared 64 MiB blob. BM_IoRandReadThreadPool emulates the
// engine's former substrate — an ssd::AsyncIo pool (4 threads) with one
// future per read, so effective depth is capped by the pool. BM_IoRandReadUring
// issues the whole batch as one read_multi on a kUring storage, which turns
// it into at most `depth` SQEs submitted with a single io_uring_enter. The
// guarded quantity (tools/check_bench_regression.py --suite io) is the
// uring/threadpool throughput ratio per configuration; ISSUE acceptance
// wants >= 1.5x at depth >= 32. Offsets are pregenerated and page-aligned;
// manual batches mean wall time is the meaningful clock (UseRealTime).
struct IoBenchFile {
  static constexpr std::size_t kFileBytes = std::size_t{64} << 20;
  ssd::TempDir dir;
  ssd::Storage storage;
  ssd::Blob* blob;

  IoBenchFile() : storage(dir.path()) {
    blob = &storage.create_blob("io_sweep", ssd::IoCategory::kMisc);
    std::vector<std::uint64_t> chunk((1 << 20) / 8);
    SplitMix64 rng(71);
    for (std::size_t written = 0; written < kFileBytes;
         written += chunk.size() * 8) {
      for (auto& w : chunk) w = rng.next();
      blob->append(chunk.data(), chunk.size() * 8);
    }
  }

  static IoBenchFile& instance() {
    static IoBenchFile f;
    return f;
  }
};

/// `batches` pregenerated offset sets, each `depth` page-aligned offsets in
/// ascending order (read_multi's contract; random pages rarely touch, so
/// coalescing stays honest).
std::vector<std::vector<std::uint64_t>> io_offset_batches(std::size_t batches,
                                                          std::size_t depth,
                                                          std::size_t len) {
  SplitMix64 rng(5);
  const std::uint64_t pages = (IoBenchFile::kFileBytes - len) / 4096;
  std::vector<std::vector<std::uint64_t>> out(batches);
  for (auto& batch : out) {
    batch.reserve(depth);
    for (std::size_t i = 0; i < depth; ++i) {
      batch.push_back(rng.next_below(pages) * 4096);
    }
    std::sort(batch.begin(), batch.end());
  }
  return out;
}

void BM_IoRandReadThreadPool(benchmark::State& state) {
  auto& f = IoBenchFile::instance();
  f.storage.set_io_backend(ssd::IoBackendKind::kThreadPool);
  const std::size_t len = static_cast<std::size_t>(state.range(0)) * 1024;
  const std::size_t depth = static_cast<std::size_t>(state.range(1));
  const auto batches = io_offset_batches(64, depth, len);
  std::vector<std::vector<char>> bufs(depth, std::vector<char>(len));
  ssd::AsyncIo io(4);
  std::size_t round = 0;
  for (auto _ : state) {
    const auto& offsets = batches[round++ % batches.size()];
    ssd::IoBatch batch;
    for (std::size_t i = 0; i < depth; ++i) {
      batch.add(io.read(f.blob, offsets[i], bufs[i].data(), len));
    }
    batch.wait();
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * depth * len));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * depth));
}

void BM_IoRandReadUring(benchmark::State& state) {
  if (!ssd::UringIo::probe().available) {
    state.SkipWithError(("io_uring unavailable: " +
                         ssd::UringIo::probe().reason).c_str());
    return;
  }
  auto& f = IoBenchFile::instance();
  const std::size_t len = static_cast<std::size_t>(state.range(0)) * 1024;
  const std::size_t depth = static_cast<std::size_t>(state.range(1));
  if (f.storage.set_io_backend(ssd::IoBackendKind::kUring,
                               static_cast<unsigned>(depth)) !=
      ssd::IoBackendKind::kUring) {
    state.SkipWithError(f.storage.io_backend_fallback().c_str());
    return;
  }
  const auto batches = io_offset_batches(64, depth, len);
  std::vector<std::vector<char>> bufs(depth, std::vector<char>(len));
  std::size_t round = 0;
  for (auto _ : state) {
    const auto& offsets = batches[round++ % batches.size()];
    std::vector<ssd::ReadOp> ops;
    ops.reserve(depth);
    for (std::size_t i = 0; i < depth; ++i) {
      ops.push_back({offsets[i], bufs[i].data(), len});
    }
    f.blob->read_multi(ops);
  }
  f.storage.set_io_backend(ssd::IoBackendKind::kThreadPool);
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * depth * len));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * depth));
}

void IoSweep(benchmark::internal::Benchmark* b) {
  for (std::int64_t kib : {4, 64, 256}) {
    for (std::int64_t depth : {4, 32, 128}) b->Args({kib, depth});
  }
  b->UseRealTime();
}
BENCHMARK(BM_IoRandReadThreadPool)->Apply(IoSweep);
BENCHMARK(BM_IoRandReadUring)->Apply(IoSweep);

void BM_ExternalSorter(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  struct Rec {
    std::uint32_t key;
    std::uint32_t payload;
  };
  for (auto _ : state) {
    state.PauseTiming();
    ssd::TempDir dir;
    ssd::Storage storage(dir.path());
    grafboost::ExternalSorter::Config cfg;
    cfg.record_size = sizeof(Rec);
    cfg.memory_budget_bytes = 256_KiB;
    grafboost::ExternalSorter sorter(storage, "bench", cfg);
    SplitMix64 rng(11);
    state.ResumeTiming();

    for (std::int64_t i = 0; i < n; ++i) {
      Rec rec{static_cast<std::uint32_t>(rng.next_below(1u << 20)),
              static_cast<std::uint32_t>(i)};
      sorter.add(&rec);
    }
    auto stream = sorter.finish();
    Rec rec{};
    std::uint64_t count = 0;
    while (stream->next(&rec)) ++count;
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ExternalSorter)->Arg(1 << 18);

void BM_RmatGeneration(benchmark::State& state) {
  for (auto _ : state) {
    graph::RmatParams p;
    p.scale = 14;
    p.edge_factor = 8;
    p.seed = 5;
    auto edges = graph::generate_rmat(p);
    benchmark::DoNotOptimize(edges.num_edges());
  }
}
BENCHMARK(BM_RmatGeneration);

}  // namespace
