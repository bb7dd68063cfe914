// Multi-tenant serving sweep: open-loop Poisson query arrivals against one
// RuntimeContext (shared storage, shared admission-controlled page cache),
// swept over worker-pool concurrency. Emits BENCH_serve.json with query
// throughput, p50/p99 latency, and the shared-cache hit rate per level.
//
// The regression guard (check_bench_regression.py --suite serve) compares
// *qps scaling ratios* (qps at concurrency C / qps at concurrency 1), which
// is what the shared-context serving path bought and is far more stable
// across hosts than absolute qps.
//
//   bench_serve [out.json]
//
// Environment: the MLVC_BENCH_SERVE_* rows of common/env.hpp.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/bfs.hpp"
#include "apps/wcc.hpp"
#include "common/env.hpp"
#include "core/engine.hpp"
#include "core/runtime_context.hpp"
#include "graph/generators.hpp"
#include "ssd/storage.hpp"

namespace mlvc::bench {
namespace {

using Clock = std::chrono::steady_clock;

struct QuerySpec {
  bool is_bfs = true;
  VertexId source = 0;
};

struct LevelResult {
  std::size_t concurrency = 0;
  std::size_t queries = 0;
  double wall_seconds = 0;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double cache_hit_rate = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_bypasses = 0;
};

core::EngineOptions serve_options() {
  core::EngineOptions o;
  o.memory_budget_bytes = 4_MiB;
  o.max_supersteps = 30;
  return o;
}

double run_one(core::RuntimeContext& ctx, graph::StoredCsrGraph& graph,
               const QuerySpec& spec) {
  const auto t0 = Clock::now();
  const auto opts = serve_options();
  if (spec.is_bfs) {
    core::MultiLogVCEngine<apps::Bfs> engine(
        ctx, graph, apps::Bfs{.source = spec.source}, opts);
    ctx.merge_run(engine.run());
  } else {
    core::MultiLogVCEngine<apps::Wcc> engine(ctx, graph, apps::Wcc{}, opts);
    ctx.merge_run(engine.run());
  }
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Open-loop G/G/c: arrivals are drawn from a Poisson process up front and
/// do NOT wait for completions; a free worker takes the next undispatched
/// query, idling until its arrival if it is early. Latency = finish -
/// arrival, so queueing delay under overload is charged to the query.
LevelResult run_level(core::RuntimeContext& ctx, graph::StoredCsrGraph& graph,
                      const std::vector<QuerySpec>& specs,
                      std::size_t concurrency, double offered_qps) {
  std::mt19937_64 rng(42);
  std::exponential_distribution<double> interarrival(offered_qps);
  std::vector<double> arrival_offset(specs.size());
  double t = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    t += interarrival(rng);
    arrival_offset[i] = t;
  }

  const auto hits0 = ctx.shared_cache()->hits();
  const auto miss0 = ctx.shared_cache()->misses();
  const auto byp0 = ctx.shared_cache()->bypasses();

  std::vector<double> latency_ms(specs.size(), 0);
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> failures{0};
  const auto start = Clock::now();
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < concurrency; ++w) {
    workers.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= specs.size()) return;
        const auto arrival =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(arrival_offset[i]));
        std::this_thread::sleep_until(arrival);
        try {
          run_one(ctx, graph, specs[i]);
        } catch (...) {
          failures.fetch_add(1);
          continue;
        }
        latency_ms[i] =
            std::chrono::duration<double, std::milli>(Clock::now() - arrival)
                .count();
      }
    });
  }
  for (auto& w : workers) w.join();
  const double wall = std::chrono::duration<double>(Clock::now() - start).count();
  if (failures.load() != 0) {
    std::cerr << "FATAL: " << failures.load() << " queries failed\n";
    std::exit(1);
  }

  LevelResult r;
  r.concurrency = concurrency;
  r.queries = specs.size();
  r.wall_seconds = wall;
  r.qps = static_cast<double>(specs.size()) / wall;
  std::vector<double> sorted = latency_ms;
  std::sort(sorted.begin(), sorted.end());
  r.p50_ms = sorted[sorted.size() / 2];
  r.p99_ms = sorted[std::min(sorted.size() - 1, sorted.size() * 99 / 100)];
  r.cache_hits = ctx.shared_cache()->hits() - hits0;
  r.cache_misses = ctx.shared_cache()->misses() - miss0;
  r.cache_bypasses = ctx.shared_cache()->bypasses() - byp0;
  const double lookups =
      static_cast<double>(r.cache_hits + r.cache_misses + r.cache_bypasses);
  r.cache_hit_rate =
      lookups > 0 ? static_cast<double>(r.cache_hits) / lookups : 0;
  return r;
}

std::vector<QuerySpec> make_specs(std::size_t count, VertexId n_vertices) {
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<VertexId> pick_source(0, n_vertices - 1);
  std::vector<QuerySpec> specs(count);
  for (std::size_t i = 0; i < count; ++i) {
    specs[i].is_bfs = i % 4 != 3;  // 3:1 bfs:wcc
    specs[i].source = pick_source(rng);
  }
  return specs;
}

/// MLVC_BENCH_SERVE_CONCURRENCY as a list of levels; a token that is not an
/// integer >= 1 is the table's error.
std::vector<std::size_t> concurrency_levels() {
  const std::string text =
      env::get_string(env::kBenchServeConcurrency).value_or("1,8,32,64");
  std::vector<std::size_t> levels;
  std::stringstream ss(text);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (tok.empty()) continue;
    if (tok.find_first_not_of("0123456789") != std::string::npos ||
        tok.size() > 9 || std::stoul(tok) == 0) {
      env::reject(env::kBenchServeConcurrency, text);
    }
    levels.push_back(std::stoul(tok));
  }
  return levels;
}

int run(const std::string& out_path) {
  graph::RmatParams params;
  params.scale = 11;
  params.edge_factor = 8;
  params.seed = 99;
  const auto csr = graph::CsrGraph::from_edge_list(graph::generate_rmat(params));

  const std::size_t n_queries =
      env::get_unsigned<std::size_t>(env::kBenchServeQueries).value_or(96);
  const auto levels = concurrency_levels();
  const auto specs = make_specs(n_queries, csr.num_vertices());

  core::RuntimeContextOptions ctx_opts;
  ctx_opts.device.page_size = 4_KiB;
  ctx_opts.shared_cache_bytes = 2_MiB;

  // Calibrate the offered load off a few serial warmup queries in a
  // throwaway context so the Poisson rate tracks this host's service rate
  // (~80% utilization per worker) without warming any measured cache.
  double serial_service_s;
  {
    ssd::TempDir dir("mlvc_bench_serve");
    core::RuntimeContext ctx(dir.path(), ctx_opts);
    graph::StoredCsrGraph stored(
        ctx.storage(), "g", csr,
        core::partition_for_app<apps::Bfs>(csr, serve_options()), {});
    ctx.adopt_graph(stored);
    const std::size_t warmups = std::min<std::size_t>(4, specs.size());
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < warmups; ++i) run_one(ctx, stored, specs[i]);
    serial_service_s =
        std::chrono::duration<double>(Clock::now() - t0).count() /
        static_cast<double>(warmups);
  }

  std::vector<LevelResult> results;
  for (const std::size_t concurrency : levels) {
    // Fresh context per level: cold cache, clean counters, same graph.
    ssd::TempDir dir("mlvc_bench_serve");
    core::RuntimeContext ctx(dir.path(), ctx_opts);
    graph::StoredCsrGraph stored(
        ctx.storage(), "g", csr,
        core::partition_for_app<apps::Bfs>(csr, serve_options()), {});
    ctx.adopt_graph(stored);
    const double offered =
        0.8 * static_cast<double>(concurrency) /
        std::max(serial_service_s, 1e-4);
    const auto r = run_level(ctx, stored, specs, concurrency, offered);
    results.push_back(r);
    std::cout << "concurrency " << r.concurrency << ": " << r.qps
              << " qps, p50 " << r.p50_ms << " ms, p99 " << r.p99_ms
              << " ms, cache hit rate " << r.cache_hit_rate << "\n";
  }

  std::ofstream out(out_path);
  out << "{\"suite\":\"serve\",\"queries_per_level\":" << n_queries
      << ",\"runs\":[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    if (i != 0) out << ',';
    out << "{\"concurrency\":" << r.concurrency
        << ",\"queries\":" << r.queries
        << ",\"wall_seconds\":" << r.wall_seconds << ",\"qps\":" << r.qps
        << ",\"p50_ms\":" << r.p50_ms << ",\"p99_ms\":" << r.p99_ms
        << ",\"cache_hit_rate\":" << r.cache_hit_rate
        << ",\"cache_hits\":" << r.cache_hits
        << ",\"cache_misses\":" << r.cache_misses
        << ",\"cache_bypasses\":" << r.cache_bypasses << '}';
  }
  out << "]}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

}  // namespace
}  // namespace mlvc::bench

int main(int argc, char** argv) {
  return mlvc::bench::run(argc > 1 ? argv[1] : "BENCH_serve.json");
}
