// mlvc_serve — a long-lived multi-tenant query daemon over one shared graph.
//
// One RuntimeContext owns the storage, the io-backend choice, a shared
// adjacency PageCache, the memory-budget arbiter, and the checkpoint
// snapshot table; every query is a cheap per-query MultiLogVCEngine over
// that substrate, run on a bounded worker pool. Queries arrive as lines —
// from a script file, stdin, or self-generated (--random) — and each
// reports its own latency, supersteps, value hash, and per-query cache
// split. This is the FlashGraph serving model over the MultiLogVC engine.
//
//   mlvc_serve --graph g.mlvc --random 100 --concurrency 32
//   mlvc_serve --graph g.mlvc --script queries.txt --verify
//   echo "bfs 0" | mlvc_serve --graph g.mlvc
//
// Query language (one query per line, '#' comments):
//   bfs <source> | sssp <source> | wcc | cdlp | pagerank | prdelta |
//   rw <stride> | quit
// Any query may end with "schedule=<fifo|hub-degree|log-bytes>", which runs
// it under the asynchronous model with that interval schedule policy —
// async delta-PageRank queries share the RuntimeContext with BSP queries.
//
// --verify re-runs each distinct order-independent query (bfs/sssp/wcc —
// min-combines, so bit-identical regardless of message arrival order)
// serially on a one-shot engine over the same graph and compares value
// hashes. pagerank/prdelta (float-sum combine) and rw (walker/draw pairing)
// are arrival-order-sensitive by nature and are checked for completion
// only; so are scheduled queries (the serial replay would run BSP order,
// and e.g. async BFS legally reaches vertices in fewer supersteps).
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/bfs.hpp"
#include "apps/cdlp.hpp"
#include "apps/pagerank.hpp"
#include "apps/pagerank_delta.hpp"
#include "apps/random_walk.hpp"
#include "apps/sssp.hpp"
#include "apps/wcc.hpp"
#include "common/args.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/engine.hpp"
#include "core/runtime_context.hpp"
#include "graph/serialization.hpp"
#include "metrics/json_export.hpp"

namespace {

using namespace mlvc;

// FNV-1a over the raw value bytes: the "results bit-identical" check.
// Streams the values in id-ascending chunks via Engine::for_each_value_chunk
// instead of materializing the O(V) vector values() returns, so --verify
// stays within the memory budget on big graphs.
template <typename Engine>
std::uint64_t hash_values(const Engine& engine) {
  return metrics::streamed_values_hash(engine);
}

struct Spec {
  std::string app;   // bfs | sssp | wcc | cdlp | pagerank | prdelta | rw
  VertexId arg = 0;  // source (bfs/sssp) or stride (rw)
  /// Non-kBsp runs the query under the asynchronous model with this
  /// interval schedule (same-wave delivery + priority order).
  SchedulePolicy schedule = SchedulePolicy::kBsp;
  std::string text;  // canonical form, also the verify-dedup key

  /// Order-independent message combine → bit-identical under concurrency.
  /// Scheduled queries are excluded even for min-combine apps: the serial
  /// verify replay runs BSP order, and async delivery legally changes
  /// per-superstep results (e.g. BFS levels settle in fewer rounds).
  bool deterministic() const {
    return (app == "bfs" || app == "sssp" || app == "wcc") &&
           schedule == SchedulePolicy::kBsp;
  }
};

struct QueryResult {
  std::uint64_t query_id = 0;
  Spec spec;
  bool ok = false;
  std::string error;
  std::uint64_t value_hash = 0;
  double wall_seconds = 0;
  std::size_t supersteps = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_bypasses = 0;
};

struct ServeConfig {
  core::EngineOptions engine;
  bool weights = false;
};

std::optional<Spec> parse_spec(const std::string& line, VertexId n_vertices) {
  std::istringstream is(line);
  Spec s;
  if (!(is >> s.app)) return std::nullopt;  // blank line
  if (s.app.front() == '#') return std::nullopt;
  if (s.app == "bfs" || s.app == "sssp" || s.app == "rw") {
    std::uint64_t arg = 0;
    if (!(is >> arg)) {
      throw InvalidArgument("query '" + line + "' needs a numeric argument");
    }
    if (s.app == "rw") {
      if (arg == 0) throw InvalidArgument("rw stride must be > 0");
    } else if (arg >= n_vertices) {
      throw InvalidArgument("source " + std::to_string(arg) +
                            " out of range (graph has " +
                            std::to_string(n_vertices) + " vertices)");
    }
    s.arg = static_cast<VertexId>(arg);
    s.text = s.app + " " + std::to_string(arg);
  } else if (s.app == "wcc" || s.app == "cdlp" || s.app == "pagerank" ||
             s.app == "prdelta") {
    s.text = s.app;
  } else {
    throw InvalidArgument(
        "unknown query '" + line +
        "' (bfs S | sssp S | wcc | cdlp | pagerank | prdelta | rw N"
        " [schedule=POLICY])");
  }
  std::string tok;
  if (is >> tok) {
    constexpr const char* kPrefix = "schedule=";
    if (tok.rfind(kPrefix, 0) != 0 ||
        !parse_schedule_policy(tok.c_str() + 9, &s.schedule)) {
      throw InvalidArgument(
          "bad query suffix '" + tok +
          "' (expected schedule=bsp|fifo|hub-degree|log-bytes)");
    }
    if (s.schedule != SchedulePolicy::kBsp) {
      s.text += " ";
      s.text += kPrefix;
      s.text += to_string(s.schedule);
    }
  }
  return s;
}

template <core::VertexApp App>
QueryResult run_query(core::RuntimeContext& ctx, graph::StoredCsrGraph& graph,
                      App app, const Spec& spec, const ServeConfig& cfg) {
  QueryResult r;
  r.spec = spec;
  WallTimer wall;
  // Per-query engine options: a scheduled query flips this engine (and only
  // this engine) to the asynchronous model with the requested interval
  // order; BSP queries sharing the RuntimeContext are untouched.
  core::EngineOptions opts = cfg.engine;
  if (spec.schedule != SchedulePolicy::kBsp) {
    opts.schedule_policy = spec.schedule;
    opts.model = core::ComputationModel::kAsynchronous;
  }
  core::MultiLogVCEngine<App> engine(ctx, graph, app, opts);
  r.query_id = engine.query_id();
  const core::RunStats stats = engine.run();
  r.wall_seconds = wall.elapsed_seconds();
  r.supersteps = stats.supersteps.size();
  r.value_hash = hash_values(engine);
  r.cache_hits = stats.query_cache_hit_pages;
  r.cache_misses = stats.query_cache_miss_pages;
  r.cache_bypasses = stats.query_cache_bypass_pages;
  r.ok = true;
  ctx.merge_run(stats);
  return r;
}

/// Serial ground truth: a one-shot engine over the same stored graph (after
/// the concurrent phase has drained). adjacency_cache_bytes is cleared so
/// the one-shot constructor does not swap the graph's shared cache for a
/// private one.
template <core::VertexApp App>
std::uint64_t serial_hash(graph::StoredCsrGraph& graph, App app,
                          const ServeConfig& cfg) {
  core::EngineOptions opts = cfg.engine;
  opts.adjacency_cache_bytes = 0;
  core::MultiLogVCEngine<App> engine(graph, app, opts);
  engine.run();
  return hash_values(engine);
}

QueryResult dispatch(core::RuntimeContext& ctx, graph::StoredCsrGraph& graph,
                     const Spec& spec, const ServeConfig& cfg) {
  if (spec.app == "bfs") {
    return run_query(ctx, graph, apps::Bfs{.source = spec.arg}, spec, cfg);
  }
  if (spec.app == "sssp") {
    if (!cfg.weights) {
      QueryResult r;
      r.spec = spec;
      r.error = "graph has no weights";
      return r;
    }
    return run_query(ctx, graph, apps::Sssp{.source = spec.arg}, spec, cfg);
  }
  if (spec.app == "wcc") return run_query(ctx, graph, apps::Wcc{}, spec, cfg);
  if (spec.app == "cdlp") {
    return run_query(ctx, graph, apps::Cdlp{}, spec, cfg);
  }
  if (spec.app == "pagerank") {
    return run_query(ctx, graph, apps::PageRank{}, spec, cfg);
  }
  if (spec.app == "prdelta") {
    return run_query(ctx, graph, apps::PageRankDelta{}, spec, cfg);
  }
  apps::RandomWalk rw;
  rw.source_stride = spec.arg;
  return run_query(ctx, graph, rw, spec, cfg);
}

std::uint64_t dispatch_serial(graph::StoredCsrGraph& graph, const Spec& spec,
                              const ServeConfig& cfg) {
  if (spec.app == "bfs") {
    return serial_hash(graph, apps::Bfs{.source = spec.arg}, cfg);
  }
  if (spec.app == "sssp") {
    return serial_hash(graph, apps::Sssp{.source = spec.arg}, cfg);
  }
  return serial_hash(graph, apps::Wcc{}, cfg);
}

std::vector<Spec> random_specs(std::size_t count, std::uint64_t seed,
                               VertexId n_vertices, bool weights) {
  SplitMix64 rng(seed);
  std::vector<Spec> specs;
  specs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    // Traversal-heavy mix: mostly point queries from distinct sources, a
    // sprinkle of whole-graph analytics and walks.
    const std::uint64_t roll = rng.next_below(10);
    std::ostringstream line;
    if (roll < 5 || (roll < 7 && !weights)) {
      line << "bfs " << rng.next_below(n_vertices);
    } else if (roll < 7) {
      line << "sssp " << rng.next_below(n_vertices);
    } else if (roll == 7) {
      line << "wcc";
    } else if (roll == 8) {
      line << "pagerank";
    } else {
      line << "rw " << (1 + rng.next_below(std::max<VertexId>(
                                1, n_vertices / 4)));
    }
    specs.push_back(*parse_spec(line.str(), n_vertices));
  }
  return specs;
}

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("mlvc_serve",
                 "serve concurrent graph queries over one shared graph");
  args.option("graph", "binary MLVC graph file (see mlvc_gen/mlvc_convert)")
      .option("script", "query script file; '-' = stdin", "-")
      .option("random", "self-generate this many mixed queries (0 = off)",
              "0")
      .option("concurrency", "worker threads (max concurrent queries)", "8")
      .option("budget", "per-query host memory budget", "32M")
      .option("pool", "context memory pool the arbiter leases from", "256M")
      .option("cache", "shared adjacency cache bytes", "8M")
      .option("adj-quota",
              "per-query cache admission quota bytes, 0 = whole cache", "0")
      .option("supersteps", "superstep cap per query", "30")
      .option("seed", "random seed (query gen + apps)", "1")
      .option("page-size", "modeled SSD page size", "16K")
      .option("channels", "modeled SSD channels", "8")
      .option("io-backend",
              "threadpool | uring, falls back if unsupported (default "
              "MLVC_IO_BACKEND or threadpool)",
              "-")
      .option("io-depth",
              "io_uring submission queue depth (default MLVC_URING_DEPTH or "
              "64)",
              "-")
      .option("verify",
              "re-run distinct deterministic queries serially and compare "
              "value hashes (0/1)",
              "0");
  try {
    args.parse(argc, argv);
  } catch (const Error& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  try {
    // --io-backend / --io-depth beat MLVC_IO_BACKEND / MLVC_URING_DEPTH,
    // which the context resolves once for every query.
    env::pin_flags(args);
    const auto csr = graph::load_csr(args.get_string("graph"));

    core::RuntimeContextOptions ctx_opts;
    ctx_opts.device.page_size =
        static_cast<std::size_t>(args.get_bytes("page-size", 16_KiB));
    ctx_opts.device.num_channels =
        static_cast<unsigned>(args.get_int("channels", 8));
    ctx_opts.memory_pool_bytes =
        static_cast<std::size_t>(args.get_bytes("pool", 256_MiB));
    ctx_opts.shared_cache_bytes =
        static_cast<std::size_t>(args.get_bytes("cache", 8_MiB));

    ServeConfig cfg;
    cfg.engine.memory_budget_bytes =
        static_cast<std::size_t>(args.get_bytes("budget", 32_MiB));
    cfg.engine.max_supersteps =
        static_cast<Superstep>(args.get_int("supersteps", 30));
    cfg.engine.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    cfg.engine.adjacency_cache_bytes =
        static_cast<std::size_t>(args.get_bytes("adj-quota", 0));
    cfg.weights = csr.has_weights();

    ssd::TempDir workdir("mlvc_serve");
    core::RuntimeContext ctx(workdir.path(), ctx_opts);
    if (!ctx.io_backend_fallback().empty()) {
      std::cerr << "note: io backend fell back to " << ctx.io_backend_name()
                << " (" << ctx.io_backend_fallback() << ")\n";
    }

    // All served apps use 8-byte records, so one §V.A.1 partition fits all.
    graph::StoredCsrGraph stored(
        ctx.storage(), "g", csr,
        core::partition_for_app<apps::Bfs>(csr, cfg.engine),
        {.with_weights = cfg.weights});
    ctx.adopt_graph(stored);

    // ---- collect the workload ------------------------------------------
    std::vector<Spec> specs;
    const auto n_random =
        static_cast<std::size_t>(args.get_int("random", 0));
    if (n_random > 0) {
      specs = random_specs(n_random, cfg.engine.seed, csr.num_vertices(),
                          cfg.weights);
    } else {
      const std::string script = args.get_string("script", "-");
      std::ifstream file;
      if (script != "-") {
        file.open(script);
        if (!file) {
          std::cerr << "cannot open --script '" << script << "'\n";
          return 2;
        }
      }
      std::istream& in = script == "-" ? std::cin : file;
      std::string line;
      while (std::getline(in, line)) {
        if (line == "quit") break;
        if (auto spec = parse_spec(line, csr.num_vertices())) {
          specs.push_back(std::move(*spec));
        }
      }
    }
    if (specs.empty()) {
      std::cerr << "no queries\n";
      return 2;
    }

    // ---- bounded worker pool -------------------------------------------
    const auto concurrency = std::max<std::size_t>(
        1, static_cast<std::size_t>(args.get_int("concurrency", 8)));
    std::vector<QueryResult> results(specs.size());
    std::atomic<std::size_t> next{0};
    std::mutex out_mutex;
    WallTimer serve_wall;
    auto worker = [&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= specs.size()) return;
        QueryResult r;
        try {
          r = dispatch(ctx, stored, specs[i], cfg);
        } catch (const std::exception& e) {
          r.spec = specs[i];
          r.error = e.what();
        }
        {
          std::lock_guard<std::mutex> lock(out_mutex);
          if (r.ok) {
            std::cout << "query " << r.query_id << " [" << r.spec.text
                      << "] ok wall=" << r.wall_seconds
                      << "s supersteps=" << r.supersteps << " hash=0x"
                      << std::hex << r.value_hash << std::dec
                      << " cache_hit=" << r.cache_hits
                      << " cache_miss=" << r.cache_misses
                      << " cache_bypass=" << r.cache_bypasses << "\n";
          } else {
            std::cout << "query - [" << r.spec.text
                      << "] FAILED: " << r.error << "\n";
          }
        }
        results[i] = std::move(r);
      }
    };
    std::vector<std::thread> workers;
    workers.reserve(concurrency);
    for (std::size_t w = 0; w < concurrency; ++w) {
      workers.emplace_back(worker);
    }
    for (auto& t : workers) t.join();
    const double serve_seconds = serve_wall.elapsed_seconds();

    // ---- verify against serial one-shot runs ---------------------------
    std::size_t verify_failures = 0;
    if (args.get_int("verify", 0) != 0) {
      std::map<std::string, std::uint64_t> concurrent_hash;
      for (const auto& r : results) {
        if (r.ok && r.spec.deterministic()) {
          concurrent_hash[r.spec.text] = r.value_hash;
        }
      }
      for (const auto& [text, hash] : concurrent_hash) {
        const Spec spec = *parse_spec(text, csr.num_vertices());
        const std::uint64_t serial = dispatch_serial(stored, spec, cfg);
        if (serial != hash) {
          ++verify_failures;
          std::cout << "VERIFY MISMATCH [" << text << "] concurrent=0x"
                    << std::hex << hash << " serial=0x" << serial << std::dec
                    << "\n";
        }
      }
      std::cout << "verify: " << concurrent_hash.size() << " distinct "
                << "deterministic queries, " << verify_failures
                << " mismatches\n";
    }

    // ---- summary --------------------------------------------------------
    std::size_t failed = 0;
    std::vector<double> latencies;
    for (const auto& r : results) {
      if (r.ok) {
        latencies.push_back(r.wall_seconds);
      } else {
        ++failed;
      }
    }
    std::sort(latencies.begin(), latencies.end());
    const auto agg = ctx.aggregates();
    const auto& cache = *ctx.shared_cache();
    const std::uint64_t lookups = cache.hits() + cache.misses();
    std::cout << "served " << latencies.size() << "/" << specs.size()
              << " queries in " << serve_seconds << "s (" << failed
              << " failed, concurrency " << concurrency << ")\n"
              << "latency p50=" << percentile(latencies, 0.5)
              << "s p99=" << percentile(latencies, 0.99) << "s\n"
              << "shared cache: hits=" << cache.hits()
              << " misses=" << cache.misses()
              << " bypasses=" << cache.bypasses()
              << " hit_rate="
              << (lookups > 0
                      ? static_cast<double>(cache.hits()) /
                            static_cast<double>(lookups)
                      : 0.0)
              << " high_water=" << cache.bytes_high_water() << "/"
              << cache.capacity_bytes() << " bytes\n"
              << "context: supersteps=" << agg.supersteps
              << " messages=" << agg.messages
              << " pages_read=" << agg.pages_read
              << " pages_written=" << agg.pages_written << "\n";
    if (cache.bytes_high_water() > cache.capacity_bytes()) {
      std::cout << "ERROR: shared cache exceeded its budget\n";
      return 1;
    }
    return (failed == 0 && verify_failures == 0) ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
