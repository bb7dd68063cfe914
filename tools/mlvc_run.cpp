// mlvc_run — run any built-in application on any engine over a graph file.
//
//   mlvc_run --graph g.mlvc --app bfs --source 0
//   mlvc_run --graph g.mlvc --app cdlp --engine graphchi --budget 64M
//   mlvc_run --graph g.mlvc --app pagerank --engine grafboost --supersteps 15
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "apps/bfs.hpp"
#include "apps/cdlp.hpp"
#include "apps/coloring.hpp"
#include "apps/kcore.hpp"
#include "apps/mis.hpp"
#include "apps/pagerank.hpp"
#include "apps/pagerank_delta.hpp"
#include "apps/random_walk.hpp"
#include "apps/sssp.hpp"
#include "apps/wcc.hpp"
#include "common/args.hpp"
#include "core/engine.hpp"
#include "grafboost/engine.hpp"
#include "graph/serialization.hpp"
#include "graphchi/engine.hpp"
#include "metrics/json_export.hpp"
#include "metrics/report.hpp"
#include "ssd/io_backend.hpp"

namespace {

using namespace mlvc;

struct RunConfig {
  std::string engine;
  std::size_t budget;
  Superstep supersteps;
  std::uint64_t seed;
  std::size_t page_size;
  unsigned channels;
  std::string json_path;  // empty = no JSON dump
  unsigned staging;       // produce-path staging depth (mlvc engine)
  std::size_t adj_cache;  // adjacency page-cache bytes (mlvc engine)
  ssd::IoBackendKind io_backend;  // hot-path I/O substrate (mlvc engine)
  unsigned io_depth;              // io_uring ring size
  OnDiskFormat format;            // stored-CSR / message-log layout
  core::ComputationModel model;   // message delivery (mlvc engine)
  SchedulePolicy schedule;        // superstep-internal interval order (mlvc)
  unsigned devices;               // striped backing devices for the store
  std::size_t stripe_unit;        // stripe unit bytes (0 = default)
};

/// Per-layer on-disk vs logical byte split — makes bytes/edge (and the v2
/// compression ratio) observable straight from the CLI.
void print_bytes_per_edge(const core::RunStats& stats, EdgeIndex num_edges) {
  if (num_edges == 0) return;
  const auto line = [&](const char* name, ssd::IoCategory cat) {
    const auto c = stats.category_bytes(cat);
    const std::uint64_t physical = c.bytes_read + c.bytes_written;
    const std::uint64_t logical = c.logical_bytes_read + c.logical_bytes_written;
    if (physical == 0 && logical == 0) return;
    std::cout << "  " << name << ": "
              << static_cast<double>(physical) / static_cast<double>(num_edges)
              << " B/edge on-disk, "
              << static_cast<double>(logical) / static_cast<double>(num_edges)
              << " B/edge logical";
    if (physical > 0 && logical > 0) {
      std::cout << " (ratio "
                << static_cast<double>(logical) / static_cast<double>(physical)
                << "x)";
    }
    std::cout << "\n";
  };
  std::cout << "bytes/edge by layer:\n";
  line("adjacency", ssd::IoCategory::kCsrColIdx);
  line("message_log", ssd::IoCategory::kMessageLog);
  line("checkpoint", ssd::IoCategory::kMisc);
}

template <core::VertexApp App>
int run_app(const graph::CsrGraph& csr, App app, const RunConfig& cfg) {
  ssd::TempDir workdir("mlvc_run");
  ssd::DeviceConfig device;
  device.page_size = cfg.page_size;
  device.num_channels = cfg.channels;
  device.num_devices = cfg.devices;
  if (cfg.stripe_unit > 0) device.stripe_unit_bytes = cfg.stripe_unit;
  ssd::Storage storage(workdir.path(), device);

  core::RunStats stats;
  if (cfg.engine == "mlvc") {
    core::EngineOptions opts;
    opts.memory_budget_bytes = cfg.budget;
    opts.max_supersteps = cfg.supersteps;
    opts.seed = cfg.seed;
    opts.scatter_staging_records = cfg.staging;
    opts.adjacency_cache_bytes = cfg.adj_cache;
    opts.io_backend = cfg.io_backend;
    opts.io_queue_depth = cfg.io_depth;
    opts.on_disk_format = cfg.format;
    opts.model = cfg.model;
    opts.schedule_policy = cfg.schedule;
    graph::StoredCsrGraph stored(storage, "g", csr,
                                 core::partition_for_app<App>(csr, opts),
                                 {.with_weights = App::kNeedsWeights,
                                  .format = cfg.format});
    core::MultiLogVCEngine<App> engine(stored, app, opts);
    stats = engine.run();
    // Streamed over the value store; the export never materializes the
    // O(V) values() vector.
    stats.values_hash = metrics::streamed_values_hash(engine);
    stats.has_values_hash = true;
  } else if (cfg.engine == "graphchi") {
    graphchi::GraphChiOptions opts;
    opts.memory_budget_bytes = cfg.budget;
    opts.max_supersteps = cfg.supersteps;
    opts.seed = cfg.seed;
    graphchi::GraphChiEngine<App> engine(storage, csr, app, opts);
    stats = engine.run();
  } else if (cfg.engine == "grafboost") {
    core::EngineOptions popts;
    popts.memory_budget_bytes = cfg.budget;
    graph::StoredCsrGraph stored(storage, "g", csr,
                                 core::partition_for_app<App>(csr, popts),
                                 {.with_weights = App::kNeedsWeights,
                                  .format = cfg.format});
    grafboost::GraFBoostOptions opts;
    opts.memory_budget_bytes = cfg.budget;
    opts.max_supersteps = cfg.supersteps;
    opts.seed = cfg.seed;
    grafboost::GraFBoostEngine<App> engine(stored, app, opts);
    stats = engine.run();
  } else {
    std::cerr << "unknown --engine '" << cfg.engine
              << "' (mlvc | graphchi | grafboost)\n";
    return 2;
  }

  std::cout << metrics::summarize(stats) << "\n";
  print_bytes_per_edge(stats, csr.num_edges());
  std::cout << "\n";
  metrics::print_superstep_table(stats);
  if (!cfg.json_path.empty()) {
    std::ofstream json(cfg.json_path);
    metrics::write_json(stats, json);
    std::cout << "\nwrote " << cfg.json_path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("mlvc_run", "run a vertex-centric application on a graph");
  args.option("graph", "binary MLVC graph file (see mlvc_gen/mlvc_convert)")
      .option("app",
              "bfs | sssp | pagerank | prdelta | cdlp | coloring | mis | rw | "
              "kcore | wcc")
      .option("engine", "mlvc | graphchi | grafboost", "mlvc")
      .option("budget", "host memory budget, e.g. 64M or 1G", "64M")
      .option("supersteps", "superstep cap", "15")
      .option("source", "source vertex (bfs/sssp)", "0")
      .option("k", "core order (kcore)", "3")
      .option("stride", "source stride (rw)", "1000")
      .option("seed", "random seed", "1")
      .option("page-size", "modeled SSD page size", "16K")
      .option("channels", "modeled SSD channels", "8")
      .option("staging", "produce-path staging depth in records, 0 = locked",
              "64")
      .option("adj-cache", "adjacency page-cache bytes, 0 = off", "0")
      .option("io-backend", "threadpool | uring (falls back if unsupported)",
              "threadpool")
      .option("io-depth", "io_uring submission queue depth", "64")
      .option("format", "on-disk layout: v1 | v2 (default MLVC_FORMAT or v2)",
              "-")
      .option("model", "message delivery: sync | async (mlvc engine)", "sync")
      .option("schedule",
              "interval order: bsp | fifo | hub-degree | log-bytes "
              "(default MLVC_SCHEDULE or bsp; mlvc engine)",
              "-")
      .option("devices",
              "striped backing devices for the run's store "
              "(default MLVC_DEVICES or 1)",
              "-")
      .option("stripe", "stripe unit bytes, e.g. 128K (striped stores)", "-")
      .option("direction",
              "execution direction: push | pull | adaptive (default "
              "MLVC_DIRECTION or push; mlvc engine, sync model)",
              "-")
      .option("json", "write run statistics to this JSON file", "-");
  try {
    args.parse(argc, argv);
  } catch (const Error& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  try {
    const std::string backend_arg =
        args.get_string("io-backend", "threadpool");
    const auto backend = ssd::parse_io_backend(backend_arg);
    if (!backend) {
      std::cerr << "unknown --io-backend '" << backend_arg
                << "' (threadpool | uring)\n";
      return 2;
    }
    // Resolve the MLVC_FORMAT env override first; --format wins over both
    // it and the built-in default. (The engine re-applies env overrides at
    // construction, but the stored CSR below needs the resolved value too.)
    OnDiskFormat format =
        core::apply_env_overrides(core::EngineOptions{}).on_disk_format;
    const std::string format_arg = args.get_string("format", "-");
    if (format_arg != "-") {
      if (!parse_on_disk_format(format_arg.c_str(), &format)) {
        std::cerr << "unknown --format '" << format_arg << "' (v1 | v2)\n";
        return 2;
      }
      // The engine re-applies MLVC_FORMAT at construction; pin it so an
      // explicit --format can't be half-overridden into a mixed config.
      setenv("MLVC_FORMAT", to_string(format), /*overwrite=*/1);
    }
    // --schedule follows the same resolve-then-pin pattern as --format.
    SchedulePolicy schedule =
        core::apply_env_overrides(core::EngineOptions{}).schedule_policy;
    const std::string schedule_arg = args.get_string("schedule", "-");
    if (schedule_arg != "-") {
      if (!parse_schedule_policy(schedule_arg.c_str(), &schedule)) {
        std::cerr << "unknown --schedule '" << schedule_arg
                  << "' (bsp | fifo | hub-degree | log-bytes)\n";
        return 2;
      }
      setenv("MLVC_SCHEDULE", to_string(schedule), /*overwrite=*/1);
    }
    // --devices / --stripe: resolve-then-pin again, because Storage
    // construction re-reads MLVC_DEVICES/MLVC_STRIPE_UNIT.
    unsigned devices = 1;
    if (const char* env = std::getenv("MLVC_DEVICES")) {
      const unsigned n = static_cast<unsigned>(std::strtoul(env, nullptr, 10));
      if (n > 0) devices = n;
    }
    const std::string devices_arg = args.get_string("devices", "-");
    if (devices_arg != "-") {
      devices =
          static_cast<unsigned>(std::strtoul(devices_arg.c_str(), nullptr, 10));
      if (devices == 0) {
        std::cerr << "--devices must be >= 1\n";
        return 2;
      }
      setenv("MLVC_DEVICES", devices_arg.c_str(), /*overwrite=*/1);
    }
    std::size_t stripe_unit = 0;
    const std::string stripe_arg = args.get_string("stripe", "-");
    if (stripe_arg != "-") {
      stripe_unit = static_cast<std::size_t>(args.get_bytes("stripe", 0));
      setenv("MLVC_STRIPE_UNIT", std::to_string(stripe_unit).c_str(),
             /*overwrite=*/1);
    }
    // --direction: resolve-then-pin like --schedule; the engine re-reads
    // MLVC_DIRECTION at construction.
    const std::string direction_arg = args.get_string("direction", "-");
    if (direction_arg != "-") {
      DirectionMode direction;
      if (!parse_direction_mode(direction_arg.c_str(), &direction)) {
        std::cerr << "unknown --direction '" << direction_arg
                  << "' (push | pull | adaptive)\n";
        return 2;
      }
      setenv("MLVC_DIRECTION", to_string(direction), /*overwrite=*/1);
    }
    const std::string model_arg = args.get_string("model", "sync");
    core::ComputationModel model;
    if (model_arg == "sync") {
      model = core::ComputationModel::kSynchronous;
    } else if (model_arg == "async") {
      model = core::ComputationModel::kAsynchronous;
    } else {
      std::cerr << "unknown --model '" << model_arg << "' (sync | async)\n";
      return 2;
    }
    const auto csr = graph::load_csr(args.get_string("graph"));
    const RunConfig cfg{
        args.get_string("engine", "mlvc"),
        static_cast<std::size_t>(args.get_bytes("budget", 64_MiB)),
        static_cast<Superstep>(args.get_int("supersteps", 15)),
        static_cast<std::uint64_t>(args.get_int("seed", 1)),
        static_cast<std::size_t>(args.get_bytes("page-size", 16_KiB)),
        static_cast<unsigned>(args.get_int("channels", 8)),
        args.get_string("json", "-") == "-" ? std::string{}
                                            : args.get_string("json", "-"),
        static_cast<unsigned>(args.get_int("staging", 64)),
        static_cast<std::size_t>(args.get_bytes("adj-cache", 0)),
        *backend,
        static_cast<unsigned>(args.get_int("io-depth", 64)),
        format,
        model,
        schedule,
        devices,
        stripe_unit,
    };
    const auto source = static_cast<VertexId>(args.get_int("source", 0));
    const std::string app = args.get_string("app");

    if (app == "bfs") return run_app(csr, apps::Bfs{.source = source}, cfg);
    if (app == "sssp") return run_app(csr, apps::Sssp{.source = source}, cfg);
    if (app == "pagerank") return run_app(csr, apps::PageRank{}, cfg);
    if (app == "prdelta") return run_app(csr, apps::PageRankDelta{}, cfg);
    if (app == "cdlp") return run_app(csr, apps::Cdlp{}, cfg);
    if (app == "coloring") return run_app(csr, apps::GraphColoring{}, cfg);
    if (app == "mis") return run_app(csr, apps::Mis{}, cfg);
    if (app == "wcc") return run_app(csr, apps::Wcc{}, cfg);
    if (app == "kcore") {
      return run_app(
          csr, apps::KCore{.k = static_cast<std::uint32_t>(args.get_int("k", 3))},
          cfg);
    }
    if (app == "rw") {
      apps::RandomWalk rw;
      rw.source_stride =
          static_cast<VertexId>(args.get_int("stride", 1000));
      return run_app(csr, rw, cfg);
    }
    std::cerr << "unknown --app '" << app << "'\n" << args.usage();
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
