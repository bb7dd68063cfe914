// mlvc_gen — generate a synthetic graph and save it as a binary MLVC file,
// optionally also materializing a stored-CSR directory (striped when
// --devices > 1).
//
//   mlvc_gen --type rmat --scale 18 --edge-factor 16 --seed 1 --out g.mlvc
//   mlvc_gen --type cf   --scale 16 --out cf.mlvc
//   mlvc_gen --type grid --width 512 --height 512 --out grid.mlvc
//   mlvc_gen --type rmat --scale 16 --out g.mlvc --store g_dir --devices 4
#include <filesystem>
#include <iostream>

#include "common/args.hpp"
#include "common/env.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "graph/graph_stats.hpp"
#include "graph/serialization.hpp"
#include "graph/stored_csr.hpp"
#include "ssd/storage.hpp"

int main(int argc, char** argv) {
  using namespace mlvc;
  ArgParser args("mlvc_gen", "generate a synthetic graph (binary MLVC format)");
  args.option("type", "rmat | er | grid | star | chain | cf | yws", "rmat")
      .option("out", "output file path")
      .option("scale", "log2 of the vertex count (rmat/cf/yws)", "16")
      .option("edge-factor", "edges per vertex before mirroring (rmat/er)",
              "16")
      .option("vertices", "vertex count (er/star/chain)", "65536")
      .option("width", "grid width", "256")
      .option("height", "grid height", "256")
      .option("seed", "generator seed", "1")
      .option("store",
              "also materialize a stored-CSR directory here (striped when "
              "--devices > 1)",
              "-")
      .option("devices",
              "striped devices for --store (default MLVC_DEVICES or 1)", "-")
      .option("stripe",
              "stripe unit bytes for --store, e.g. 128K (default "
              "MLVC_STRIPE_UNIT or 128K)",
              "-")
      .option("format",
              "on-disk format for --store: v1 | v2 (default MLVC_FORMAT or v2)",
              "-")
      .option("transpose",
              "also store the in-edge CSR for pull execution (--store): "
              "1 | 0",
              "1");
  try {
    args.parse(argc, argv);
  } catch (const Error& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  try {
    env::pin_flags(args);  // --devices, --stripe, --format beat env
    const std::string type = args.get_string("type", "rmat");
    const auto scale = static_cast<unsigned>(args.get_int("scale", 16));
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    graph::EdgeList list;
    if (type == "rmat") {
      graph::RmatParams p;
      p.scale = scale;
      p.edge_factor = args.get_double("edge-factor", 16);
      p.seed = seed;
      list = graph::generate_rmat(p);
    } else if (type == "er") {
      const auto n = static_cast<VertexId>(args.get_int("vertices", 65536));
      const auto m = static_cast<std::uint64_t>(
          args.get_double("edge-factor", 16) * n);
      list = graph::generate_erdos_renyi(n, m, seed);
    } else if (type == "grid") {
      list = graph::generate_grid(
          static_cast<VertexId>(args.get_int("width", 256)),
          static_cast<VertexId>(args.get_int("height", 256)));
    } else if (type == "star") {
      list = graph::generate_star(
          static_cast<VertexId>(args.get_int("vertices", 65536)));
    } else if (type == "chain") {
      list = graph::generate_chain(
          static_cast<VertexId>(args.get_int("vertices", 65536)));
    } else if (type == "cf") {
      list = graph::make_cf_like(scale, seed);
    } else if (type == "yws") {
      list = graph::make_yws_like(scale, seed);
    } else {
      std::cerr << "unknown --type '" << type << "'\n" << args.usage();
      return 2;
    }

    const auto csr = graph::CsrGraph::from_edge_list(list);
    graph::save_csr(csr, args.get_string("out"));
    std::cout << "wrote " << args.get_string("out") << ": "
              << graph::compute_stats(csr).to_string() << "\n";

    // Optional stored-CSR materialization, striped when --devices > 1, so
    // a striped store can be staged once and reused across runs (and the
    // striping path is exercised straight from the CLI).
    const std::string store_dir = args.get_string("store", "-");
    if (store_dir != "-") {
      const OnDiskFormat format =
          core::apply_env_overrides(core::EngineOptions{}).on_disk_format;
      ssd::Storage storage{std::filesystem::path(store_dir)};
      const auto in_degrees = csr.in_degrees();
      const auto intervals = graph::VertexIntervals::partition_by_in_degree(
          in_degrees, sizeof(multilog::Record<float>),
          core::EngineOptions{}.sort_budget());
      const bool transpose = args.get_int("transpose", 1) != 0;
      graph::StoredCsrGraph stored(storage, "g", csr, intervals,
                                   {.with_weights = false,
                                    .format = format,
                                    .with_transpose = transpose});
      std::cout << "wrote store " << store_dir << " ("
                << to_string(stored.format()) << ", "
                << storage.num_devices() << " device"
                << (storage.num_devices() == 1 ? "" : "s")
                << (stored.has_transpose() ? ", +transpose" : "") << ")\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
