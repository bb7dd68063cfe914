// mlvc_convert — graph format conversion and inspection.
//
// Text mode (SNAP edge list → binary MLVC file):
//   mlvc_convert --in com-friendster.txt --out cf.mlvc
//   mlvc_convert --in web.txt --out web.mlvc --directed
//
// Store mode (stored-CSR directory, on-disk format v1 <-> v2, restripe):
//   mlvc_convert --store run_dir --stats
//   mlvc_convert --store run_dir --out-store run_dir_v2 --format v2
//   mlvc_convert --store run_dir --out-store run_dir_x4 --devices 4
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <memory>

#include "common/args.hpp"
#include "common/env.hpp"
#include "graph/csr.hpp"
#include "graph/graph_stats.hpp"
#include "graph/serialization.hpp"
#include "graph/snap_loader.hpp"
#include "graph/stored_csr.hpp"
#include "ssd/storage.hpp"

namespace {

using namespace mlvc;

/// Read a stored graph back into an in-memory edge list (interval by
/// interval, preserving stored adjacency order).
graph::EdgeList read_back(graph::StoredCsrGraph& g) {
  graph::EdgeList list;
  list.set_num_vertices(g.num_vertices());
  list.reserve(g.num_edges());
  const auto& iv = g.intervals();
  std::vector<EdgeIndex> rowptr;
  std::vector<VertexId> adj;
  std::vector<float> val;
  for (IntervalId i = 0; i < iv.count(); ++i) {
    const VertexId width = iv.width(i);
    const EdgeIndex edges = g.interval_edge_count(i);
    rowptr.assign(width + 1, 0);
    g.read_local_row_ptrs(i, 0, rowptr.size(), rowptr);
    adj.assign(edges, 0);
    if (edges > 0) g.read_adjacency(i, 0, edges, adj);
    if (g.has_weights()) {
      val.assign(edges, 0.0f);
      if (edges > 0) g.read_values(i, 0, edges, val);
    }
    for (VertexId v = 0; v < width; ++v) {
      const VertexId src = iv.begin(i) + v;
      for (EdgeIndex e = rowptr[v]; e < rowptr[v + 1]; ++e) {
        list.add(src, adj[e], g.has_weights() ? val[e] : 1.0f);
      }
    }
  }
  return list;
}

/// Per-interval adjacency compression report: stored (physical) bytes vs
/// logical bytes (4 B per edge), so the v2 ratio is observable per interval.
void print_store_stats(graph::StoredCsrGraph& g) {
  const auto& iv = g.intervals();
  std::uint64_t total_stored = 0;
  std::cout << "format " << to_string(g.format()) << ", "
            << g.num_vertices() << " vertices, " << g.num_edges()
            << " edges, " << iv.count() << " intervals"
            << (g.has_weights() ? ", weighted" : "")
            << (g.has_transpose() ? ", +transpose" : ", no transpose")
            << "\n";
  std::cout << "interval  edges       stored_B    logical_B   ratio  B/edge\n";
  for (IntervalId i = 0; i < iv.count(); ++i) {
    const std::uint64_t stored = g.adjacency_stored_bytes(i);
    const std::uint64_t edges = g.interval_edge_count(i);
    const std::uint64_t logical = edges * sizeof(VertexId);
    total_stored += stored;
    std::cout << std::left << std::setw(10) << i << std::setw(12) << edges
              << std::setw(12) << stored << std::setw(12) << logical
              << std::setw(7) << std::setprecision(3)
              << (stored ? static_cast<double>(logical) /
                               static_cast<double>(stored)
                         : 0.0)
              << std::setprecision(3)
              << (edges ? static_cast<double>(stored) /
                              static_cast<double>(edges)
                        : 0.0)
              << "\n";
  }
  const std::uint64_t total_logical = g.num_edges() * sizeof(VertexId);
  std::cout << "total: " << total_stored << " stored / " << total_logical
            << " logical adjacency bytes";
  if (total_stored > 0 && g.num_edges() > 0) {
    std::cout << " (" << std::setprecision(3)
              << static_cast<double>(total_logical) /
                     static_cast<double>(total_stored)
              << "x, " << static_cast<double>(total_stored) /
                              static_cast<double>(g.num_edges())
              << " B/edge)";
  }
  std::cout << "\n";
}

int store_mode(const ArgParser& args) {
  const std::string dir = args.get_string("store");
  const std::string prefix = args.get_string("prefix", "g");
  ssd::Storage storage{std::filesystem::path(dir)};
  auto src = graph::StoredCsrGraph::open(storage, prefix);

  if (args.get_flag("stats")) {
    print_store_stats(*src);
    return 0;
  }

  const std::string out_dir = args.get_string("out-store", "-");
  if (out_dir == "-") {
    std::cerr << "store mode needs --stats or --out-store\n";
    return 2;
  }
  const OnDiskFormat format =
      env::get_enum<OnDiskFormat>(env::kFormat, parse_on_disk_format)
          .value_or(src->format());

  // Rebuild in memory and materialize under the new format with the same
  // interval boundaries, so engine runs over the converted store partition
  // identically.
  const auto list = read_back(*src);
  const auto csr = graph::CsrGraph::from_edge_list(list);
  // Restripe: the out-store is fresh, so it takes the device count and
  // stripe unit MLVC_DEVICES / MLVC_STRIPE_UNIT (or --devices / --stripe)
  // name. The source store's own layout comes from its manifest.
  ssd::Storage out_storage{std::filesystem::path(out_dir)};
  const bool transpose = args.get_int("transpose", 1) != 0;
  graph::StoredCsrGraph converted(out_storage, prefix, csr, src->intervals(),
                                  {.with_weights = src->has_weights(),
                                   .format = format,
                                   .with_transpose = transpose});
  std::cout << "wrote " << out_dir << " (" << to_string(src->format())
            << " -> " << to_string(format) << ", " << storage.num_devices()
            << " -> " << out_storage.num_devices() << " devices"
            << (converted.has_transpose() ? ", +transpose" : "") << "): "
            << converted.num_vertices() << " vertices, "
            << converted.num_edges() << " edges\n";
  print_store_stats(converted);
  return 0;
}

int text_mode(const ArgParser& args) {
  const std::string in = args.get_string("in", "-");
  const std::string out = args.get_string("out", "-");
  if (in == "-" || out == "-") {
    std::cerr << "text mode needs --in and --out (or use --store)\n";
    return 2;
  }
  graph::SnapLoadOptions opts;
  opts.make_undirected = !args.get_flag("directed");
  opts.compact_ids = !args.get_flag("no-compact");
  const auto list = graph::load_snap_edge_list(in, opts);
  const auto csr = graph::CsrGraph::from_edge_list(list);
  graph::save_csr(csr, out);
  std::cout << "wrote " << out << ": "
            << graph::compute_stats(csr).to_string() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mlvc;
  ArgParser args("mlvc_convert",
                 "convert graphs: SNAP text to binary MLVC, or a stored-CSR "
                 "directory between on-disk formats v1/v2");
  args.option("in", "input SNAP text file (src dst [weight] per line)", "-")
      .option("out", "output MLVC file", "-")
      .option("directed", "keep edges directed (default mirrors them)",
              "false")
      .option("no-compact", "keep original (possibly sparse) vertex ids",
              "false")
      .option("store", "stored-CSR storage directory to open", "-")
      .option("prefix", "stored graph name prefix inside the store", "g")
      .option("stats",
              "print per-interval adjacency compression stats and exit",
              "false")
      .option("out-store", "write a converted copy of --store here", "-")
      .option("format",
              "target on-disk format for --out-store: v1 | v2 "
              "(default MLVC_FORMAT, else the source's)",
              "-")
      .option("devices",
              "restripe --out-store across this many devices (default "
              "MLVC_DEVICES or 1)",
              "-")
      .option("stripe",
              "stripe unit bytes for --out-store, e.g. 128K (default "
              "MLVC_STRIPE_UNIT or 128K)",
              "-")
      .option("transpose",
              "store the in-edge CSR in --out-store for pull execution: "
              "1 | 0 (conversion is also how a v1-era store gains one)",
              "1");
  try {
    args.parse(argc, argv);
  } catch (const Error& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  try {
    env::pin_flags(args);  // --format, --devices, --stripe beat env
    if (args.get_string("store", "-") != "-") return store_mode(args);
    return text_mode(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
