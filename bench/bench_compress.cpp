// On-disk format v1 vs v2 compression sweep: one BFS run per format over
// the same R-MAT graph, measuring per-layer on-disk traffic (bytes/edge for
// adjacency and message logs) plus static adjacency size and modeled time.
// Emits BENCH_compress.json with one run entry per metric.
//
// Gates (exit 1 on failure):
//   - v2 modeled total time must be <= MLVC_BENCH_COMPRESS_MAX_SLOWDOWN x
//     the v1 time (default 1.10): compression must not buy bytes with time.
// The compression-ratio floor itself (>= 2x on adjacency and message-log
// traffic) is enforced by check_bench_regression.py --suite compress so CI
// also catches drift against the committed baseline.
//
//   bench_compress [out.json]
//
// Environment: the MLVC_BENCH_COMPRESS_* rows of common/env.hpp. Byte
// metrics are deterministic; time gates use the minimum across repetitions
// to shed scheduler noise.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "apps/bfs.hpp"
#include "common/env.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "ssd/storage.hpp"

namespace mlvc::bench {
namespace {

struct FormatResult {
  double adjacency_traffic = 0;   // on-disk adjacency bytes moved / edge
  double message_log_traffic = 0; // on-disk log bytes moved / edge
  double adjacency_stored = 0;    // static stored adjacency bytes / edge
  double modeled_total_seconds = 0;
  double wall_seconds = 0;
};

FormatResult run_format(const graph::CsrGraph& csr, OnDiskFormat format) {
  ssd::TempDir dir("mlvc_bench_compress");
  ssd::DeviceConfig device;
  device.page_size = 4_KiB;
  ssd::Storage storage(dir.path(), device);

  core::EngineOptions opts;
  opts.memory_budget_bytes = 8_MiB;
  opts.max_supersteps = 20;
  opts.on_disk_format = format;

  // Highest-degree source: reaches the giant component, so every superstep
  // pushes real message volume through the logs.
  VertexId source = 0;
  for (VertexId v = 1; v < csr.num_vertices(); ++v) {
    if (csr.out_degree(v) > csr.out_degree(source)) source = v;
  }

  graph::StoredCsrGraph stored(storage, "g", csr,
                               core::partition_for_app<apps::Bfs>(csr, opts),
                               {.format = format});
  core::MultiLogVCEngine<apps::Bfs> engine(stored, apps::Bfs{.source = source},
                                           opts);
  const auto stats = engine.run();

  const double edges = static_cast<double>(csr.num_edges());
  const auto adj = stats.category_bytes(ssd::IoCategory::kCsrColIdx);
  const auto log = stats.category_bytes(ssd::IoCategory::kMessageLog);
  std::uint64_t stored_adj = 0;
  for (IntervalId i = 0; i < stored.intervals().count(); ++i) {
    stored_adj += stored.adjacency_stored_bytes(i);
  }

  FormatResult r;
  r.adjacency_traffic =
      static_cast<double>(adj.bytes_read + adj.bytes_written) / edges;
  r.message_log_traffic =
      static_cast<double>(log.bytes_read + log.bytes_written) / edges;
  r.adjacency_stored = static_cast<double>(stored_adj) / edges;
  r.modeled_total_seconds = stats.modeled_total_seconds();
  r.wall_seconds = stats.total_wall_seconds();
  return r;
}

int run(const std::string& out_path) {
  graph::RmatParams params;
  params.scale = env::get_unsigned(env::kBenchCompressScale).value_or(13);
  params.edge_factor =
      env::get_double(env::kBenchCompressEdgeFactor).value_or(8);
  params.seed = 7;
  const auto csr =
      graph::CsrGraph::from_edge_list(graph::generate_rmat(params));
  std::cout << "R-MAT scale " << params.scale << ": " << csr.num_vertices()
            << " vertices, " << csr.num_edges() << " edges\n";

  const int reps = static_cast<int>(
      env::get_unsigned(env::kBenchCompressReps).value_or(3));
  const auto best_of = [&](OnDiskFormat format) {
    FormatResult best = run_format(csr, format);
    for (int rep = 1; rep < reps; ++rep) {
      const auto r = run_format(csr, format);
      best.modeled_total_seconds =
          std::min(best.modeled_total_seconds, r.modeled_total_seconds);
      best.wall_seconds = std::min(best.wall_seconds, r.wall_seconds);
    }
    return best;
  };
  const auto v1 = best_of(OnDiskFormat::kV1);
  const auto v2 = best_of(OnDiskFormat::kV2);

  // metric, v1 value, v2 value, ratio (v1/v2 — higher is better for byte
  // metrics), enforced by the --suite compress geomean gate.
  struct Row {
    const char* metric;
    double v1, v2;
    bool enforced;
  };
  // Enforced metrics are the acceptance criteria: static adjacency bytes per
  // edge (the on-disk footprint) and message-log traffic per edge (logs are
  // transient, so the bytes moved ARE their on-disk size). The adjacency
  // *traffic* ratio is reported but not gated — small random batch reads pay
  // block-granularity decode overhead that shrinks with scale.
  const std::vector<Row> rows = {
      {"adjacency_stored_bytes_per_edge", v1.adjacency_stored,
       v2.adjacency_stored, true},
      {"message_log_traffic_bytes_per_edge", v1.message_log_traffic,
       v2.message_log_traffic, true},
      {"adjacency_traffic_bytes_per_edge", v1.adjacency_traffic,
       v2.adjacency_traffic, false},
      {"modeled_total_seconds", v1.modeled_total_seconds,
       v2.modeled_total_seconds, false},
      {"wall_seconds", v1.wall_seconds, v2.wall_seconds, false},
  };

  std::ofstream out(out_path);
  out << "{\"suite\":\"compress\",\"scale\":" << params.scale
      << ",\"edges\":" << csr.num_edges() << ",\"runs\":[";
  bool first = true;
  for (const auto& row : rows) {
    const double ratio = row.v2 > 0 ? row.v1 / row.v2 : 0;
    if (!first) out << ',';
    first = false;
    out << "{\"metric\":\"" << row.metric << "\",\"v1\":" << row.v1
        << ",\"v2\":" << row.v2 << ",\"ratio\":" << ratio
        << ",\"enforced\":" << (row.enforced ? "true" : "false") << '}';
    std::cout << row.metric << ": v1 " << row.v1 << ", v2 " << row.v2 << " ("
              << ratio << "x)" << (row.enforced ? "" : "  [not enforced]")
              << "\n";
  }
  out << "]}\n";
  std::cout << "wrote " << out_path << "\n";

  const double max_slowdown =
      env::get_double(env::kBenchCompressMaxSlowdown).value_or(1.10);
  if (v2.modeled_total_seconds > v1.modeled_total_seconds * max_slowdown) {
    std::cerr << "FAIL: v2 modeled time " << v2.modeled_total_seconds
              << "s exceeds " << max_slowdown << "x the v1 time "
              << v1.modeled_total_seconds << "s\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace mlvc::bench

int main(int argc, char** argv) {
  return mlvc::bench::run(argc > 1 ? argv[1] : "BENCH_compress.json");
}
