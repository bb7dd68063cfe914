// Multi-device striping sweep: devices {1, 2, 4}, measuring the modeled
// aggregate bandwidth of the log-load pattern — large reads over a striped
// message-log blob, the hot path striping exists for — and whole-engine
// PageRank time. Emits BENCH_stripe.json with one run entry per metric,
// the same {metric, v1, v2, ratio, enforced} shape bench_compress uses,
// consumed by check_bench_regression.py --suite stripe.
//
// Gate (exit 1 on failure): modeled aggregate log-load bandwidth at 4
// devices must be >= MLVC_BENCH_STRIPE_MIN_SPEEDUP x the single-device
// bandwidth (default 1.6): striping must actually buy parallelism.
// Whole-engine modeled time is reported but NOT gated: PageRank also
// issues many sub-stripe-unit scattered reads, where each striped call
// still pays a full-cost first page per touched device, so the engine
// total under-states the log-path win (and can even invert at small
// scales) — the per-metric rows make both effects visible.
//
//   bench_stripe [out.json]
//
// Environment: the MLVC_BENCH_STRIPE_* rows of common/env.hpp.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "apps/pagerank.hpp"
#include "common/env.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "ssd/storage.hpp"

namespace mlvc::bench {
namespace {

struct RunResult {
  double modeled_seconds = 0;
  double wall_seconds = 0;
};

template <typename App>
RunResult run_one(const graph::CsrGraph& csr, unsigned devices,
                  unsigned max_supersteps) {
  ssd::TempDir dir("mlvc_bench_stripe");
  ssd::DeviceConfig device;
  device.page_size = 4_KiB;
  device.num_devices = devices;
  ssd::Storage storage(dir.path(), device);

  core::EngineOptions opts;
  opts.memory_budget_bytes = 8_MiB;
  opts.max_supersteps = max_supersteps;

  graph::StoredCsrGraph stored(storage, "g", csr,
                               core::partition_for_app<App>(csr, opts));
  core::MultiLogVCEngine<App> engine(stored, App{}, opts);
  const auto stats = engine.run();

  RunResult r;
  r.modeled_seconds = stats.modeled_total_seconds();
  r.wall_seconds = stats.total_wall_seconds();
  return r;
}

/// Modeled seconds to stream a message-log-sized blob back in 1 MiB
/// reads — the interval log-load pattern. Deterministic (pure device
/// model); the striped layout spreads the pages over num_devices x the
/// channel groups and amortizes the full-cost first page per device.
double modeled_log_load_seconds(unsigned devices) {
  ssd::TempDir dir("mlvc_bench_stripe");
  ssd::DeviceConfig device;
  device.page_size = 4_KiB;
  device.num_devices = devices;
  ssd::Storage storage(dir.path(), device);
  ssd::Blob& blob =
      storage.create_blob("log", ssd::IoCategory::kMessageLog);

  constexpr std::size_t kTotal = 16 * 1024 * 1024;
  constexpr std::size_t kChunk = 1024 * 1024;
  std::vector<char> buf(kChunk, 0x5a);
  for (std::size_t off = 0; off < kTotal; off += kChunk) {
    blob.write(off, buf.data(), buf.size());
  }
  const auto before = storage.device().snapshot();
  for (std::size_t off = 0; off < kTotal; off += kChunk) {
    blob.read(off, buf.data(), buf.size());
  }
  return storage.device().modeled_seconds_between(before,
                                                  storage.device().snapshot());
}

int run(const std::string& out_path) {
  // The bench pins its own layout; a CI matrix leg exporting MLVC_DEVICES
  // must not skew the sweep's single-device baseline.
  env::set(env::kDevices, nullptr);
  env::set(env::kStripeUnit, nullptr);

  graph::RmatParams params;
  params.scale = env::get_unsigned(env::kBenchStripeScale).value_or(12);
  params.edge_factor =
      env::get_double(env::kBenchStripeEdgeFactor).value_or(8);
  params.seed = 7;
  const auto csr =
      graph::CsrGraph::from_edge_list(graph::generate_rmat(params));
  std::cout << "R-MAT scale " << params.scale << ": " << csr.num_vertices()
            << " vertices, " << csr.num_edges() << " edges\n";

  // Log-load bandwidth scaling: the same byte stream over 1/2/4 devices.
  // The traffic is identical across the sweep, so the modeled-seconds
  // ratio IS the aggregate-bandwidth ratio.
  const double ll1 = modeled_log_load_seconds(1);
  const double ll2 = modeled_log_load_seconds(2);
  const double ll4 = modeled_log_load_seconds(4);

  // Whole-engine modeled time (reported, not gated — see header).
  const auto pr1 = run_one<apps::PageRank>(csr, 1, 10);
  const auto pr2 = run_one<apps::PageRank>(csr, 2, 10);
  const auto pr4 = run_one<apps::PageRank>(csr, 4, 10);

  // metric, v1 (single-device config), v2 (striped config), ratio v1/v2 —
  // higher is better: modeled-seconds rows read as bandwidth speedup.
  struct Row {
    const char* metric;
    double v1, v2;
    bool enforced;
  };
  const std::vector<Row> rows = {
      {"log_load_modeled_seconds_1v4_devices", ll1, ll4, true},
      {"log_load_modeled_seconds_1v2_devices", ll1, ll2, false},
      {"pagerank_modeled_seconds_1v4_devices", pr1.modeled_seconds,
       pr4.modeled_seconds, false},
      {"pagerank_modeled_seconds_1v2_devices", pr1.modeled_seconds,
       pr2.modeled_seconds, false},
      {"pagerank_wall_seconds_1v4_devices", pr1.wall_seconds,
       pr4.wall_seconds, false},
  };

  std::ofstream out(out_path);
  out << "{\"suite\":\"stripe\",\"scale\":" << params.scale
      << ",\"edges\":" << csr.num_edges() << ",\"runs\":[";
  bool first = true;
  for (const auto& row : rows) {
    const double ratio = row.v2 > 0 ? row.v1 / row.v2 : 0;
    if (!first) out << ',';
    first = false;
    out << "{\"metric\":\"" << row.metric << "\",\"v1\":" << row.v1
        << ",\"v2\":" << row.v2 << ",\"ratio\":" << ratio
        << ",\"enforced\":" << (row.enforced ? "true" : "false") << '}';
    std::cout << row.metric << ": " << row.v1 << " -> " << row.v2 << " ("
              << ratio << "x)" << (row.enforced ? "" : "  [not enforced]")
              << "\n";
  }
  out << "]}\n";
  std::cout << "wrote " << out_path << "\n";

  int rc = 0;
  const double min_speedup =
      env::get_double(env::kBenchStripeMinSpeedup).value_or(1.6);
  const double speedup = ll4 > 0 ? ll1 / ll4 : 0;
  if (speedup < min_speedup) {
    std::cerr << "FAIL: 4-device modeled log-load bandwidth speedup "
              << speedup << "x below the " << min_speedup << "x floor\n";
    rc = 1;
  }
  return rc;
}

}  // namespace
}  // namespace mlvc::bench

int main(int argc, char** argv) {
  return mlvc::bench::run(argc > 1 ? argv[1] : "BENCH_stripe.json");
}
