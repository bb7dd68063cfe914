// BSP vs asynchronous interval-scheduled execution: delta-convergent
// PageRank over skewed R-MAT graphs, comparing the paper's barrier wave
// against the IntervalScheduler's async chains under each priority policy
// (fifo | hub-degree | log-bytes). Emits BENCH_async.json with one run
// entry per (scale, policy, metric); ratios are bsp/async, so higher means
// the scheduler won.
//
// Gates (exit 1 on failure), both on the scale-LARGE hub-degree config —
// the ISSUE acceptance pair:
//   - effective rounds: async must converge in fewer supersteps than BSP
//     (ratio >= MLVC_BENCH_ASYNC_MIN_ROUNDS_RATIO, default 1.01);
//   - modeled total time: same-wave delivery must not buy rounds with
//     modeled time (ratio >= MLVC_BENCH_ASYNC_MIN_RATIO, default 1.0).
// CI additionally gates drift against the committed baseline via
// check_bench_regression.py --suite async.
//
//   bench_async [out.json]
//
// Environment: the MLVC_BENCH_ASYNC_* rows of common/env.hpp. Round counts
// are deterministic; time gates use the minimum across repetitions.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "apps/pagerank_delta.hpp"
#include "common/env.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "ssd/storage.hpp"

namespace mlvc::bench {
namespace {

struct RunResult {
  std::uint64_t effective_rounds = 0;
  std::uint64_t intervals_scheduled = 0;
  double modeled_total_seconds = 0;
  double wall_seconds = 0;
};

core::EngineOptions bench_options(SchedulePolicy policy) {
  core::EngineOptions opts;
  // Tight budget so the graph splits into enough intervals for ordering to
  // matter; the generation swap and sort budget behave as in a real
  // out-of-core run.
  opts.memory_budget_bytes = 4_MiB;
  opts.max_supersteps = 50;
  opts.schedule_policy = policy;
  if (policy != SchedulePolicy::kBsp) {
    opts.model = core::ComputationModel::kAsynchronous;
  }
  return opts;
}

RunResult run_policy(const graph::CsrGraph& csr, SchedulePolicy policy) {
  ssd::TempDir dir("mlvc_bench_async");
  ssd::DeviceConfig device;
  device.page_size = 4_KiB;
  ssd::Storage storage(dir.path(), device);

  const auto opts = bench_options(policy);
  graph::StoredCsrGraph stored(
      storage, "g", csr,
      core::partition_for_app<apps::PageRankDelta>(csr, opts), {});
  core::MultiLogVCEngine<apps::PageRankDelta> engine(stored,
                                                     apps::PageRankDelta{},
                                                     opts);
  const auto stats = engine.run();

  RunResult r;
  r.effective_rounds = stats.effective_rounds();
  r.intervals_scheduled = stats.intervals_scheduled();
  // Thread-placement-invariant modeled wall time (stats.hpp): modeled
  // device time + every CPU second wherever the pipeline scheduled it.
  // modeled_total_seconds() would charge the scheduled-async redelivery
  // sorts (serial, on the critical path) but not the BSP prefetch sorts
  // (hidden on I/O threads) — an accounting asymmetry, not a real cost
  // difference.
  r.modeled_total_seconds = stats.modeled_work_seconds();
  r.wall_seconds = stats.total_wall_seconds();
  return r;
}

struct PolicyLabel {
  SchedulePolicy policy;
  const char* label;  // metric-name form (underscores)
};

int run(const std::string& out_path) {
  const unsigned scale_small =
      env::get_unsigned(env::kBenchAsyncScaleSmall).value_or(13);
  const unsigned scale_large =
      env::get_unsigned(env::kBenchAsyncScaleLarge).value_or(15);
  const double edge_factor =
      env::get_double(env::kBenchAsyncEdgeFactor).value_or(8);
  const int reps = static_cast<int>(
      env::get_unsigned(env::kBenchAsyncReps).value_or(2));

  const PolicyLabel kPolicies[] = {
      {SchedulePolicy::kFifo, "fifo"},
      {SchedulePolicy::kHubDegree, "hub_degree"},
      {SchedulePolicy::kLogBytes, "log_bytes"},
  };

  struct Row {
    std::string metric;
    double bsp, async;
    bool enforced;
  };
  std::vector<Row> rows;
  double gate_rounds_ratio = 0;
  double gate_modeled_ratio = 0;

  std::ofstream out(out_path);
  out << "{\"suite\":\"async\",\"runs\":[";
  bool first = true;

  for (const unsigned scale : {scale_small, scale_large}) {
    graph::RmatParams params;
    params.scale = scale;
    params.edge_factor = edge_factor;
    params.seed = 7;
    const auto csr =
        graph::CsrGraph::from_edge_list(graph::generate_rmat(params));
    std::cout << "R-MAT scale " << scale << ": " << csr.num_vertices()
              << " vertices, " << csr.num_edges() << " edges\n";

    const auto best_of = [&](SchedulePolicy policy) {
      RunResult best = run_policy(csr, policy);
      for (int rep = 1; rep < reps; ++rep) {
        const auto r = run_policy(csr, policy);
        best.modeled_total_seconds =
            std::min(best.modeled_total_seconds, r.modeled_total_seconds);
        best.wall_seconds = std::min(best.wall_seconds, r.wall_seconds);
      }
      return best;
    };
    const RunResult bsp = best_of(SchedulePolicy::kBsp);
    std::cout << "  bsp: " << bsp.effective_rounds << " rounds, modeled "
              << bsp.modeled_total_seconds << "s\n";

    for (const auto& p : kPolicies) {
      const RunResult async = best_of(p.policy);
      std::cout << "  async/" << to_string(p.policy) << ": "
                << async.effective_rounds << " rounds, "
                << async.intervals_scheduled << " chains, modeled "
                << async.modeled_total_seconds << "s\n";
      const std::string prefix =
          "s" + std::to_string(scale) + "_" + p.label + "_";
      // The acceptance pair from the ISSUE: on the skewed large input,
      // hub-degree must cut both effective rounds and modeled time.
      const bool enforced = scale == scale_large &&
                            p.policy == SchedulePolicy::kHubDegree;
      rows.push_back({prefix + "effective_rounds",
                      static_cast<double>(bsp.effective_rounds),
                      static_cast<double>(async.effective_rounds), enforced});
      rows.push_back({prefix + "modeled_seconds", bsp.modeled_total_seconds,
                      async.modeled_total_seconds, enforced});
      rows.push_back({prefix + "wall_seconds", bsp.wall_seconds,
                      async.wall_seconds, false});
      if (enforced) {
        gate_rounds_ratio = async.effective_rounds > 0
                                ? static_cast<double>(bsp.effective_rounds) /
                                      static_cast<double>(
                                          async.effective_rounds)
                                : 0;
        gate_modeled_ratio =
            async.modeled_total_seconds > 0
                ? bsp.modeled_total_seconds / async.modeled_total_seconds
                : 0;
      }
    }
  }

  for (const auto& row : rows) {
    const double ratio = row.async > 0 ? row.bsp / row.async : 0;
    if (!first) out << ',';
    first = false;
    out << "{\"metric\":\"" << row.metric << "\",\"bsp\":" << row.bsp
        << ",\"async\":" << row.async << ",\"ratio\":" << ratio
        << ",\"enforced\":" << (row.enforced ? "true" : "false") << '}';
    std::cout << row.metric << ": bsp " << row.bsp << ", async " << row.async
              << " (" << ratio << "x)"
              << (row.enforced ? "" : "  [not enforced]") << "\n";
  }
  out << "]}\n";
  std::cout << "wrote " << out_path << "\n";

  const double min_rounds_ratio =
      env::get_double(env::kBenchAsyncMinRoundsRatio).value_or(1.01);
  const double min_ratio =
      env::get_double(env::kBenchAsyncMinRatio).value_or(1.0);
  int rc = 0;
  if (gate_rounds_ratio < min_rounds_ratio) {
    std::cerr << "FAIL: async hub-degree effective-rounds ratio "
              << gate_rounds_ratio << "x below the " << min_rounds_ratio
              << "x floor (async must converge in fewer rounds than BSP)\n";
    rc = 1;
  }
  if (gate_modeled_ratio < min_ratio) {
    std::cerr << "FAIL: async hub-degree modeled-time ratio "
              << gate_modeled_ratio << "x below the " << min_ratio
              << "x floor\n";
    rc = 1;
  }
  return rc;
}

}  // namespace
}  // namespace mlvc::bench

int main(int argc, char** argv) {
  return mlvc::bench::run(argc > 1 ? argv[1] : "BENCH_async.json");
}
