// Figure 9 — edge-log optimizer prediction accuracy.
//
// The paper reports the percentage of inefficiently used pages (>0% and
// <10% utilization) correctly predicted by the history-based scheme —
// on average 34%, lower for fast-converging CDLP/GC, higher for the
// longer-tailed applications. We report the same recall from the
// PageUtilTracker's superstep summaries, aggregated over each run.
#include "apps/bfs.hpp"
#include "apps/cdlp.hpp"
#include "apps/coloring.hpp"
#include "apps/mis.hpp"
#include "apps/pagerank.hpp"
#include "apps/random_walk.hpp"
#include "bench/harness/bench_common.hpp"
#include "common/format.hpp"

namespace mlvc::bench {
namespace {

template <core::VertexApp App>
void measure(const Dataset& data, App app, metrics::Table& table) {
  const ScaledConfig cfg{.memory_budget = 1_MiB, .max_supersteps = 15};
  const auto totals = run_mlvc(data, app, cfg).totals();
  const std::uint64_t inefficient = totals.pages_inefficient;
  const std::uint64_t predicted = totals.pages_inefficient_predicted;
  table.add_row(
      {data.name, app.name(), std::to_string(inefficient),
       std::to_string(predicted),
       format_fixed(inefficient ? 100.0 * predicted / inefficient : 0.0, 1),
       std::to_string(totals.edge_log_hits)});
}

void run() {
  print_header("Figure 9: predicted inefficient pages",
               "history-based prediction catches ~34% of inefficiently "
               "used pages on average; less on fast-converging CDLP/GC");
  metrics::Table table({"dataset", "app", "inefficient_pages",
                        "predicted_correctly", "recall_%", "edge_log_hits"});
  for (const auto& data : {make_cf(), make_yws()}) {
    measure(data, apps::Bfs{.source = 0}, table);
    measure(data, apps::PageRank{}, table);
    measure(data, apps::Cdlp{}, table);
    measure(data, apps::GraphColoring{}, table);
    measure(data, apps::Mis{}, table);
    measure(data, apps::RandomWalk{.source_stride = 100}, table);
  }
  table.print();
  table.write_csv(metrics::csv_dir_from_env(), "fig9_predictor");
}

}  // namespace
}  // namespace mlvc::bench

int main() {
  mlvc::bench::run();
  return 0;
}
