// Figure 3 — fraction of accessed graph pages with under 10% utilization.
//
// The paper measures, across each application's run, how many of the CSR
// adjacency pages that were fetched carried less than 10% useful bytes
// (read amplification; ~32% of pages on average). We aggregate the same
// counter from the MultiLogVC page-utilization tracker, with the edge-log
// optimizer disabled so the measurement reflects raw CSR accesses as in the
// paper's motivation section.
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
  ScaledConfig cfg{.memory_budget = 1_MiB, .max_supersteps = 15};
  core::EngineOptions opts;
  opts.memory_budget_bytes = cfg.memory_budget;
  opts.max_supersteps = cfg.max_supersteps;
  opts.enable_edge_log = false;  // raw CSR accesses, as in the paper's Fig 3
  const auto totals =
      run_mlvc(data, app, cfg, always_continue, &opts).totals();
  const std::uint64_t touched = totals.pages_touched;
  const std::uint64_t inefficient = totals.pages_inefficient;
  table.add_row(
      {data.name, app.name(), std::to_string(touched),
       std::to_string(inefficient),
       format_fixed(touched ? 100.0 * inefficient / touched : 0.0, 1)});
}

void run() {
  print_header("Figure 3: accessed graph pages with <10% utilization",
               "nearly 32% of accessed pages carry >0% and <10% useful "
               "data (average across applications)");
  metrics::Table table({"dataset", "app", "pages_touched",
                        "pages_under_10pct", "fraction_%"});
  for (const auto& data : {make_cf(), make_yws()}) {
    measure(data, apps::Bfs{.source = 0}, table);
    measure(data, apps::PageRank{}, table);
    measure(data, apps::Cdlp{}, table);
    measure(data, apps::GraphColoring{}, table);
    measure(data, apps::Mis{}, table);
    measure(data, apps::RandomWalk{.source_stride = 100}, table);
  }
  table.print();
  table.write_csv(metrics::csv_dir_from_env(), "fig3_page_util");
}

}  // namespace
}  // namespace mlvc::bench

int main() {
  mlvc::bench::run();
  return 0;
}
