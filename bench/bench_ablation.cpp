// Ablation study over MultiLogVC's design choices (DESIGN.md §4):
//   - edge-log optimizer on/off (§V.C),
//   - interval fusion on/off (§V.A.2),
//   - combine optimization on/off for combinable apps (§V.D),
//   - predictor history depth N ∈ {0, 1, 2, 4},
//   - pipelined superstep execution on/off, plus single-I/O-thread (§VI).
// Each row reports modeled time and pages relative to the full default
// configuration, on BFS (frontier workload) and CDLP (all-message workload).
#include "apps/bfs.hpp"
#include "apps/cdlp.hpp"
#include "apps/mis.hpp"
#include "bench/harness/bench_common.hpp"
#include "common/format.hpp"

namespace mlvc::bench {
namespace {

template <core::VertexApp App>
void ablate(const Dataset& data, App app, metrics::Table& table) {
  const ScaledConfig cfg{.memory_budget = 1_MiB, .max_supersteps = 15};

  struct Variant {
    const char* name;
    std::function<void(core::EngineOptions&)> tweak;
  };
  const Variant variants[] = {
      {"default", [](core::EngineOptions&) {}},
      {"no_edge_log",
       [](core::EngineOptions& o) { o.enable_edge_log = false; }},
      {"no_fusion",
       [](core::EngineOptions& o) { o.enable_interval_fusion = false; }},
      {"no_combine", [](core::EngineOptions& o) { o.enable_combine = false; }},
      {"predictor_N0",
       [](core::EngineOptions& o) { o.predictor_history = 0; }},
      {"predictor_N2",
       [](core::EngineOptions& o) { o.predictor_history = 2; }},
      {"predictor_N4",
       [](core::EngineOptions& o) { o.predictor_history = 4; }},
      {"no_pipeline", [](core::EngineOptions& o) { o.io_threads = 0; }},
      {"pipeline_1io", [](core::EngineOptions& o) { o.io_threads = 1; }},
      // §V.B ablation: force the pre-scatter decode + comparison-sort path.
      // Page counts and final values must be identical to the default
      // (counting scatter); only host sort/group time may differ.
      {"comparison_sort",
       [](core::EngineOptions& o) {
         o.sort_group_path = SortGroupPath::kComparisonSort;
       }},
  };

  double base_time = 0;
  std::uint64_t base_pages = 0;
  for (const Variant& variant : variants) {
    core::EngineOptions opts;
    opts.memory_budget_bytes = cfg.memory_budget;
    opts.max_supersteps = cfg.max_supersteps;
    variant.tweak(opts);
    std::uint64_t values_hash = 0;
    const auto stats =
        run_mlvc(data, app, cfg, always_continue, &opts, &values_hash);
    const double t = stats.modeled_total_seconds();
    const std::uint64_t pages = stats.total_pages();
    if (std::string(variant.name) == "default") {
      base_time = t;
      base_pages = pages;
    }
    table.add_row({data.name, app.name(), variant.name, format_fixed(t, 3),
                   std::to_string(pages),
                   format_fixed(base_time > 0 ? t / base_time : 0.0, 3),
                   format_fixed(base_pages > 0
                                    ? static_cast<double>(pages) / base_pages
                                    : 0.0,
                                3),
                   format_fixed(stats.total_wall_seconds(), 3),
                   format_fixed(stats.io_wait_seconds(), 3),
                   format_fixed(stats.sort_group_seconds(), 3),
                   std::to_string(stats.groups_scatter()) + "/" +
                       std::to_string(stats.groups_comparison()),
                   format_hex(values_hash)});
  }
}

void run() {
  print_header("Ablation: MultiLogVC design choices",
               "edge log (§V.C), interval fusion (§V.A.2), combine (§V.D), "
               "predictor depth N (paper: N=1 'proved effective'), "
               "sort-and-group path (§V.B counting scatter vs comparison)");
  metrics::Table table({"dataset", "app", "variant", "modeled_s", "pages",
                        "time_vs_default", "pages_vs_default", "wall_s",
                        "io_wait_s", "sortgrp_s", "grp_scat/cmp",
                        "values_hash"});
  for (const auto& data : {make_cf(), make_yws()}) {
    ablate(data, apps::Bfs{.source = 0}, table);
    ablate(data, apps::Cdlp{}, table);
    // MIS has the recurring-activity pattern (undecided vertices re-run
    // every round) that the edge-log optimizer and predictor target.
    ablate(data, apps::Mis{}, table);
  }
  table.print();
  table.write_csv(metrics::csv_dir_from_env(), "ablation");
}

}  // namespace
}  // namespace mlvc::bench

int main() {
  mlvc::bench::run();
  return 0;
}
