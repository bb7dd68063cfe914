// Shared infrastructure for the figure/table reproduction harnesses.
//
// Scaling (DESIGN.md §2): the paper runs 1 GB of host memory against
// ~40-100 GB graphs on a 16 KiB-page SSD. We scale all three together —
// synthetic graphs a few thousandths of the size, the budget shrunk to keep
// the memory:graph ratio, and 4 KiB model pages so page-count granularity
// scales too. The *ratios* the figures report (speedups, page-access
// ratios, time splits) are preserved; absolute seconds are not comparable
// and are not meant to be.
#pragma once

#include <functional>
#include <iostream>
#include <string>

#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "graph/graph_stats.hpp"
#include "graphchi/engine.hpp"
#include "grafboost/engine.hpp"
#include "metrics/json_export.hpp"
#include "metrics/report.hpp"

namespace mlvc::bench {

struct Dataset {
  std::string name;
  graph::CsrGraph csr;
};

/// CF' — com-friendster stand-in (denser power-law social graph).
inline Dataset make_cf(unsigned scale = 16) {
  return {"CF", graph::CsrGraph::from_edge_list(
                    graph::make_cf_like(scale, /*seed=*/42))};
}

/// YWS' — Yahoo WebScope stand-in (larger V, sparser, heavier skew).
inline Dataset make_yws(unsigned scale = 17) {
  return {"YWS", graph::CsrGraph::from_edge_list(
                     graph::make_yws_like(scale, /*seed=*/43))};
}

struct ScaledConfig {
  /// "1 GB" scaled to the synthetic graph size.
  std::size_t memory_budget = 1_MiB;
  Superstep max_supersteps = 15;
  std::size_t page_size = 4_KiB;
  unsigned channels = 8;
  std::uint64_t seed = 1;

  ssd::DeviceConfig device() const {
    ssd::DeviceConfig d;
    d.page_size = page_size;
    d.num_channels = channels;
    return d;
  }
};

using StepCallback = std::function<bool(const core::SuperstepStats&)>;

inline bool always_continue(const core::SuperstepStats&) { return true; }

template <core::VertexApp App>
core::RunStats run_mlvc(const Dataset& data, App app, const ScaledConfig& cfg,
                        const StepCallback& cb = always_continue,
                        core::EngineOptions* opts_out = nullptr,
                        std::uint64_t* values_hash = nullptr) {
  ssd::TempDir dir("mlvc_bench");
  ssd::Storage storage(dir.path(), cfg.device());
  core::EngineOptions opts;
  opts.memory_budget_bytes = cfg.memory_budget;
  opts.max_supersteps = cfg.max_supersteps;
  opts.seed = cfg.seed;
  if (opts_out != nullptr) opts = *opts_out;
  WallTimer build;
  auto intervals = core::partition_for_app<App>(data.csr, opts);
  graph::StoredCsrGraph stored(storage, "g", data.csr, intervals,
                               {.with_weights = App::kNeedsWeights});
  core::MultiLogVCEngine<App> engine(stored, app, opts);
  const double build_s = build.elapsed_seconds();
  auto stats = engine.run_with_callback(cb);
  stats.build_seconds = build_s;
  // FNV-1a of the final values, so ablation variants can assert identical
  // results in one table cell.
  if (values_hash != nullptr) {
    *values_hash = metrics::streamed_values_hash(engine);
  }
  return stats;
}

template <core::VertexApp App>
core::RunStats run_graphchi(const Dataset& data, App app,
                            const ScaledConfig& cfg,
                            const StepCallback& cb = always_continue) {
  ssd::TempDir dir("gc_bench");
  ssd::Storage storage(dir.path(), cfg.device());
  graphchi::GraphChiOptions opts;
  opts.memory_budget_bytes = cfg.memory_budget;
  opts.max_supersteps = cfg.max_supersteps;
  opts.seed = cfg.seed;
  WallTimer build;
  graphchi::GraphChiEngine<App> engine(storage, data.csr, app, opts);
  const double build_s = build.elapsed_seconds();
  auto stats = engine.run_with_callback(cb);
  stats.build_seconds = build_s;
  return stats;
}

template <core::VertexApp App>
core::RunStats run_grafboost(const Dataset& data, App app,
                             const ScaledConfig& cfg, bool use_combine,
                             const StepCallback& cb = always_continue) {
  ssd::TempDir dir("gb_bench");
  ssd::Storage storage(dir.path(), cfg.device());
  core::EngineOptions popts;
  popts.memory_budget_bytes = cfg.memory_budget;
  WallTimer build;
  auto intervals = core::partition_for_app<App>(data.csr, popts);
  graph::StoredCsrGraph stored(storage, "g", data.csr, intervals,
                               {.with_weights = App::kNeedsWeights});
  grafboost::GraFBoostOptions opts;
  opts.memory_budget_bytes = cfg.memory_budget;
  opts.max_supersteps = cfg.max_supersteps;
  opts.seed = cfg.seed;
  opts.use_combine = use_combine;
  grafboost::GraFBoostEngine<App> engine(stored, app, opts);
  const double build_s = build.elapsed_seconds();
  auto stats = engine.run_with_callback(cb);
  stats.build_seconds = build_s;
  return stats;
}

inline void print_header(const std::string& title, const std::string& paper) {
  std::cout << "\n=== " << title << " ===\n"
            << "paper reference: " << paper << "\n"
            << "(scaled reproduction: shapes/ratios comparable, absolute "
               "numbers are not — see DESIGN.md §2)\n\n";
}

}  // namespace mlvc::bench
