// bench_e2e: the repository benchmark (bench/e2e/README.md).
//
// One process measures one workload end to end through the engine's public
// API. It generates the seeded input and the in-memory reference results
// first (untimed), runs one discarded warm-up repetition, then runs timed
// repetitions until --seconds have passed. Every repetition builds its store
// in a fresh TempDir/Storage, and every job's values are checked against
// tests/reference.hpp outside the timed spans.
//
// Output: one line per metric, "workload metric value unit n=<samples>", then
// as the last line one JSON object {correct, attempted, failed, metrics}.
// Without --trace the metrics are the end-to-end ones. With --trace FILE
// every other repetition records spans around each public call, the
// per-layer metrics are computed from those spans and the engine's counters,
// and the spans are written to FILE as Chrome trace-event JSON.
//
//   bench_e2e --workload NAME [--seed N] [--seconds S] [--trace FILE]
//             [--record FILE]
//   bench_e2e --smoke [--workload NAME] [--trace FILE]
//       every workload (or the one named) at scale 10 with one repetition,
//       two when traced
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <malloc.h>

#include "apps/bfs.hpp"
#include "apps/cdlp.hpp"
#include "apps/pagerank.hpp"
#include "apps/sssp.hpp"
#include "apps/wcc.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "core/runtime_context.hpp"
#include "graph/generators.hpp"
#include "graphchi/engine.hpp"
#include "metrics/json_export.hpp"
#include "tests/reference.hpp"

extern char** environ;

namespace mlvc::e2e {
namespace {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

double seconds(TimePoint begin, TimePoint end) {
  return std::chrono::duration<double>(end - begin).count();
}

// ---- sizes ------------------------------------------------------------------

/// Input scales, budgets and serving rates. The full sizes keep every batch
/// input at least 10x its memory budget; the smoke sizes only reach the code
/// paths.
struct Sizes {
  unsigned cf_scale;
  unsigned yws_scale;
  unsigned rmat_scale;
  std::size_t dense_budget;
  std::size_t bfs_budget;
  std::size_t ckpt_budget;
  std::size_t serve_budget;  // per query
  std::size_t serve_pool;    // BudgetArbiter pool: serve_pool / serve_budget
                             // queries are admitted at once
  std::size_t serve_cache;   // shared adjacency PageCache
  /// Offered open-loop rates (queries/s), about 40/65/90% of what the four
  /// workers sustain on the machine the rates were calibrated on (README).
  std::array<double, 3> serve_rates;
  /// p90 latency limit for serve.qps_at_slo.
  double serve_slo_ms;
  /// Queries per rate in one serving repetition.
  std::size_t queries_per_rate;
};

constexpr Sizes kFull{
    .cf_scale = 16,
    .yws_scale = 17,
    .rmat_scale = 14,
    .dense_budget = 512_KiB,
    .bfs_budget = 384_KiB,
    .ckpt_budget = 512_KiB,
    .serve_budget = 1_MiB,
    .serve_pool = 3_MiB,
    .serve_cache = 256_KiB,
    .serve_rates = {24, 39, 54},
    .serve_slo_ms = 1000,
    .queries_per_rate = 60,
};

constexpr Sizes kSmoke{
    .cf_scale = 10,
    .yws_scale = 10,
    .rmat_scale = 10,
    .dense_budget = 128_KiB,
    .bfs_budget = 128_KiB,
    .ckpt_budget = 128_KiB,
    .serve_budget = 128_KiB,
    .serve_pool = 384_KiB,
    .serve_cache = 64_KiB,
    .serve_rates = {200, 300, 400},
    .serve_slo_ms = 1000,
    .queries_per_rate = 10,
};

/// Superstep cap for the apps that run to convergence (BFS, WCC, SSSP): far
/// above any diameter here, so their values are the exact fixed point.
constexpr Superstep kConvergeCap = 1000;
/// The paper's cap for PageRank and CDLP (§VII).
constexpr Superstep kPaperCap = 15;
constexpr std::size_t kPageSize = 4_KiB;
constexpr int kMinReps = 3;
constexpr unsigned kServeWorkers = 4;
/// BFS jobs of sparse-bfs and SSSP jobs of converge-ckpt per repetition.
/// One source's reach varies with the seed; several average it out.
constexpr std::size_t kBfsSources = 8;
constexpr std::size_t kSsspSources = 8;
constexpr int kServeSetups = 7;

// ---- metrics ----------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
  bool per_layer;
};

/// Every metric the benchmark prints; BENCHMARK.json lists the same names and
/// units (run.py checks that they agree).
constexpr MetricDef kMetrics[] = {
    {"setup_s", "s", false},
    {"job_s", "s", false},
    {"modeled_s", "s", false},
    {"io_bytes_per_edge", "B", false},
    {"write_bytes_per_edge", "B", false},
    {"peak_rss_mb", "MiB", false},

    {"graph.partition_s", "s", true},
    {"graph.store_build_s", "s", true},
    {"graph.intervals", "count", true},
    {"graph.adj_read_bytes_per_edge", "B", true},
    {"graph.adj_compress_ratio", "ratio", true},
    {"ssd.pages_read", "count", true},
    {"ssd.pages_written", "count", true},
    {"ssd.modeled_storage_s", "s", true},
    {"ssd.read_bytes.message_log", "B", true},
    {"ssd.read_bytes.csr_col_idx", "B", true},
    {"ssd.read_bytes.vertex_value", "B", true},
    {"ssd.read_bytes.edge_log", "B", true},
    {"ssd.read_bytes.misc", "B", true},
    {"ssd.write_bytes.message_log", "B", true},
    {"ssd.write_bytes.csr_col_idx", "B", true},
    {"ssd.write_bytes.vertex_value", "B", true},
    {"ssd.write_bytes.edge_log", "B", true},
    {"ssd.write_bytes.misc", "B", true},
    {"ssd.io_retries", "count", true},
    {"ssd.io_giveups", "count", true},
    {"ssd.cache_hit_rate", "ratio", true},
    {"ssd.cache_evictions", "count", true},
    {"ssd.cache_bypass_pages", "count", true},
    {"multilog.sort_group_s", "s", true},
    {"multilog.offthread_sort_s", "s", true},
    {"multilog.scatter_stall_s", "s", true},
    {"multilog.scatter_flushes", "count", true},
    {"multilog.comparison_group_frac", "ratio", true},
    {"multilog.log_compress_ratio", "ratio", true},
    {"multilog.messages", "count", true},
    {"multilog.log_bytes_avoided", "B", true},
    {"multilog.edge_log_hits", "count", true},
    {"multilog.inefficient_page_frac", "ratio", true},
    {"multilog.predictor_recall", "ratio", true},
    {"core.engine_init_s", "s", true},
    {"core.superstep_s.p50", "s", true},
    {"core.superstep_s.max", "s", true},
    {"core.compute_s", "s", true},
    {"core.io_wait_s", "s", true},
    {"core.unaccounted_s", "s", true},
    {"core.supersteps", "count", true},
    {"core.edges_activated", "count", true},
    {"core.checkpoint_s", "s", true},
    {"core.intervals_scheduled", "count", true},
    {"core.ready_latency_s", "s", true},
    {"core.reorder_depth", "count", true},
    {"core.intervals_pulled", "count", true},
    {"core.direction_fallbacks", "count", true},
    {"runtime.queue_wait_ms.p50", "ms", true},
    {"runtime.queue_wait_ms.p90", "ms", true},
    {"runtime.admit_ms.p50", "ms", true},
    {"runtime.admit_ms.p90", "ms", true},
    {"runtime.run_ms.p50", "ms", true},
    {"runtime.run_ms.p90", "ms", true},
    {"runtime.dispatch_lag_ms.max", "ms", true},
    {"runtime.inflight_max", "count", true},
    {"serve.p50_ms", "ms", true},
    {"serve.p90_ms", "ms", true},
    {"serve.qps_at_slo", "1/s", true},
    {"metrics.readout_s", "s", true},
    {"ref.graphchi_job_s", "s", true},
    {"ref.speedup_vs_graphchi", "ratio", true},
    {"trace.overhead_frac", "ratio", true},
};

/// Metric name -> one value per repetition (or per query); the printed value
/// is their median and n their count.
using Samples = std::map<std::string, std::vector<double>>;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Peak resident set (VmHWM) since the last reset_peak_rss(), or since the
/// process started where the kernel refuses the reset.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

/// Returns freed heap to the kernel and lowers VmHWM to what is still
/// resident, so that each repetition reports its own peak over the same base
/// (the in-memory input and references stay resident and count).
void reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

// ---- tracing ----------------------------------------------------------------

struct Span {
  const char* name;
  TimePoint begin;
  TimePoint end;
  std::string job;
  int rep = 0;       // repetition; 0 for the traced-only comparator job
  long query = -1;   // serve query id
  unsigned tid = 0;  // 0 = main thread, k + 1 = serve worker k
};

/// Spans recorded on the benchmark's side of each public call into one
/// workload. Kept in memory and written once at exit.
class Tracer {
 public:
  explicit Tracer(std::string workload) : workload_(std::move(workload)) {}

  void add(Span span) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
  }

  std::vector<double> durations(std::string_view name, int rep) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const auto& s : spans_) {
      if (s.rep == rep && name == s.name) {
        out.push_back(seconds(s.begin, s.end));
      }
    }
    return out;
  }

  double total(std::string_view name, int rep) const {
    double t = 0;
    for (const double d : durations(name, rep)) t += d;
    return t;
  }

  /// Appends the spans as Chrome trace "complete" events of process `pid`.
  void write_events(std::ostream& out, TimePoint origin, int pid,
                    bool& first) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto micros = [&](TimePoint t) {
      return std::chrono::duration<double, std::micro>(t - origin).count();
    };
    for (const Span& s : spans_) {
      const std::string_view name = s.name;
      out << (first ? "\n" : ",\n") << "{\"name\":\"" << name
          << "\",\"cat\":\"" << name.substr(0, name.find('.'))
          << "\",\"ph\":\"X\",\"ts\":" << micros(s.begin)
          << ",\"dur\":" << micros(s.end) - micros(s.begin)
          << ",\"pid\":" << pid << ",\"tid\":" << s.tid
          << ",\"args\":{\"workload\":\"" << workload_ << "\",\"job\":\""
          << s.job << "\",\"rep\":" << s.rep << ",\"query\":" << s.query
          << "}}";
      first = false;
    }
  }

 private:
  const std::string workload_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Writes every workload's spans to `path` as Chrome trace-event JSON, one
/// trace process per workload.
void write_trace(const std::string& path,
                 const std::vector<std::unique_ptr<Tracer>>& tracers,
                 TimePoint origin) {
  std::ofstream out(path);
  out << std::fixed << std::setprecision(3)
      << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < tracers.size(); ++i) {
    tracers[i]->write_events(out, origin, static_cast<int>(i) + 1, first);
  }
  out << "\n]}\n";
  if (!out) throw Error("cannot write trace file " + path);
}

/// Where one repetition's spans go: nowhere when it is untraced.
struct Tracing {
  Tracer* tracer = nullptr;
  int rep = 0;

  void span(const char* name, TimePoint begin, TimePoint end,
            const std::string& job, long query = -1, unsigned tid = 0) const {
    if (tracer != nullptr) {
      tracer->add({name, begin, end, job, rep, query, tid});
    }
  }
};

// ---- storage traffic --------------------------------------------------------

struct IoTotals {
  std::array<std::uint64_t, ssd::kNumIoCategories> bytes_read{};
  std::array<std::uint64_t, ssd::kNumIoCategories> bytes_written{};
  std::array<std::uint64_t, ssd::kNumIoCategories> logical_written{};
  std::uint64_t pages_read = 0;
  std::uint64_t pages_written = 0;
  std::uint64_t retries = 0;
  std::uint64_t giveups = 0;

  void add(const ssd::IoStatsSnapshot& d) {
    for (unsigned c = 0; c < ssd::kNumIoCategories; ++c) {
      bytes_read[c] += d.categories[c].bytes_read;
      bytes_written[c] += d.categories[c].bytes_written;
      logical_written[c] += d.categories[c].logical_bytes_written;
    }
    pages_read += d.total_pages_read();
    pages_written += d.total_pages_written();
    retries += d.io_retry_count;
    giveups += d.io_giveup_count;
  }
  double read(ssd::IoCategory c) const {
    return static_cast<double>(bytes_read[static_cast<unsigned>(c)]);
  }
  double written(ssd::IoCategory c) const {
    return static_cast<double>(bytes_written[static_cast<unsigned>(c)]);
  }
  double total_read() const {
    double t = 0;
    for (const auto b : bytes_read) t += static_cast<double>(b);
    return t;
  }
  double total_written() const {
    double t = 0;
    for (const auto b : bytes_written) t += static_cast<double>(b);
    return t;
  }
};

// ---- one engine job ---------------------------------------------------------

template <core::VertexApp App>
struct JobRun {
  core::RunStats stats;
  std::vector<typename App::Value> values;
  ssd::IoStatsSnapshot io;  // the graph storage's traffic, run + read-out
  TimePoint begin, constructed, ran, read_out;
};

/// Construct, run and read out one engine, timing each public call from
/// outside. With `checkpoint` the callback saves "latest" after every
/// superstep, as a job that must survive a crash would.
template <core::VertexApp App, typename... EngineArgs>
JobRun<App> run_engine(const Tracing& tr, const std::string& job, long query,
                       unsigned tid, bool checkpoint, EngineArgs&&... args) {
  JobRun<App> r;
  r.begin = Clock::now();
  core::MultiLogVCEngine<App> engine(std::forward<EngineArgs>(args)...);
  r.constructed = Clock::now();
  tr.span("core.engine_init", r.begin, r.constructed, job, query, tid);
  const ssd::IoStats& io = engine.graph().storage().stats();
  const auto io_before = io.snapshot();
  // A superstep span runs from the previous callback's return to this
  // callback's entry, so checkpoint time is not in it.
  TimePoint step_begin = r.constructed;
  r.stats = engine.run_with_callback([&](const core::SuperstepStats&) {
    const TimePoint entry = Clock::now();
    tr.span("core.superstep", step_begin, entry, job, query, tid);
    if (checkpoint) {
      engine.save_checkpoint("latest");
      tr.span("core.checkpoint", entry, Clock::now(), job, query, tid);
    }
    step_begin = Clock::now();
    return true;
  });
  r.ran = Clock::now();
  tr.span("core.run", r.constructed, r.ran, job, query, tid);
  r.values.resize(engine.graph().num_vertices());
  engine.for_each_value_chunk([&](VertexId first, auto chunk) {
    std::copy(chunk.begin(), chunk.end(), r.values.begin() + first);
  });
  r.read_out = Clock::now();
  tr.span("metrics.readout", r.ran, r.read_out, job, query, tid);
  r.io = io.snapshot() - io_before;
  return r;
}

std::string job_config(const core::RunStats& s, const core::EngineOptions& o) {
  std::ostringstream j;
  j << "{\"app\":\"" << s.app << "\",\"engine\":\"" << s.engine
    << "\",\"io_backend\":\"" << s.io_backend << "\",\"schedule\":\""
    << s.schedule_policy << "\",\"model\":\""
    << (o.model == core::ComputationModel::kAsynchronous ? "async" : "sync")
    << "\",\"direction\":\"" << s.direction << "\",\"direction_fallback\":\""
    << s.direction_fallback << "\",\"combine\":\"" << s.combine_placement
    << "\",\"devices\":" << s.num_devices
    << ",\"format\":\"" << to_string(o.on_disk_format)
    << "\",\"memory_budget_bytes\":" << o.memory_budget_bytes
    << ",\"max_supersteps\":" << o.max_supersteps << "}";
  return j.str();
}

core::EngineOptions job_options(std::size_t budget, Superstep cap) {
  core::EngineOptions o;
  o.memory_budget_bytes = budget;
  o.max_supersteps = cap;
  o.io_backend = ssd::IoBackendKind::kThreadPool;
  o.on_disk_format = OnDiskFormat::kV2;
  return o;
}

ssd::DeviceConfig device() {
  ssd::DeviceConfig d;
  d.page_size = kPageSize;
  d.num_devices = 1;
  return d;
}

struct StoreFacts {
  IntervalId intervals = 0;
  double adj_compress_ratio = 0;  // raw u32 adjacency bytes / stored bytes
};

/// Partition and materialize `csr` (with its transpose) on `storage`.
template <core::VertexApp App>
std::unique_ptr<graph::StoredCsrGraph> build_store(
    const Tracing& tr, ssd::Storage& storage, const graph::CsrGraph& csr,
    const core::EngineOptions& opts, bool weighted, double& setup_s,
    StoreFacts& facts) {
  const TimePoint t0 = Clock::now();
  auto intervals = core::partition_for_app<App>(csr, opts);
  const TimePoint t1 = Clock::now();
  auto stored = std::make_unique<graph::StoredCsrGraph>(
      storage, "g", csr, std::move(intervals),
      graph::StoredCsrOptions{.with_weights = weighted});
  const TimePoint t2 = Clock::now();
  tr.span("graph.partition", t0, t1, "store");
  tr.span("graph.store_build", t1, t2, "store");
  setup_s += seconds(t0, t2);
  facts.intervals = stored->intervals().count();
  double adj_bytes = 0;
  for (IntervalId i = 0; i < facts.intervals; ++i) {
    adj_bytes += static_cast<double>(stored->adjacency_stored_bytes(i));
  }
  facts.adj_compress_ratio =
      ratio(static_cast<double>(csr.num_edges() * sizeof(VertexId)), adj_bytes);
  return stored;
}

// ---- verification -----------------------------------------------------------

/// PageRank: within 1e-3 relative. Exact comparison is wrong here because
/// the float fold order of a destination's deltas is not fixed.
bool pagerank_close(const std::vector<float>& got,
                    const std::vector<double>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t v = 0; v < got.size(); ++v) {
    if (std::abs(got[v] - want[v]) > 1e-3 * std::max(1.0, std::abs(want[v]))) {
      return false;
    }
  }
  return true;
}

/// SSSP: within 1e-3 of Dijkstra; unreachable on both sides.
bool sssp_close(const std::vector<float>& got,
                const std::vector<double>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t v = 0; v < got.size(); ++v) {
    if (std::isinf(want[v]) ? !std::isinf(got[v])
                            : !(std::abs(got[v] - want[v]) <= 1e-3)) {
      return false;
    }
  }
  return true;
}

template <typename T>
std::uint64_t hash_values(const std::vector<T>& values) {
  return metrics::fnv1a_append(metrics::kFnv1aSeed, values.data(),
                               values.size() * sizeof(T));
}

// ---- inputs -----------------------------------------------------------------

/// Integer weights 1..8: float sums of them are exact, so SSSP results can
/// be compared bit for bit after conversion.
graph::CsrGraph to_csr(graph::EdgeList edges, bool weighted,
                       std::uint64_t seed) {
  if (weighted) {
    SplitMix64 rng(seed ^ 0x5eedf00dull);
    for (auto& e : edges.edges()) {
      e.weight = static_cast<float>(1 + rng.next_below(8));
    }
  }
  return graph::CsrGraph::from_edge_list(edges);
}

/// `count` distinct seeded vertices with at least one out-edge.
std::vector<VertexId> pick_sources(const graph::CsrGraph& csr,
                                   std::size_t count, std::uint64_t seed) {
  SplitMix64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
  std::vector<VertexId> out;
  while (out.size() < count) {
    const auto v = static_cast<VertexId>(rng.next_below(csr.num_vertices()));
    if (csr.out_degree(v) > 0 &&
        std::find(out.begin(), out.end(), v) == out.end()) {
      out.push_back(v);
    }
  }
  return out;
}

/// The `count` vertices of highest out-degree (lower id first on ties). A
/// hub reaches the giant component on every seed, so the work from it
/// repeats where that from a random vertex does not.
std::vector<VertexId> hub_sources(const graph::CsrGraph& csr,
                                  std::size_t count) {
  std::vector<VertexId> all(csr.num_vertices());
  for (VertexId v = 0; v < csr.num_vertices(); ++v) all[v] = v;
  count = std::min(count, all.size());
  std::partial_sort(all.begin(), all.begin() + count, all.end(),
                    [&](VertexId a, VertexId b) {
                      return csr.out_degree(a) != csr.out_degree(b)
                                 ? csr.out_degree(a) > csr.out_degree(b)
                                 : a < b;
                    });
  all.resize(count);
  return all;
}

void describe_input(const std::string& workload, const std::string& name,
                    const graph::CsrGraph& csr, std::size_t budget) {
  const double bytes =
      static_cast<double>((csr.num_vertices() + 1) * sizeof(EdgeIndex) +
                          csr.num_edges() * sizeof(VertexId));
  std::ostringstream line;
  line << "# " << workload << " input " << name
       << ": vertices=" << csr.num_vertices() << " edges=" << csr.num_edges()
       << std::fixed << std::setprecision(1)
       << " csr_mib=" << bytes / (1 << 20)
       << " budget_mib=" << static_cast<double>(budget) / (1 << 20)
       << " input_over_budget=" << bytes / static_cast<double>(budget);
  std::cout << line.str() << "\n";
}

// ---- per-layer metrics ------------------------------------------------------

/// Per-layer metrics of one measured unit (a batch repetition, or the
/// middle serving rate): counters from the engine's RunStats, traffic from
/// the storage, and times from this unit's spans.
void add_layer_metrics(Samples& out, const std::vector<core::RunStats>& runs,
                       const IoTotals& io, double edge_jobs,
                       const Tracer& tracer, int rep) {
  using ssd::IoCategory;
  const auto put = [&](const std::string& name, double v) {
    out[name].push_back(v);
  };
  double modeled_storage = 0, sort_group = 0, offthread = 0, stall = 0,
         compute = 0, io_wait = 0, ready = 0;
  double flushes = 0, groups_cmp = 0, groups = 0, messages = 0, avoided = 0,
         edge_log_hits = 0, touched = 0, inefficient = 0, predicted = 0,
         supersteps = 0, edges_activated = 0, scheduled = 0, reorder = 0,
         pulled = 0, fallbacks = 0;
  for (const auto& r : runs) {
    modeled_storage += r.modeled_storage_seconds();
    sort_group += r.sort_group_seconds();
    offthread += r.offthread_sort_seconds();
    stall += r.scatter_stall_seconds();
    compute += r.compute_seconds();
    io_wait += r.io_wait_seconds();
    ready += r.ready_latency_seconds();
    flushes += static_cast<double>(r.scatter_flush_count());
    groups_cmp += static_cast<double>(r.groups_comparison());
    groups += static_cast<double>(r.groups_comparison() + r.groups_scatter());
    messages += static_cast<double>(r.total_messages());
    avoided += static_cast<double>(r.log_bytes_avoided());
    for (const auto& s : r.supersteps) {
      edge_log_hits += static_cast<double>(s.edge_log_hits);
      touched += static_cast<double>(s.pages_touched);
      inefficient += static_cast<double>(s.pages_inefficient);
      predicted += static_cast<double>(s.pages_inefficient_predicted);
      edges_activated += static_cast<double>(s.edges_activated);
    }
    supersteps += static_cast<double>(r.effective_rounds());
    scheduled += static_cast<double>(r.intervals_scheduled());
    reorder =
        std::max(reorder, static_cast<double>(r.schedule_reorder_depth()));
    pulled += static_cast<double>(r.intervals_pulled());
    fallbacks += r.direction_fallback.empty() ? 0 : 1;
  }
  put("graph.adj_read_bytes_per_edge",
      ratio(io.read(IoCategory::kCsrColIdx), edge_jobs));
  put("ssd.pages_read", static_cast<double>(io.pages_read));
  put("ssd.pages_written", static_cast<double>(io.pages_written));
  put("ssd.modeled_storage_s", modeled_storage);
  for (const auto c : {IoCategory::kMessageLog, IoCategory::kCsrColIdx,
                       IoCategory::kVertexValue, IoCategory::kEdgeLog,
                       IoCategory::kMisc}) {
    const std::string cat(ssd::to_string(c));
    put("ssd.read_bytes." + cat, io.read(c));
    put("ssd.write_bytes." + cat, io.written(c));
  }
  put("ssd.io_retries", static_cast<double>(io.retries));
  put("ssd.io_giveups", static_cast<double>(io.giveups));
  put("multilog.sort_group_s", sort_group);
  put("multilog.offthread_sort_s", offthread);
  put("multilog.scatter_stall_s", stall);
  put("multilog.scatter_flushes", flushes);
  put("multilog.comparison_group_frac", ratio(groups_cmp, groups));
  put("multilog.log_compress_ratio",
      ratio(static_cast<double>(io.logical_written[static_cast<unsigned>(
                IoCategory::kMessageLog)]),
            io.written(IoCategory::kMessageLog)));
  put("multilog.messages", messages);
  put("multilog.log_bytes_avoided", avoided);
  put("multilog.edge_log_hits", edge_log_hits);
  put("multilog.inefficient_page_frac", ratio(inefficient, touched));
  put("multilog.predictor_recall", ratio(predicted, inefficient));
  const auto steps = tracer.durations("core.superstep", rep);
  double step_total = 0;
  for (const double d : steps) step_total += d;
  put("core.engine_init_s", tracer.total("core.engine_init", rep));
  put("core.superstep_s.p50", median(steps));
  put("core.superstep_s.max",
      steps.empty() ? 0 : *std::max_element(steps.begin(), steps.end()));
  put("core.compute_s", compute);
  put("core.io_wait_s", io_wait);
  put("core.unaccounted_s", step_total - compute - io_wait);
  put("core.supersteps", supersteps);
  put("core.edges_activated", edges_activated);
  put("core.checkpoint_s", tracer.total("core.checkpoint", rep));
  put("core.intervals_scheduled", scheduled);
  put("core.ready_latency_s", ready);
  put("core.reorder_depth", reorder);
  put("core.intervals_pulled", pulled);
  put("core.direction_fallbacks", fallbacks);
  put("metrics.readout_s", tracer.total("metrics.readout", rep));
}

// ---- batch workloads --------------------------------------------------------

struct BatchRep {
  double setup_s = 0;
  double job_s = 0;
  double modeled_s = 0;
  IoTotals io;  // run + checkpoints + read-out of every job
  std::vector<core::RunStats> runs;
  std::vector<double> job_seconds;  // per job, in order
  std::vector<std::string> configs;
  std::uint64_t jobs = 0;
  std::uint64_t failed = 0;
  double edges = 0;  // input edges of the store
  StoreFacts facts;
};

template <core::VertexApp App, typename Check>
void batch_job(const Tracing& tr, BatchRep& rep, graph::StoredCsrGraph& stored,
               App app, const core::EngineOptions& opts, const std::string& job,
               bool checkpoint, const Check& check) {
  ++rep.jobs;
  try {
    auto r = run_engine<App>(tr, job, -1, 0, checkpoint, stored, std::move(app),
                             opts);
    rep.setup_s += seconds(r.begin, r.constructed);
    rep.job_s += seconds(r.constructed, r.read_out);
    rep.job_seconds.push_back(seconds(r.constructed, r.read_out));
    rep.modeled_s += r.stats.modeled_total_seconds();
    rep.io.add(r.io);
    rep.configs.push_back(job_config(r.stats, opts));
    const bool ok = check(r.values);
    rep.runs.push_back(std::move(r.stats));
    if (!ok) {
      ++rep.failed;
      std::cerr << "error: " << job << " does not match the reference\n";
    }
  } catch (const std::exception& e) {
    ++rep.failed;
    std::cerr << "error: " << job << " threw: " << e.what() << "\n";
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10;
  std::string trace_path;
  std::string record_path;
  bool smoke = false;
  bool traced() const { return !trace_path.empty(); }
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Samples samples;
  std::string config = "{}";  // the resolved configuration, JSON
};

/// A workload's traced-only comparator job: seconds, and whether its values
/// matched the reference.
struct RefJob {
  double seconds = 0;
  bool ok = true;
};

using RepFn = std::function<BatchRep(const Tracing&)>;
using RefFn = std::function<RefJob(const Tracing&)>;

std::string run_config(const std::vector<std::string>& jobs) {
  std::ostringstream c;
  c << "{\"page_size\":" << kPageSize
    << ",\"omp_threads\":" << hardware_threads() << ",\"jobs\":[";
  for (std::size_t i = 0; i < jobs.size(); ++i) c << (i ? "," : "") << jobs[i];
  c << "]}";
  return c.str();
}

/// Warm-up, then repetitions until `seconds` have passed (at least kMinReps;
/// traced runs alternate untraced and traced repetitions). `ref_fn`, when
/// set, runs the comparator for the repetition's first job.
Outcome measure_batch(const Args& args, Tracer& tracer, const RepFn& rep_fn,
                      const RefFn& ref_fn) {
  Outcome out;
  const auto tally = [&](const BatchRep& r) {
    out.attempted += r.jobs;
    out.failed += r.failed;
  };
  if (!args.smoke) {
    // Fills the OS page cache and the allocator; verified, not measured.
    const BatchRep warm = rep_fn(Tracing{});
    tally(warm);
    out.config = run_config(warm.configs);
  }
  std::vector<double> plain_job, traced_job, traced_ref_job;
  const TimePoint start = Clock::now();
  for (int rep = 1;; ++rep) {
    const bool traced = args.traced() && rep % 2 == 0;
    reset_peak_rss();
    const BatchRep r = rep_fn(traced ? Tracing{&tracer, rep} : Tracing{});
    tally(r);
    if (args.smoke) out.config = run_config(r.configs);
    const double edge_jobs = r.edges * static_cast<double>(r.jobs);
    if (traced) {
      traced_job.push_back(r.job_s);
      if (!r.job_seconds.empty()) traced_ref_job.push_back(r.job_seconds[0]);
      add_layer_metrics(out.samples, r.runs, r.io, edge_jobs, tracer, rep);
      out.samples["graph.partition_s"].push_back(
          tracer.total("graph.partition", rep));
      out.samples["graph.store_build_s"].push_back(
          tracer.total("graph.store_build", rep));
      out.samples["graph.intervals"].push_back(r.facts.intervals);
      out.samples["graph.adj_compress_ratio"].push_back(
          r.facts.adj_compress_ratio);
    } else {
      plain_job.push_back(r.job_s);
      out.samples["setup_s"].push_back(r.setup_s);
      out.samples["job_s"].push_back(r.job_s);
      out.samples["modeled_s"].push_back(r.modeled_s);
      out.samples["io_bytes_per_edge"].push_back(
          ratio(r.io.total_read() + r.io.total_written(), edge_jobs));
      out.samples["write_bytes_per_edge"].push_back(
          ratio(r.io.total_written(), edge_jobs));
      out.samples["peak_rss_mb"].push_back(peak_rss_mib());
    }
    const int needed = args.traced() ? 2 : args.smoke ? 1 : kMinReps;
    if (rep >= needed && seconds(start, Clock::now()) >= args.seconds) break;
  }
  if (args.traced()) {
    for (const char* name : {"ssd.cache_hit_rate", "ssd.cache_evictions",
                             "ssd.cache_bypass_pages"}) {
      out.samples[name].push_back(0);  // batch jobs use no adjacency cache
    }
    out.samples["trace.overhead_frac"].push_back(
        ratio(median(traced_job), median(plain_job)) - 1);
    if (ref_fn) {
      const RefJob ref = ref_fn(Tracing{&tracer, 0});
      ++out.attempted;
      if (!ref.ok) {
        ++out.failed;
        std::cerr << "error: the GraphChi job does not match the reference\n";
      }
      out.samples["ref.graphchi_job_s"].push_back(ref.seconds);
      out.samples["ref.speedup_vs_graphchi"].push_back(
          ratio(ref.seconds, median(traced_ref_job)));
    }
  }
  return out;
}

/// GraphChi over the same input, budget and superstep cap: the paper's
/// comparator (Figs 5/6), for context only.
template <core::VertexApp App, typename Check>
RefJob graphchi_job(const Tracing& tr, const graph::CsrGraph& csr, App app,
                    const core::EngineOptions& opts, const Check& check) {
  ssd::TempDir dir("mlvc_e2e_gc");
  ssd::Storage storage(dir.path(), device());
  graphchi::GraphChiEngine<App> engine(
      storage, csr, std::move(app),
      graphchi::GraphChiOptions{.memory_budget_bytes = opts.memory_budget_bytes,
                                .max_supersteps = opts.max_supersteps});
  const TimePoint t0 = Clock::now();
  engine.run();
  const auto values = engine.values();
  const TimePoint t1 = Clock::now();
  tr.span("ref.graphchi_job", t0, t1, app.name());
  return {seconds(t0, t1), check(values)};
}

/// PageRank and CDLP over one CF' store: all-active, log-bound work.
Outcome dense_logs(const Args& args, const Sizes& z, Tracer& tracer) {
  const auto csr =
      to_csr(graph::make_cf_like(z.cf_scale, args.seed), false, args.seed);
  describe_input("dense-logs", "CF'", csr, z.dense_budget);
  const apps::PageRank pagerank;
  const auto want_pr = reference::delta_pagerank(csr, pagerank.damping,
                                                 pagerank.threshold, kPaperCap);
  const auto want_cdlp = reference::cdlp_labels(csr, kPaperCap);
  const auto opts = job_options(z.dense_budget, kPaperCap);
  const auto check_pr = [&](const std::vector<float>& v) {
    return pagerank_close(v, want_pr);
  };
  static_assert(sizeof(multilog::Record<apps::PageRank::Message>) ==
                    sizeof(multilog::Record<apps::Cdlp::Message>),
                "one partition serves both apps");
  const RepFn rep = [&](const Tracing& tr) {
    BatchRep r;
    ssd::TempDir dir("mlvc_e2e");
    ssd::Storage storage(dir.path(), device());
    auto stored = build_store<apps::PageRank>(tr, storage, csr, opts, false,
                                              r.setup_s, r.facts);
    r.edges = static_cast<double>(csr.num_edges());
    batch_job(tr, r, *stored, pagerank, opts, "pagerank", false, check_pr);
    batch_job(tr, r, *stored, apps::Cdlp{}, opts, "cdlp", false,
              [&](const std::vector<VertexId>& v) { return v == want_cdlp; });
    return r;
  };
  const RefFn ref = [&](const Tracing& tr) {
    return graphchi_job(tr, csr, pagerank, opts, check_pr);
  };
  return measure_batch(args, tracer, rep, ref);
}

/// Eight BFS jobs from seeded sources over one YWS' store: sparse frontiers,
/// read-dominated work.
Outcome sparse_bfs(const Args& args, const Sizes& z, Tracer& tracer) {
  const auto csr =
      to_csr(graph::make_yws_like(z.yws_scale, args.seed), false, args.seed);
  describe_input("sparse-bfs", "YWS'", csr, z.bfs_budget);
  const auto sources = pick_sources(csr, kBfsSources, args.seed);
  std::vector<std::vector<std::uint32_t>> want;
  for (const VertexId s : sources) {
    want.push_back(reference::bfs_distances(csr, s));
  }
  const auto opts = job_options(z.bfs_budget, kConvergeCap);
  const RepFn rep = [&](const Tracing& tr) {
    BatchRep r;
    ssd::TempDir dir("mlvc_e2e");
    ssd::Storage storage(dir.path(), device());
    auto stored = build_store<apps::Bfs>(tr, storage, csr, opts, false,
                                         r.setup_s, r.facts);
    r.edges = static_cast<double>(csr.num_edges());
    for (std::size_t k = 0; k < sources.size(); ++k) {
      batch_job(tr, r, *stored, apps::Bfs{.source = sources[k]}, opts,
                "bfs" + std::to_string(k), false,
                [&](const std::vector<std::uint32_t>& v) {
                  return v == want[k];
                });
    }
    return r;
  };
  const RefFn ref = [&](const Tracing& tr) {
    return graphchi_job(tr, csr, apps::Bfs{.source = sources[0]}, opts,
                        [&](const std::vector<std::uint32_t>& v) {
                          return v == want[0];
                        });
  };
  return measure_batch(args, tracer, rep, ref);
}

/// Adaptive-direction WCC, and hub-degree async SSSP from the eight highest
/// out-degree vertices, over one weighted CF' store, checkpointing after
/// every superstep.
Outcome converge_ckpt(const Args& args, const Sizes& z, Tracer& tracer) {
  const auto csr =
      to_csr(graph::make_cf_like(z.cf_scale, args.seed), true, args.seed);
  describe_input("converge-ckpt", "CF' weighted", csr, z.ckpt_budget);
  const auto sources = hub_sources(csr, kSsspSources);
  const auto want_wcc = reference::wcc_labels(csr);
  std::vector<std::vector<double>> want_sssp;
  for (const VertexId s : sources) {
    want_sssp.push_back(reference::dijkstra(csr, s));
  }
  auto wcc_opts = job_options(z.ckpt_budget, kConvergeCap);
  wcc_opts.direction = DirectionMode::kAdaptive;
  auto sssp_opts = job_options(z.ckpt_budget, kConvergeCap);
  sssp_opts.schedule_policy = SchedulePolicy::kHubDegree;
  sssp_opts.model = core::ComputationModel::kAsynchronous;
  static_assert(sizeof(multilog::Record<apps::Wcc::Message>) ==
                    sizeof(multilog::Record<apps::Sssp::Message>),
                "one partition serves both apps");
  const RepFn rep = [&](const Tracing& tr) {
    BatchRep r;
    ssd::TempDir dir("mlvc_e2e");
    ssd::Storage storage(dir.path(), device());
    auto stored = build_store<apps::Wcc>(tr, storage, csr, wcc_opts, true,
                                         r.setup_s, r.facts);
    r.edges = static_cast<double>(csr.num_edges());
    batch_job(tr, r, *stored, apps::Wcc{}, wcc_opts, "wcc", true,
              [&](const std::vector<VertexId>& v) { return v == want_wcc; });
    for (std::size_t k = 0; k < sources.size(); ++k) {
      batch_job(tr, r, *stored, apps::Sssp{.source = sources[k]}, sssp_opts,
                "sssp" + std::to_string(k), true,
                [&](const std::vector<float>& v) {
                  return sssp_close(v, want_sssp[k]);
                });
    }
    return r;
  };
  return measure_batch(args, tracer, rep, nullptr);
}

// ---- serve-mixed ------------------------------------------------------------

enum class QueryApp : std::uint8_t { kBfs, kSssp, kWcc };

const char* app_name(QueryApp app) {
  switch (app) {
    case QueryApp::kBfs:
      return "bfs";
    case QueryApp::kSssp:
      return "sssp";
    case QueryApp::kWcc:
      return "wcc";
  }
  return "?";
}

struct Query {
  QueryApp app = QueryApp::kBfs;
  VertexId source = 0;
  std::size_t rate = 0;  // index into Sizes::serve_rates
  double offset_s = 0;   // scheduled arrival, from the start of its rate
  TimePoint due, queued, picked, admitted, ran, done;
  std::uint64_t hash = 0;  // FNV-1a of the values, taken after `done`
  bool threw = false;
  core::RunStats stats;
};

/// The seeded query stream. Sources come from a fixed pool, and every block
/// of five queries holds the BFS:SSSP:WCC = 3:1:1 mix in a seeded order, so
/// each rate serves the same mix and bytes per edge repeat across seeds.
class QueryStream {
 public:
  QueryStream(std::vector<VertexId> pool, std::uint64_t seed)
      : pool_(std::move(pool)), rng_(seed ^ 0x51eedull) {}

  Query next(QueryApp app, std::size_t rate) {
    Query q;
    q.app = app;
    q.source = pool_[rng_.next_below(pool_.size())];
    q.rate = rate;
    return q;
  }

  Query next(std::size_t rate) {
    if (dealt_ == deck_.size()) {
      for (std::size_t k = deck_.size() - 1; k > 0; --k) {
        std::swap(deck_[k], deck_[rng_.next_below(k + 1)]);
      }
      dealt_ = 0;
    }
    return next(deck_[dealt_++], rate);
  }

  /// Poisson arrivals: exponential gaps at `rate` queries/s.
  double gap(double rate) { return -std::log(1 - rng_.next_double()) / rate; }

 private:
  std::vector<VertexId> pool_;
  SplitMix64 rng_;
  std::array<QueryApp, 5> deck_{QueryApp::kBfs, QueryApp::kBfs, QueryApp::kBfs,
                                QueryApp::kSssp, QueryApp::kWcc};
  std::size_t dealt_ = deck_.size();
};

/// Hands scheduled queries from the generator to the workers.
class QueryQueue {
 public:
  void push(std::size_t i) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ready_.push_back(i);
    }
    cv_.notify_one();
  }
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }
  /// False once closed and drained.
  bool pop(std::size_t& i) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return closed_ || !ready_.empty(); });
    if (ready_.empty()) return false;
    i = ready_.front();
    ready_.pop_front();
    return true;
  }
  void finished() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++done_;
    }
    cv_.notify_all();
  }
  void wait_finished(std::size_t n) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return done_ >= n; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::size_t> ready_;
  std::size_t done_ = 0;
  bool closed_ = false;
};

struct ServeStore {
  ssd::TempDir dir{"mlvc_e2e_serve"};
  std::unique_ptr<core::RuntimeContext> ctx;
  std::unique_ptr<graph::StoredCsrGraph> graph;
  StoreFacts facts;
};

template <core::VertexApp App>
void finish_query(Query& q, JobRun<App>&& r) {
  q.admitted = r.constructed;
  q.ran = r.ran;
  q.done = r.read_out;
  q.hash = hash_values(r.values);
  q.stats = std::move(r.stats);
}

void run_query(const Tracing& tr, ServeStore& s,
               const core::EngineOptions& opts, Query& q, long id,
               unsigned tid) {
  const std::string job = app_name(q.app);
  try {
    switch (q.app) {
      case QueryApp::kBfs:
        finish_query(q, run_engine<apps::Bfs>(tr, job, id, tid, false, *s.ctx,
                                              *s.graph,
                                              apps::Bfs{.source = q.source},
                                              opts));
        break;
      case QueryApp::kSssp:
        finish_query(q, run_engine<apps::Sssp>(tr, job, id, tid, false, *s.ctx,
                                               *s.graph,
                                               apps::Sssp{.source = q.source},
                                               opts));
        break;
      case QueryApp::kWcc:
        finish_query(q, run_engine<apps::Wcc>(tr, job, id, tid, false, *s.ctx,
                                              *s.graph, apps::Wcc{}, opts));
        break;
    }
  } catch (const std::exception& e) {
    q.threw = true;
    std::cerr << "error: query " << id << " threw: " << e.what() << "\n";
  }
}

double ms(TimePoint begin, TimePoint end) { return 1e3 * seconds(begin, end); }

struct ServeSetup {
  const graph::CsrGraph& csr;
  const Sizes& sizes;
  core::EngineOptions opts;
  core::RuntimeContextOptions ctx_opts;
};

/// A fresh RuntimeContext over a fresh store; its set-up seconds go to
/// `setup_s`.
std::unique_ptr<ServeStore> open_serve_store(const Tracing& tr,
                                             const ServeSetup& cfg,
                                             double& setup_s) {
  auto store = std::make_unique<ServeStore>();
  const TimePoint t0 = Clock::now();
  store->ctx = std::make_unique<core::RuntimeContext>(store->dir.path(),
                                                      cfg.ctx_opts);
  setup_s += seconds(t0, Clock::now());
  store->graph = build_store<apps::Bfs>(tr, store->ctx->storage(), cfg.csr,
                                        cfg.opts, true, setup_s, store->facts);
  store->ctx->adopt_graph(*store->graph);
  return store;
}

/// One serving repetition: a fresh context and store, one query of each app
/// to warm the shared cache, then every rate in turn, each drained before the
/// next starts. A context keeps every finished query's blobs (and their file
/// descriptors) until it closes, so each repetition opens its own.
struct ServeRep {
  double setup_s = 0;
  StoreFacts facts;
  std::vector<Query> warm;     // verified, not measured
  std::vector<Query> queries;  // by rate, then by arrival
  IoTotals io;                 // the measured queries' traffic
  std::array<std::uint64_t, 4> cache{};  // hits, misses, bypasses, evictions
  std::vector<int> inflight_max;         // per rate
  double peak_rss_mb = 0;
  bool traced = false;
  std::vector<std::size_t> failed;  // per rate, filled by verify_serve
};

ServeRep serve_rep(const Tracing& tr, const ServeSetup& cfg,
                   QueryStream& stream, std::size_t per_rate) {
  const auto& rates = cfg.sizes.serve_rates;
  ServeRep rep;
  for (std::size_t r = 0; r < rates.size(); ++r) {
    double t = 0;
    for (std::size_t k = 0; k < per_rate; ++k) {
      t += stream.gap(rates[r]);
      rep.queries.push_back(stream.next(r));
      rep.queries.back().offset_s = t;
    }
  }
  for (const auto app : {QueryApp::kBfs, QueryApp::kSssp, QueryApp::kWcc}) {
    rep.warm.push_back(stream.next(app, 0));
  }
  rep.inflight_max.assign(rates.size(), 0);

  const auto store = open_serve_store(tr, cfg, rep.setup_s);
  rep.facts = store->facts;
  for (Query& q : rep.warm) run_query(Tracing{}, *store, cfg.opts, q, -1, 0);

  QueryQueue queue;
  std::atomic<int> inflight{0};
  std::atomic<int> inflight_max{0};
  std::vector<std::thread> workers;
  // Closes the queue and joins the workers on every way out of the sweep.
  struct JoinWorkers {
    QueryQueue& queue;
    std::vector<std::thread>& workers;
    ~JoinWorkers() {
      queue.close();
      for (auto& w : workers) w.join();
    }
  } join_workers{queue, workers};
  for (unsigned w = 0; w < kServeWorkers; ++w) {
    workers.emplace_back([&, w] {
      std::size_t i = 0;
      while (queue.pop(i)) {
        Query& q = rep.queries[i];
        q.picked = Clock::now();
        const int now_inflight = inflight.fetch_add(1) + 1;
        int seen = inflight_max.load();
        while (now_inflight > seen &&
               !inflight_max.compare_exchange_weak(seen, now_inflight)) {
        }
        try {
          tr.span("runtime.queue_wait", q.due, q.picked, app_name(q.app),
                  static_cast<long>(i), w + 1);
          run_query(tr, *store, cfg.opts, q, static_cast<long>(i), w + 1);
        } catch (...) {
          q.threw = true;
        }
        inflight.fetch_sub(1);
        queue.finished();
      }
    });
  }

  // One generator (this thread): queries are released on schedule whether or
  // not earlier ones have finished.
  const auto cache = store->ctx->shared_cache();
  const auto cache_counts = [&] {
    return std::array<std::uint64_t, 4>{cache->hits(), cache->misses(),
                                        cache->bypasses(), cache->evictions()};
  };
  const auto io_before = store->ctx->io_snapshot();
  const auto cache_before = cache_counts();
  reset_peak_rss();
  std::size_t released = 0;
  for (std::size_t r = 0; r < rates.size(); ++r) {
    inflight_max = 0;
    const TimePoint rate_start = Clock::now();
    for (; released < rep.queries.size() && rep.queries[released].rate == r;
         ++released) {
      Query& q = rep.queries[released];
      q.due = rate_start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(q.offset_s));
      std::this_thread::sleep_until(q.due);
      q.queued = Clock::now();
      queue.push(released);
    }
    queue.wait_finished(released);
    rep.inflight_max[r] = inflight_max.load();
  }
  rep.peak_rss_mb = peak_rss_mib();
  rep.io.add(store->ctx->io_snapshot() - io_before);
  const auto cache_after = cache_counts();
  for (std::size_t k = 0; k < rep.cache.size(); ++k) {
    rep.cache[k] = cache_after[k] - cache_before[k];
  }
  return rep;
}

/// Checks every query of `rep` against the reference, after the sweep, and
/// counts the failures in `out` and, per rate, in `rep.failed`.
void verify_serve(const graph::CsrGraph& csr, ServeRep& rep,
                  std::map<std::pair<QueryApp, VertexId>, std::uint64_t>& want,
                  Outcome& out) {
  const auto reference_hash = [&](QueryApp app, VertexId source) {
    if (app == QueryApp::kWcc) source = 0;
    const auto key = std::make_pair(app, source);
    if (auto it = want.find(key); it != want.end()) return it->second;
    std::uint64_t h = 0;
    if (app == QueryApp::kBfs) {
      h = hash_values(reference::bfs_distances(csr, source));
    } else if (app == QueryApp::kSssp) {
      const auto d = reference::dijkstra(csr, source);
      h = hash_values(std::vector<float>(d.begin(), d.end()));
    } else {
      h = hash_values(reference::wcc_labels(csr));
    }
    return want[key] = h;
  };
  rep.failed.assign(rep.inflight_max.size(), 0);
  for (const auto* list : {&rep.warm, &rep.queries}) {
    for (std::size_t i = 0; i < list->size(); ++i) {
      const Query& q = (*list)[i];
      ++out.attempted;
      if (!q.threw && q.hash == reference_hash(q.app, q.source)) continue;
      ++out.failed;
      if (list == &rep.queries) ++rep.failed[q.rate];
      if (!q.threw) {
        std::cerr << "error: query " << i << " does not match the reference\n";
      }
    }
  }
}

/// One rate's latencies over a set of repetitions.
struct RateSummary {
  std::vector<double> latency_ms;  // from the scheduled arrival
  std::vector<double> service_ms;  // from a worker's pick-up
  double p50_ms = 0;
  double p90_ms = 0;
  bool growing_backlog = false;
  double achieved_qps = 0;
  int inflight_max = 0;
};

RateSummary summarize_rate(const std::vector<const ServeRep*>& reps,
                           std::size_t r) {
  RateSummary s;
  // Queue wait of each repetition's first and last quarter of this rate's
  // arrivals, summed over the repetitions. The backlog grows when the last
  // quarter waits more than twice as long as the first, plus one median
  // service time (the first quarter often waits for nothing).
  double first = 0, last = 0, busy_s = 0;
  std::size_t quarters = 0;
  for (const ServeRep* rep : reps) {
    std::vector<double> wait;
    TimePoint first_due = TimePoint::max(), last_done = TimePoint::min();
    for (const Query& q : rep->queries) {
      if (q.rate != r || q.threw) continue;
      s.latency_ms.push_back(ms(q.due, q.done));
      wait.push_back(ms(q.due, q.picked));
      s.service_ms.push_back(ms(q.picked, q.done));
      first_due = std::min(first_due, q.due);
      last_done = std::max(last_done, q.done);
    }
    const std::size_t quarter = wait.size() / 4;
    for (std::size_t k = 0; k < quarter; ++k) {
      first += wait[k];
      last += wait[wait.size() - 1 - k];
    }
    quarters += quarter;
    if (!wait.empty()) busy_s += seconds(first_due, last_done);
    s.inflight_max = std::max(s.inflight_max, rep->inflight_max[r]);
  }
  s.p50_ms = median(s.latency_ms);
  s.p90_ms = quantile(s.latency_ms, 0.9);
  const double n = static_cast<double>(quarters);
  s.growing_backlog =
      quarters > 0 && last / n > 2 * first / n + median(s.service_ms);
  s.achieved_qps = ratio(static_cast<double>(s.latency_ms.size()), busy_s);
  return s;
}

/// Open-loop BFS:SSSP:WCC = 3:1:1 queries through a RuntimeContext at three
/// fixed Poisson rates. Latency runs from the scheduled arrival, so queueing
/// and admission are charged. Repetitions (each its own context) run until
/// --seconds have passed and their latencies are pooled per rate.
Outcome serve_mixed(const Args& args, const Sizes& z, Tracer& tracer) {
  graph::RmatParams params;
  params.scale = z.rmat_scale;
  params.edge_factor = 8;
  params.seed = args.seed;
  const auto csr = to_csr(graph::generate_rmat(params), true, args.seed);
  describe_input("serve-mixed", "R-MAT weighted", csr, z.serve_budget);
  ServeSetup cfg{csr, z, job_options(z.serve_budget, kConvergeCap), {}};
  cfg.ctx_opts.device = device();
  cfg.ctx_opts.io_backend = ssd::IoBackendKind::kThreadPool;
  cfg.ctx_opts.memory_pool_bytes = z.serve_pool;
  cfg.ctx_opts.shared_cache_bytes = z.serve_cache;
  QueryStream stream(pick_sources(csr, 64, args.seed), args.seed);
  std::map<std::pair<QueryApp, VertexId>, std::uint64_t> want;
  Outcome out;
  // job_s is the latency at the lowest rate: at the higher ones a busy host
  // pushes the fixed rates toward saturation, and queueing multiplies its
  // drift (at the middle rate the run-to-run spread reached 0.35 against
  // 0.12 at the lowest). The middle rate's latencies are per-layer.
  const std::size_t low = 0, mid = 1;

  if (!args.smoke) {
    // Set-up alone, several times, for a steady setup_s; then a short
    // warm-up repetition that is verified, not measured.
    for (int i = 0; i < kServeSetups; ++i) {
      double setup_s = 0;
      open_serve_store(Tracing{}, cfg, setup_s);
      out.samples["setup_s"].push_back(setup_s);
    }
    ServeRep warm = serve_rep(Tracing{}, cfg, stream, z.queries_per_rate / 4);
    verify_serve(csr, warm, want, out);
  }

  std::vector<ServeRep> reps;
  std::vector<double> low_modeled;
  std::vector<std::string> configs;
  const TimePoint start = Clock::now();
  for (int rep = 1;; ++rep) {
    const bool traced = args.traced() && rep % 2 == 0;
    reps.push_back(serve_rep(traced ? Tracing{&tracer, rep} : Tracing{}, cfg,
                             stream, z.queries_per_rate));
    ServeRep& r = reps.back();
    r.traced = traced;
    verify_serve(csr, r, want, out);
    if (configs.empty()) {
      for (const Query& q : r.queries) {
        if (!q.threw) {
          configs.push_back(job_config(q.stats, cfg.opts));
          break;
        }
      }
    }
    if (traced) {
      std::vector<core::RunStats> runs;
      for (const Query& q : r.queries) runs.push_back(q.stats);
      add_layer_metrics(out.samples, runs, r.io,
                        static_cast<double>(csr.num_edges()) *
                            static_cast<double>(r.queries.size()),
                        tracer, rep);
      out.samples["graph.partition_s"].push_back(
          tracer.total("graph.partition", rep));
      out.samples["graph.store_build_s"].push_back(
          tracer.total("graph.store_build", rep));
      out.samples["graph.intervals"].push_back(r.facts.intervals);
      out.samples["graph.adj_compress_ratio"].push_back(
          r.facts.adj_compress_ratio);
      const auto& c = r.cache;
      out.samples["ssd.cache_hit_rate"].push_back(ratio(
          static_cast<double>(c[0]), static_cast<double>(c[0] + c[1] + c[2])));
      out.samples["ssd.cache_evictions"].push_back(static_cast<double>(c[3]));
      out.samples["ssd.cache_bypass_pages"].push_back(
          static_cast<double>(c[2]));
      std::vector<double> queue_ms, admit_ms, run_ms;
      double lag_ms = 0;
      for (const Query& q : r.queries) {
        lag_ms = std::max(lag_ms, ms(q.due, q.queued));
        if (q.rate != mid || q.threw) continue;
        queue_ms.push_back(ms(q.due, q.picked));
        admit_ms.push_back(ms(q.picked, q.admitted));
        run_ms.push_back(ms(q.admitted, q.ran));
      }
      out.samples["runtime.queue_wait_ms.p50"].push_back(median(queue_ms));
      out.samples["runtime.queue_wait_ms.p90"].push_back(
          quantile(queue_ms, 0.9));
      out.samples["runtime.admit_ms.p50"].push_back(median(admit_ms));
      out.samples["runtime.admit_ms.p90"].push_back(quantile(admit_ms, 0.9));
      out.samples["runtime.run_ms.p50"].push_back(median(run_ms));
      out.samples["runtime.run_ms.p90"].push_back(quantile(run_ms, 0.9));
      out.samples["runtime.dispatch_lag_ms.max"].push_back(lag_ms);
      out.samples["runtime.inflight_max"].push_back(r.inflight_max[mid]);
    } else {
      const double edge_queries = static_cast<double>(csr.num_edges()) *
                                  static_cast<double>(r.queries.size());
      out.samples["setup_s"].push_back(r.setup_s);
      out.samples["io_bytes_per_edge"].push_back(
          ratio(r.io.total_read() + r.io.total_written(), edge_queries));
      out.samples["write_bytes_per_edge"].push_back(
          ratio(r.io.total_written(), edge_queries));
      out.samples["peak_rss_mb"].push_back(r.peak_rss_mb);
      for (const Query& q : r.queries) {
        if (q.rate == low && !q.threw) {
          low_modeled.push_back(q.stats.modeled_total_seconds());
        }
      }
    }
    // Only the timestamps are needed from here on; keeping every query's
    // per-superstep stats would grow the resident set with each repetition.
    for (Query& q : r.queries) q.stats = {};
    const int needed = args.traced() ? 2 : 1;
    if (rep >= needed && seconds(start, Clock::now()) >= args.seconds) break;
  }

  // Per rate, pooled over the repetitions of one kind (traced or not).
  double qps_at_slo = 0;
  std::vector<RateSummary> summary[2];  // [untraced, traced], per rate
  for (const bool traced : {false, true}) {
    std::vector<const ServeRep*> kind;
    std::vector<std::size_t> failed(z.serve_rates.size(), 0);
    for (const ServeRep& rep : reps) {
      if (rep.traced != traced) continue;
      kind.push_back(&rep);
      for (std::size_t r = 0; r < failed.size(); ++r) {
        failed[r] += rep.failed[r];
      }
    }
    if (kind.empty()) continue;
    for (std::size_t r = 0; r < z.serve_rates.size(); ++r) {
      const RateSummary& s =
          summary[traced].emplace_back(summarize_rate(kind, r));
      std::cout << "# serve-mixed" << (traced ? " traced" : "") << " rate "
                << z.serve_rates[r] << "/s: queries=" << s.latency_ms.size()
                << " p50_ms=" << s.p50_ms << " p90_ms=" << s.p90_ms
                << " service_p50_ms=" << median(s.service_ms)
                << " growing_backlog=" << s.growing_backlog
                << " achieved_qps=" << s.achieved_qps
                << " inflight_max=" << s.inflight_max << "\n";
      if (traced == args.traced() && failed[r] == 0 &&
          s.p90_ms <= z.serve_slo_ms && !s.growing_backlog) {
        qps_at_slo = z.serve_rates[r];
      }
    }
  }

  if (args.traced()) {
    out.samples["serve.p50_ms"].push_back(summary[1][mid].p50_ms);
    out.samples["serve.p90_ms"].push_back(summary[1][mid].p90_ms);
    out.samples["serve.qps_at_slo"].push_back(qps_at_slo);
    // Service time, not latency: queueing would amplify the difference.
    out.samples["trace.overhead_frac"].push_back(
        ratio(median(summary[1][low].service_ms),
              median(summary[0][low].service_ms)) -
        1);
  } else {
    for (const double l : summary[0][low].latency_ms) {
      out.samples["job_s"].push_back(l / 1e3);
    }
    out.samples["modeled_s"] = low_modeled;
  }

  std::ostringstream c;
  c << "{\"workers\":" << kServeWorkers << ",\"rates_qps\":["
    << z.serve_rates[0] << "," << z.serve_rates[1] << "," << z.serve_rates[2]
    << "],\"queries_per_rate\":" << z.queries_per_rate
    << ",\"slo_p90_ms\":" << z.serve_slo_ms
    << ",\"pool_bytes\":" << z.serve_pool
    << ",\"shared_cache_bytes\":" << z.serve_cache
    << ",\"run\":" << run_config(configs) << "}";
  out.config = c.str();
  return out;
}

// ---- output -----------------------------------------------------------------

using WorkloadFn = Outcome (*)(const Args&, const Sizes&, Tracer&);

constexpr std::pair<const char*, WorkloadFn> kWorkloads[] = {
    {"dense-logs", dense_logs},
    {"sparse-bfs", sparse_bfs},
    {"converge-ckpt", converge_ckpt},
    {"serve-mixed", serve_mixed},
};

std::string json_number(double v) {
  std::ostringstream s;
  s << std::setprecision(17) << (std::isfinite(v) ? v : 0.0);
  return s.str();
}

/// Prints the metric lines and, last, the result JSON; returns that JSON with
/// sample counts and the configuration added, for --record.
std::string report(const Args& args, const std::string& workload,
                   const Outcome& out) {
  std::ostringstream metrics, record;
  bool first = true;
  for (const auto& m : kMetrics) {
    if (m.per_layer != args.traced()) continue;
    const auto it = out.samples.find(m.name);
    const std::size_t n = it == out.samples.end() ? 0 : it->second.size();
    const double value = n == 0 ? 0 : median(it->second);
    std::cout << workload << " " << m.name << " " << value << " " << m.unit
              << " n=" << n << "\n";
    metrics << (first ? "" : ",") << "\"" << m.name
            << "\":{\"value\":" << json_number(value) << ",\"unit\":\""
            << m.unit << "\"";
    record << (first ? "" : ",") << "\"" << m.name
           << "\":{\"value\":" << json_number(value) << ",\"unit\":\""
           << m.unit << "\",\"n\":" << n << ",\"samples\":[";
    for (std::size_t i = 0; i < n; ++i) {
      record << (i ? "," : "") << json_number(it->second[i]);
    }
    record << "]}";
    metrics << "}";
    first = false;
  }
  std::cout << "# " << workload << " ops_failed_frac "
            << ratio(static_cast<double>(out.failed),
                     static_cast<double>(out.attempted))
            << " n=" << out.attempted << "\n";
  const std::string head =
      std::string("{\"correct\":") + (out.failed == 0 ? "true" : "false") +
      ",\"attempted\":" + std::to_string(out.attempted) +
      ",\"failed\":" + std::to_string(out.failed);
  std::cout << head << ",\"metrics\":{" << metrics.str() << "}}" << std::endl;
  return head + ",\"workload\":\"" + workload +
         "\",\"seed\":" + std::to_string(args.seed) +
         ",\"seconds\":" + json_number(args.seconds) +
         ",\"trace\":" + (args.traced() ? "1" : "0") + ",\"metrics\":{" +
         record.str() + "},\"config\":" + out.config + "}";
}

/// The engine applies MLVC_* overrides at construction; the benchmark pins
/// its configuration, so none may leak in from the environment.
void clear_mlvc_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view kv(*e);
    if (kv.rfind("MLVC_", 0) == 0) {
      names.emplace_back(kv.substr(0, kv.find('=')));
    }
  }
  for (const auto& n : names) ::unsetenv(n.c_str());
}

int usage() {
  std::cerr << "usage: bench_e2e --workload NAME [--seed N] [--seconds S] "
               "[--trace FILE] [--record FILE]\n"
               "       bench_e2e --smoke [--workload NAME] [--trace FILE]\n"
               "workloads: dense-logs sparse-bfs converge-ckpt serve-mixed\n";
  return 2;
}

int run(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      args.smoke = true;
    } else if (a == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args.seed = std::stoull(argv[++i]);
    } else if (a == "--seconds" && has_value) {
      args.seconds = std::stod(argv[++i]);
    } else if (a == "--trace" && has_value) {
      args.trace_path = argv[++i];
    } else if (a == "--record" && has_value) {
      args.record_path = argv[++i];
    } else {
      return usage();
    }
  }
  clear_mlvc_environment();
  const TimePoint origin = Clock::now();
  if (args.smoke) args.seconds = 0;

  // --smoke runs every workload unless one is named.
  std::vector<std::unique_ptr<Tracer>> tracers;
  std::uint64_t failed = 0;
  std::string record;
  for (const auto& [name, fn] : kWorkloads) {
    if (args.workload.empty() ? !args.smoke : args.workload != name) continue;
    tracers.push_back(std::make_unique<Tracer>(name));
    const Outcome out = fn(args, args.smoke ? kSmoke : kFull, *tracers.back());
    record = report(args, name, out);
    failed += out.failed;
  }
  if (tracers.empty()) return usage();
  if (args.traced()) write_trace(args.trace_path, tracers, origin);
  if (!args.record_path.empty()) {
    std::ofstream f(args.record_path);
    f << record << "\n";
    if (!f) throw Error("cannot write " + args.record_path);
  }
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace mlvc::e2e

int main(int argc, char** argv) {
  try {
    return mlvc::e2e::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << "\n";
    return 1;
  }
}
