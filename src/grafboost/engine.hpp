// The GraFBoost baseline engine (Jun et al., ISCA'18; §VI of the paper).
//
// Single-log vertex-centric execution:
//  * all SendUpdate()s of a superstep go into ONE log, maintained as sorted
//    runs by an ExternalSorter (combine applied when the app allows it —
//    GraFBoost's requirement for its sort-reduce to stay cheap);
//  * at the next superstep the runs are k-way merged (multi-pass when the
//    log outgrows the merge fan-in — the cost that grows with log size);
//  * the engine streams the ENTIRE graph sequentially each superstep: per
//    the paper, "GraFBoost currently does not support loading only active
//    graph data". Inactive vertices cost no compute but their adjacency
//    pages are read anyway.
//
// The optional `use_combine = false` configuration is the paper's "adapted
// GraFBoost" for algorithms with non-mergeable updates (graph coloring):
// the single log then preserves every message and the external sort pays
// for all of them.
#pragma once

#include <memory>
#include <mutex>

#include "common/bitset.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/message_range.hpp"
#include "core/stats.hpp"
#include "core/vertex_program.hpp"
#include "core/vertex_value_store.hpp"
#include "graph/stored_csr.hpp"
#include "grafboost/external_sorter.hpp"
#include "multilog/record.hpp"

namespace mlvc::grafboost {

struct GraFBoostOptions {
  std::size_t memory_budget_bytes = 64_MiB;
  Superstep max_supersteps = 15;
  std::uint64_t seed = 1;
  /// Apply the app's combine operator in the sort-reduce (GraFBoost's
  /// native mode). False = the paper's "adapted" all-messages mode.
  bool use_combine = true;
  /// Merge fan-in; smaller values force more merge passes for a given log.
  std::size_t fan_in = 16;
};

template <core::VertexApp App>
class GraFBoostEngine {
 public:
  using Value = typename App::Value;
  using Message = typename App::Message;
  using Rec = multilog::Record<Message>;

  GraFBoostEngine(graph::StoredCsrGraph& graph, App app,
                  GraFBoostOptions options)
      : graph_(graph),
        app_(std::move(app)),
        options_(options),
        values_(graph.storage(), "grafboost/values", graph.num_vertices(),
                [this](VertexId v) { return app_.initial_value(v); }),
        sticky_active_(graph.num_vertices()) {
    for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
      if (app_.initially_active(v)) sticky_active_.set(v);
    }
    stats_.engine = options_.use_combine ? "GraFBoost" : "GraFBoost-adapted";
    stats_.app = app_.name();
    in_sorter_ = make_sorter(0);
    in_stream_ = in_sorter_->finish();  // empty input for superstep 0
    out_sorter_ = make_sorter(1);
  }

  template <typename StepFn>
  core::RunStats run_with_callback(StepFn&& on_superstep) {
    std::uint64_t pending_messages = 0;
    for (Superstep s = 0; s < options_.max_supersteps; ++s) {
      const bool any_input =
          (s == 0 ? sticky_active_.count() > 0
                  : pending_messages > 0 || sticky_active_.count() > 0);
      if (!any_input) break;
      core::SuperstepStats step = execute_superstep(s);
      pending_messages = step.messages_produced;
      const bool keep_going = on_superstep(step);
      stats_.supersteps.push_back(std::move(step));
      if (!keep_going) break;
    }
    return stats_;
  }

  core::RunStats run() {
    return run_with_callback([](const core::SuperstepStats&) { return true; });
  }

  std::vector<Value> values() const { return values_.all(); }
  const core::RunStats& stats() const { return stats_; }

  // ---- context -------------------------------------------------------------
  class Context {
   public:
    Context(GraFBoostEngine& engine, VertexId v, Superstep s,
            std::span<const VertexId> adjacency,
            std::span<const float> weights, Value value)
        : engine_(engine),
          v_(v),
          superstep_(s),
          adjacency_(adjacency),
          weights_(weights),
          value_(value) {}

    VertexId id() const { return v_; }
    Superstep superstep() const { return superstep_; }
    VertexId num_vertices() const { return engine_.graph_.num_vertices(); }

    const Value& value() const { return value_; }
    void set_value(const Value& v) { value_ = v; }

    std::size_t out_degree() const { return adjacency_.size(); }
    VertexId out_edge(std::size_t i) const { return adjacency_[i]; }
    float out_weight(std::size_t i) const {
      return weights_.empty() ? 1.0f : weights_[i];
    }

    void send(VertexId dst, const Message& m) {
      Rec rec{dst, m};
      std::lock_guard<std::mutex> lock(engine_.sorter_mutex_);
      engine_.out_sorter_->add(&rec);
    }
    void send_to_all_neighbors(const Message& m) {
      for (VertexId dst : adjacency_) send(dst, m);
    }

    void deactivate() { deactivated_ = true; }

    SplitMix64 rng() const {
      return stream_for(engine_.options_.seed, v_, superstep_);
    }

    bool deactivated() const { return deactivated_; }
    const Value& current_value() const { return value_; }

   private:
    GraFBoostEngine& engine_;
    VertexId v_;
    Superstep superstep_;
    std::span<const VertexId> adjacency_;
    std::span<const float> weights_;
    Value value_;
    bool deactivated_ = false;
  };

 private:
  friend class Context;

  std::unique_ptr<ExternalSorter> make_sorter(Superstep s) {
    ExternalSorter::Config cfg;
    cfg.record_size = sizeof(Rec);
    cfg.key_offset = offsetof(Rec, dst);
    // Half the budget buffers the outgoing log; the streaming graph reads
    // use the rest.
    cfg.memory_budget_bytes = options_.memory_budget_bytes / 2;
    cfg.fan_in = options_.fan_in;
    if constexpr (App::kHasCombine) {
      if (options_.use_combine) {
        cfg.combine = [this](void* acc, const void* other) {
          Rec* a = static_cast<Rec*>(acc);
          const Rec* b = static_cast<const Rec*>(other);
          a->payload = app_.combine(a->payload, b->payload);
        };
      }
    }
    return std::make_unique<ExternalSorter>(
        graph_.storage(), "grafboost/s" + std::to_string(s), cfg);
  }

  core::SuperstepStats execute_superstep(Superstep s) {
    core::SuperstepStats step;
    step.superstep = s;
    auto& storage = graph_.storage();
    const auto io_before = storage.stats().snapshot();
    const auto dev_before = storage.device().snapshot();
    WallTimer wall;

    std::uint64_t active_count = 0;
    std::uint64_t consumed = 0;
    const std::uint64_t produced_before = 0;
    std::uint64_t produced = produced_before;

    // Stream the whole graph, interval by interval, chunk by chunk.
    const auto& intervals = graph_.intervals();
    const std::size_t chunk_budget =
        std::max<std::size_t>(options_.memory_budget_bytes / 4, 64_KiB);

    Rec rec{};
    std::uint32_t next_key = 0;
    bool have_key = in_stream_->peek_key(next_key);

    std::vector<Rec> inbox;  // messages of the current vertex
    for (IntervalId i = 0; i < intervals.count(); ++i) {
      const VertexId vb = intervals.begin(i);
      const VertexId ve = intervals.end(i);
      // Row pointers for the whole interval, windowed.
      constexpr VertexId kRowWindow = 64 * 1024;
      for (VertexId wb = vb; wb < ve;) {
        const VertexId we = std::min<VertexId>(ve, wb + kRowWindow);
        std::vector<EdgeIndex> rowptr(we - wb + 1);
        graph_.read_local_row_ptrs(i, wb - vb, rowptr.size(), rowptr);

        // Sub-chunks of vertices whose adjacency fits the chunk budget.
        VertexId cb = wb;
        while (cb < we) {
          VertexId cend = cb;
          while (cend < we &&
                 (rowptr[cend + 1 - wb] - rowptr[cb - wb]) * sizeof(VertexId) <=
                     chunk_budget) {
            ++cend;
          }
          if (cend == cb) ++cend;  // a single oversized vertex: take it alone
          const EdgeIndex lo = rowptr[cb - wb];
          const EdgeIndex hi = rowptr[cend - wb];
          // GraFBoost reads the graph wholesale: every adjacency byte of the
          // chunk is fetched, active or not.
          std::vector<VertexId> adjacency(hi - lo);
          graph_.read_adjacency(i, lo, hi, adjacency);
          std::vector<float> weights;
          if constexpr (App::kNeedsWeights) {
            weights.resize(hi - lo);
            graph_.read_values(i, lo, hi, weights);
          }
          std::vector<Value> vals = values_.load_range(cb, cend);

          for (VertexId v = cb; v < cend; ++v) {
            // Collect v's messages from the merged stream.
            inbox.clear();
            while (have_key && next_key == v) {
              in_stream_->next(&rec);
              inbox.push_back(rec);
              ++consumed;
              have_key = in_stream_->peek_key(next_key);
            }
            const bool active = !inbox.empty() || sticky_active_.test(v);
            if (!active) continue;
            ++active_count;

            const EdgeIndex alo = rowptr[v - wb] - lo;
            const EdgeIndex ahi = rowptr[v + 1 - wb] - lo;
            Context ctx(
                *this, v, s,
                std::span<const VertexId>(adjacency.data() + alo, ahi - alo),
                App::kNeedsWeights
                    ? std::span<const float>(weights.data() + alo, ahi - alo)
                    : std::span<const float>{},
                vals[v - cb]);
            // The sorted single log groups by dst, so per-vertex messages
            // are contiguous Recs in `inbox`.
            const auto msgs = core::MessageRange<Message>::from_records(
                std::span<const Rec>(inbox.data(), inbox.size()));
            app_.process(ctx, msgs);
            vals[v - cb] = ctx.current_value();
            sticky_active_.set(v, !ctx.deactivated());
          }
          values_.store_range(cb, vals);
          cb = cend;
        }
        wb = we;
      }
    }
    produced = out_sorter_->records_added();

    // GraFBoost's sort-reduce runs as part of the superstep that generated
    // the log (generate -> sort-reduce -> apply): perform the run flush and
    // any multi-pass merges NOW so their I/O is charged to this superstep —
    // this is the cost that grows with log size and dominates for large
    // logs (§VIII, Figure 8).
    in_sorter_ = std::move(out_sorter_);
    in_stream_ = in_sorter_->finish();
    out_sorter_ = make_sorter(s + 2);

    step.active_vertices = active_count;
    step.messages_consumed = consumed;
    step.messages_produced = produced;
    step.edges_activated = produced;
    step.total_wall_seconds = wall.elapsed_seconds();
    step.compute_wall_seconds = step.total_wall_seconds;
    step.io = storage.stats().snapshot() - io_before;
    step.modeled_storage_seconds = storage.device().modeled_seconds_between(
        dev_before, storage.device().snapshot());
    return step;
  }

  graph::StoredCsrGraph& graph_;
  App app_;
  GraFBoostOptions options_;
  core::VertexValueStore<Value> values_;
  DynamicBitset sticky_active_;
  core::RunStats stats_;
  /// Input side: the sorter must outlive its merge stream (the stream reads
  /// the sorter's run blobs).
  std::unique_ptr<ExternalSorter> in_sorter_;
  std::unique_ptr<ExternalSorter::Stream> in_stream_;
  std::unique_ptr<ExternalSorter> out_sorter_;
  std::mutex sorter_mutex_;
};

}  // namespace mlvc::grafboost
