// The GraphChi baseline engine (§II.A and §VI of the paper).
//
// Parallel-sliding-windows execution: for each vertex interval, load its
// whole shard (all in-edges) plus the interval's out-edge windows from every
// other shard, process vertices, write modified blocks back. The defining
// property the paper exploits: even one active vertex in an interval forces
// the entire shard (and all its windows) to be read — shard I/O does not
// shrink with the active set.
//
// Semantics are strict BSP (messages sent at superstep s are consumed at
// s+1, via the double-slot records in ShardedGraph), so any application
// produces identical results on this engine and on MultiLogVC — the
// equivalence the integration tests assert.
#pragma once

#include <atomic>
#include <cstring>

#include "common/bitset.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/message_range.hpp"
#include "core/options.hpp"
#include "core/stats.hpp"
#include "core/vertex_program.hpp"
#include "core/vertex_value_store.hpp"
#include "graphchi/sharded_graph.hpp"

namespace mlvc::graphchi {

struct GraphChiOptions {
  std::size_t memory_budget_bytes = 64_MiB;
  Superstep max_supersteps = 15;
  std::uint64_t seed = 1;
};

template <core::VertexApp App>
class GraphChiEngine {
 public:
  using Value = typename App::Value;
  using Message = typename App::Message;

  GraphChiEngine(ssd::Storage& storage, const graph::CsrGraph& csr, App app,
                 GraphChiOptions options)
      : app_(std::move(app)),
        options_(options),
        shards_(storage, "graphchi", csr,
                partition_for_shards(csr, 12 + 2 * ((sizeof(Message) + 3) / 4 * 4),
                                     options.memory_budget_bytes),
                sizeof(Message)),
        values_(storage, "graphchi/values", csr.num_vertices(),
                [this](VertexId v) { return app_.initial_value(v); }),
        sticky_active_(csr.num_vertices()) {
    MLVC_CHECK_MSG(!App::kNeedsWeights,
                   "the GraphChi baseline stores messages in edge values and "
                   "does not materialize separate edge weights");
    for (VertexId v = 0; v < csr.num_vertices(); ++v) {
      if (app_.initially_active(v)) sticky_active_.set(v);
    }
    stats_.engine = "GraphChi";
    stats_.app = app_.name();
  }

  template <typename StepFn>
  core::RunStats run_with_callback(StepFn&& on_superstep) {
    std::uint64_t prev_messages = 0;
    for (Superstep s = 0; s < options_.max_supersteps; ++s) {
      const bool any_input = (s == 0) || prev_messages > 0 ||
                             sticky_active_.count() > 0;
      if (!any_input) break;
      if (s == 0 && sticky_active_.count() == 0) break;
      core::SuperstepStats step = execute_superstep(s);
      prev_messages = step.messages_produced;
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
  const ShardedGraph& shards() const { return shards_; }

  // ---- context -------------------------------------------------------------
  class Context {
   public:
    Context(GraphChiEngine& engine, VertexId v, Superstep s,
            std::span<std::byte* const> out_records, Value value)
        : engine_(engine),
          v_(v),
          superstep_(s),
          out_records_(out_records),
          value_(value) {}

    VertexId id() const { return v_; }
    Superstep superstep() const { return superstep_; }
    VertexId num_vertices() const { return engine_.shards_.num_vertices(); }

    const Value& value() const { return value_; }
    void set_value(const Value& v) { value_ = v; }

    std::size_t out_degree() const { return out_records_.size(); }
    VertexId out_edge(std::size_t i) const {
      VertexId dst;
      std::memcpy(&dst, out_records_[i] + engine_.shards_.dst_offset(),
                  sizeof(VertexId));
      return dst;
    }
    float out_weight(std::size_t) const { return 1.0f; }

    void send(VertexId dst, const Message& m) {
      for (std::size_t i = 0; i < out_records_.size(); ++i) {
        if (out_edge(i) == dst) {
          engine_.write_message(out_records_[i], superstep_, m);
          return;
        }
      }
      MLVC_CHECK_MSG(false, "GraphChi send() target " << dst
                                                      << " is not an out-"
                                                         "neighbor of "
                                                      << v_);
    }
    void send_to_all_neighbors(const Message& m) {
      for (std::size_t i = 0; i < out_records_.size(); ++i) {
        engine_.write_message(out_records_[i], superstep_, m);
      }
    }

    void deactivate() { deactivated_ = true; }

    SplitMix64 rng() const {
      return stream_for(engine_.options_.seed, v_, superstep_);
    }

    bool deactivated() const { return deactivated_; }
    const Value& current_value() const { return value_; }

   private:
    GraphChiEngine& engine_;
    VertexId v_;
    Superstep superstep_;
    std::span<std::byte* const> out_records_;
    Value value_;
    bool deactivated_ = false;
  };

 private:
  friend class Context;

  void write_message(std::byte* record, Superstep s, const Message& m) {
    const unsigned slot = s % 2;
    std::memcpy(record + shards_.payload_offset(slot), &m, sizeof(Message));
    const std::uint16_t stamp = static_cast<std::uint16_t>(s);
    std::memcpy(record + shards_.stamp_offset(slot), &stamp, 2);
    messages_produced_.fetch_add(1, std::memory_order_relaxed);
  }

  core::SuperstepStats execute_superstep(Superstep s) {
    core::SuperstepStats step;
    step.superstep = s;
    auto& storage = shards_.storage();
    const auto io_before = storage.stats().snapshot();
    const auto dev_before = storage.device().snapshot();
    WallTimer wall;

    messages_produced_.store(0, std::memory_order_relaxed);
    const auto& intervals = shards_.intervals();
    const IntervalId p = shards_.num_shards();
    const std::size_t rec = shards_.record_size();
    std::uint64_t active_count = 0;
    std::uint64_t consumed = 0;

    for (IntervalId i = 0; i < p; ++i) {
      const VertexId vb = intervals.begin(i);
      const VertexId ve = intervals.end(i);
      const VertexId width = ve - vb;

      // ---- load: memory shard + this interval's window in every shard ----
      std::vector<std::vector<std::byte>> blocks(p);
      std::vector<ShardedGraph::WindowRange> ranges(p);
      std::vector<std::uint8_t> dirty(p, 0);
      for (IntervalId j = 0; j < p; ++j) {
        if (j == i) {
          ranges[j] = {0, shards_.shard_edge_count(j)};
        } else {
          ranges[j] = shards_.window(j, i);
        }
        shards_.load_records(j, ranges[j].first, ranges[j].last, blocks[j]);
      }

      // ---- phase 1: harvest last superstep's messages from in-edges ------
      // (read-only pass, so in-place sends in phase 2 cannot clobber
      // unconsumed input: the double-slot records keep slots disjoint).
      std::vector<std::vector<Message>> inbox(width);
      if (s > 0) {
        const unsigned slot = (s - 1) % 2;
        const std::uint16_t want = static_cast<std::uint16_t>(s - 1);
        const std::vector<std::byte>& mem = blocks[i];
        const std::size_t n_records = mem.size() / rec;
        for (std::size_t r = 0; r < n_records; ++r) {
          const std::byte* record = mem.data() + r * rec;
          std::uint16_t stamp;
          std::memcpy(&stamp, record + shards_.stamp_offset(slot), 2);
          if (stamp != want) continue;
          VertexId dst;
          std::memcpy(&dst, record + shards_.dst_offset(), sizeof(VertexId));
          Message m;
          std::memcpy(&m, record + shards_.payload_offset(slot),
                      sizeof(Message));
          inbox[dst - vb].push_back(m);
          ++consumed;
        }
      }

      // ---- out-edge index: records with src in this interval -------------
      std::vector<std::vector<std::byte*>> out_records(width);
      for (IntervalId j = 0; j < p; ++j) {
        const auto wr = j == i ? shards_.window(j, i) : ranges[j];
        // Window records inside blocks[j] start at (wr.first - ranges[j].first).
        for (EdgeIndex r = wr.first; r < wr.last; ++r) {
          std::byte* record =
              blocks[j].data() + (r - ranges[j].first) * rec;
          VertexId src;
          std::memcpy(&src, record + shards_.src_offset(), sizeof(VertexId));
          out_records[src - vb].push_back(record);
        }
      }

      // ---- actives: receivers ∪ sticky ------------------------------------
      std::vector<VertexId> actives;
      for (VertexId v = vb; v < ve; ++v) {
        if (!inbox[v - vb].empty() || sticky_active_.test(v)) {
          actives.push_back(v);
        }
      }
      active_count += actives.size();

      // ---- phase 2: process -------------------------------------------------
      // GraphChi sweeps the interval's full vertex-value range regardless of
      // how many vertices are active.
      std::vector<Value> vals = values_.load_range(vb, ve);
      std::vector<std::uint8_t> block_dirty(p, 0);
      std::vector<std::uint8_t> deactivated(actives.size(), 0);
      parallel_for(std::size_t{0}, actives.size(), [&](std::size_t k) {
        const VertexId v = actives[k];
        Context ctx(*this, v, s, out_records[v - vb], vals[v - vb]);
        const auto msgs =
            core::MessageRange<Message>::from_array(inbox[v - vb]);
        app_.process(ctx, msgs);
        vals[v - vb] = ctx.current_value();
        deactivated[k] = ctx.deactivated() ? 1 : 0;
      });
      for (std::size_t k = 0; k < actives.size(); ++k) {
        sticky_active_.set(actives[k], deactivated[k] == 0);
      }
      // A block is dirty iff some record in it received a message this
      // superstep (stamp slot s%2 == s); a cheap scan that spares GraphChi
      // write-backs of untouched windows in sparse supersteps.
      {
        const unsigned slot = s % 2;
        const std::uint16_t want = static_cast<std::uint16_t>(s);
        for (IntervalId j = 0; j < p; ++j) {
          const std::size_t n_records = blocks[j].size() / rec;
          for (std::size_t r = 0; r < n_records; ++r) {
            std::uint16_t stamp;
            std::memcpy(&stamp,
                        blocks[j].data() + r * rec + shards_.stamp_offset(slot),
                        2);
            if (stamp == want) {
              block_dirty[j] = 1;
              break;
            }
          }
        }
      }

      // ---- write back ------------------------------------------------------
      for (IntervalId j = 0; j < p; ++j) {
        if (block_dirty[j] && !blocks[j].empty()) {
          shards_.store_records(j, ranges[j].first, blocks[j]);
        }
      }
      values_.store_range(vb, vals);
    }

    step.active_vertices = active_count;
    step.messages_consumed = consumed;
    step.messages_produced = messages_produced_.load();
    step.edges_activated = step.messages_produced;
    step.total_wall_seconds = wall.elapsed_seconds();
    step.compute_wall_seconds = step.total_wall_seconds;
    step.io = storage.stats().snapshot() - io_before;
    step.modeled_storage_seconds = storage.device().modeled_seconds_between(
        dev_before, storage.device().snapshot());
    return step;
  }

  App app_;
  GraphChiOptions options_;
  ShardedGraph shards_;
  core::VertexValueStore<Value> values_;
  DynamicBitset sticky_active_;
  core::RunStats stats_;
  std::atomic<std::uint64_t> messages_produced_{0};
};

}  // namespace mlvc::graphchi
