// The MultiLogVC engine: Algorithm 1 of the paper.
//
// Per superstep (one wave):
//   1. plan the wave's chains (plan_wave): every interval is released and
//      ordered — id order under SchedulePolicy::kBsp, IntervalScheduler
//      priority order otherwise (DESIGN.md §4c) — and runs of id-consecutive
//      push intervals in that order fuse while their current message logs
//      fit the sort budget (§V.A.2); an interval that pulls this superstep
//      (§4e) is always a chain of its own;
//   2. per chain: LoadLog() its intervals' logs (or, for a pulled interval,
//      regenerate its input from the transpose CSR and the captured
//      broadcasts), sort in memory by destination, optionally combine
//      (§V.D), and ExtractActiveVert();
//   3. per interval, in loader-budget-bounded batches of active vertices:
//      gather vertex values, load adjacency through the Graph Loader Unit
//      (edge-log hits first, then page-coalesced CSR reads), run the
//      application's ProcessVertex in parallel, route its SendUpdate()s
//      through per-thread staging buffers into the produce-generation
//      multi-log (flushed in chunks at batch end; for apps with a combine,
//      folded per destination before they spill), apply the §V.C edge-log
//      decision, scatter values back;
//   4. under the asynchronous model, redeliver: each interval whose produce
//      log grew during the wave gets one drain-only chain, so same-wave
//      sends arrive before the generation swap (§V.F);
//   5. close the superstep: score/advance the predictor, summarize page
//      utilization, apply buffered structural updates, swap log generations.
//
// With options.enable_pipeline the superstep is staged (§VI async I/O) by
// one prefetch rule: chain k+1's load/decode/sort (or pull fold) runs on
// ssd::AsyncIo threads while chain k computes, and within an interval the
// next active-vertex batches' adjacency/value loads run up to
// options.prefetch_depth ahead of the batch being computed. A chain's inputs
// are fixed at wave start (current log generation, sticky set, captured
// broadcasts) and sends write only the produce side, so every chain of the
// sweep may load early. Redelivery reads same-wave sends and stays serial.
// Vertex values are identical to the serial path; only the overlap changes.
#pragma once

#include <algorithm>
#include <array>
#include <cstring>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>

#include "common/bitset.hpp"
#include "common/checksum.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/graph_loader.hpp"
#include "core/interval_scheduler.hpp"
#include "core/message_range.hpp"
#include "core/options.hpp"
#include "core/runtime_context.hpp"
#include "core/stats.hpp"
#include "core/vertex_program.hpp"
#include "core/vertex_value_store.hpp"
#include "graph/stored_csr.hpp"
#include "multilog/active_set.hpp"
#include "multilog/edge_log.hpp"
#include "multilog/multilog_store.hpp"
#include "multilog/page_util.hpp"
#include "multilog/predictor.hpp"
#include "multilog/sort_group.hpp"
#include "ssd/async_io.hpp"

namespace mlvc::core {

/// Compute the paper's §V.A.1 interval partition for an app's message size.
template <VertexApp App>
graph::VertexIntervals partition_for_app(const graph::CsrGraph& csr,
                                         const EngineOptions& options) {
  const auto in_degrees = csr.in_degrees();
  return graph::VertexIntervals::partition_by_in_degree(
      in_degrees, sizeof(multilog::Record<typename App::Message>),
      options.sort_budget());
}

template <VertexApp App>
class MultiLogVCEngine {
 public:
  using Value = typename App::Value;
  using Message = typename App::Message;
  using Rec = multilog::Record<Message>;

  /// One-shot constructor: the engine owns its whole substrate — it sizes a
  /// private adjacency cache, sets the storage retry policy, and selects the
  /// io backend itself. Blob names live under the fixed "mlvc" prefix.
  MultiLogVCEngine(graph::StoredCsrGraph& graph, App app,
                   EngineOptions options)
      : MultiLogVCEngine(nullptr, 0, graph, std::move(app), options) {}

  /// Context-mode constructor: one per-QUERY engine over shared per-PROCESS
  /// substrate. The engine
  ///   * leases its memory_budget_bytes from the context's BudgetArbiter
  ///     (blocking in the constructor until admitted — this is query
  ///     admission control),
  ///   * registers a QuerySlot in the shared adjacency cache with an
  ///     admission quota of options.adjacency_cache_bytes (0 = compete for
  ///     the whole cache),
  ///   * namespaces every blob it creates under "q<id>" so concurrent
  ///     engines on one Storage cannot collide,
  ///   * inherits the context's io backend and retry policy instead of
  ///     mutating shared Storage state, and
  ///   * attributes its I/O to a private IoStats (step.io stays a per-query
  ///     number even while other queries hammer the same Storage).
  /// The graph must already be adopted (RuntimeContext::adopt_graph).
  MultiLogVCEngine(RuntimeContext& ctx, graph::StoredCsrGraph& graph, App app,
                   EngineOptions options)
      : MultiLogVCEngine(&ctx, ctx.next_query_id(), graph, std::move(app),
                         options) {
    MLVC_CHECK_MSG(&graph.storage() == &ctx.storage(),
                   "context-mode engine needs a graph stored in the "
                   "context's storage");
  }

  /// Run to convergence or options.max_supersteps. An optional callback is
  /// invoked after each superstep with its stats (benches use this to stop
  /// BFS at a traversal fraction, etc.); returning false stops the run.
  /// Continues from the last executed superstep, so run() after
  /// load_checkpoint() resumes where the checkpoint was taken.
  template <typename StepFn>
  RunStats run_with_callback(StepFn&& on_superstep) {
    for (Superstep s = next_superstep_; s < options_.max_supersteps; ++s) {
      // §4e: suppressed (never-logged) deliveries are pending whenever last
      // superstep captured broadcasts and some interval is planned to pull —
      // without the third clause a wave whose sends were ALL suppressed
      // would terminate one superstep early.
      const bool any_input = store_.total_current_count() > 0 ||
                             sticky_active_.count() > 0 ||
                             (any_pull_next_ && frontier_cur_.any());
      if (!any_input) break;
      SuperstepStats step = execute_superstep(s);
      next_superstep_ = s + 1;
      const bool keep_going = on_superstep(step);
      stats_.supersteps.push_back(std::move(step));
      if (!keep_going) break;
    }
    // Per-query cache split (context mode): cumulative QuerySlot counters —
    // a resumed run reports the totals so far, which is what callers merge.
    if (const auto* slot = cache_reg_.slot(); slot != nullptr) {
      stats_.query_cache_hit_pages = slot->hits();
      stats_.query_cache_miss_pages = slot->misses();
      stats_.query_cache_bypass_pages = slot->bypasses();
    }
    return stats_;
  }

  // ---- checkpoint / rollback (superstep-boundary fault tolerance) ---------
  //
  // A checkpoint captures everything needed to re-execute from the next
  // superstep: the superstep counter, vertex values, the sticky-active set,
  // and the pending (current-generation) message logs. The edge log is an
  // optimization cache and is simply dropped on rollback. Limitation:
  // structural updates already merged into the stored CSR are not rolled
  // back — checkpoint before mutating the graph.
  //
  // On-disk layout: a 20-byte header [u32 magic, u32 version,
  // u64 payload_bytes, u32 crc32-of-payload] followed by the payload. The
  // image is written to a ".tmp" blob, fsynced, then atomically renamed over
  // the final name (Storage::publish_blob), so a crash mid-save leaves the
  // previous checkpoint intact; the CRC catches torn or bit-flipped images
  // at load time before any engine state is touched.
  //
  // Version 3 payloads start with one byte naming the OnDiskFormat of the
  // embedded log images; version 2 images (pre-format-v2 checkpoints) are
  // still accepted and treated as v1-format logs. A mismatch between the
  // image's log format and the running store's is transcoded through the
  // log codec on load, so checkpoints round-trip across --format changes.
  //
  // Version 4 appends the §4e direction state after the values: the
  // per-interval direction plan for the next superstep plus the captured
  // broadcasts (vertex ids + messages) whose suppressed sends never reached
  // the message logs. v2/v3 images are still accepted (no pull state). A v4
  // image that carries pull state refuses to load into an engine that cannot
  // pull — silently dropping it would lose in-flight deliveries.

  static constexpr std::uint32_t kCkptMagic = 0x4B435643u;  // "CVCK"
  static constexpr std::uint32_t kCkptVersion = 4;
  static constexpr std::size_t kCkptHeaderBytes = 20;

  /// Persist a checkpoint into the graph's storage under `name`. One-shot
  /// engines publish directly under their prefix; context-mode engines
  /// stage the image under their own "q<id>" prefix and hand it to the
  /// context SnapshotTable, which owns generation-versioned atomic
  /// publication (a concurrent reader's pinned snapshot never observes a
  /// half-published or superseded image).
  void save_checkpoint(const std::string& name) {
    auto& storage = graph_.storage();
    const std::string final_name = blob_prefix_ + "/ckpt_" + name;
    const std::string tmp_name = final_name + ".tmp";
    ssd::Blob& blob = storage.create_blob(tmp_name, ssd::IoCategory::kMisc);
    // Reserve the header; written last, once the payload size and CRC are
    // known.
    const std::array<std::byte, kCkptHeaderBytes> zero_header{};
    blob.append(zero_header.data(), zero_header.size());
    std::uint32_t crc = crc32_init();
    std::uint64_t payload_bytes = 0;
    const auto put = [&](const void* data, std::size_t len) {
      blob.append(data, len);
      crc = crc32_update(crc, data, len);
      payload_bytes += len;
    };
    put(&next_superstep_, 4);
    const std::uint8_t log_format = static_cast<std::uint8_t>(store_.format());
    put(&log_format, 1);
    const auto words = sticky_active_.words();
    const std::uint64_t n_words = words.size();
    put(&n_words, 8);
    put(words.data(), words.size_bytes());
    const IntervalId n_int = graph_.intervals().count();
    put(&n_int, 4);
    std::vector<std::byte> bytes;
    std::uint64_t stored_log_bytes = 0;
    std::uint64_t decoded_log_bytes = 0;
    for (IntervalId i = 0; i < n_int; ++i) {
      bytes.clear();
      store_.load_interval(i, bytes);
      stored_log_bytes += bytes.size();
      decoded_log_bytes += store_.current_bytes(i);
      const std::uint64_t n_bytes = bytes.size();
      put(&n_bytes, 8);
      put(bytes.data(), bytes.size());
    }
    values_.for_each_chunk([&](VertexId, std::span<const Value> chunk) {
      put(chunk.data(), chunk.size_bytes());
    });
    // ---- v4 appendix: §4e direction state ---------------------------------
    // At a superstep boundary direction_next_ is the plan for
    // next_superstep_, and broadcast_cur_/frontier_cur_ hold the previous
    // superstep's captured broadcasts — deliveries the suppressed sends
    // never wrote to the logs, reconstructible only from here.
    const std::uint32_t n_dir =
        static_cast<std::uint32_t>(direction_next_.size());
    put(&n_dir, 4);
    put(direction_next_.data(), direction_next_.size());
    const auto fwords = frontier_cur_.words();
    const std::uint64_t n_fwords = fwords.size();
    put(&n_fwords, 8);
    put(fwords.data(), fwords.size_bytes());
    std::vector<VertexId> bids;
    frontier_cur_.for_each_set([&](VertexId v) { bids.push_back(v); });
    const std::uint64_t n_bcast = bids.size();
    put(&n_bcast, 8);
    if (!bids.empty()) {
      const std::vector<Message> bmsgs = broadcast_cur_->gather(bids);
      put(bids.data(), bids.size() * sizeof(VertexId));
      put(bmsgs.data(), bmsgs.size() * sizeof(Message));
    }
    // Logical (decoded-content) checkpoint size vs the physical payload the
    // blob sees — under v2 the embedded log images are compressed.
    storage.stats().record_logical_write(
        ssd::IoCategory::kMisc,
        payload_bytes - stored_log_bytes + decoded_log_bytes);

    std::array<std::byte, kCkptHeaderBytes> header{};
    const std::uint32_t crc_value = crc32_final(crc);
    std::memcpy(header.data() + 0, &kCkptMagic, 4);
    std::memcpy(header.data() + 4, &kCkptVersion, 4);
    std::memcpy(header.data() + 8, &payload_bytes, 8);
    std::memcpy(header.data() + 16, &crc_value, 4);
    blob.write(0, header.data(), header.size());
    blob.sync();
    if (ctx_ != nullptr) {
      ctx_->snapshots().publish("ckpt/" + name, tmp_name);
    } else {
      storage.publish_blob(tmp_name, final_name);
    }
  }

  /// Roll engine state back to a previously saved checkpoint.
  void load_checkpoint(const std::string& name) {
    // Context mode: pin a read snapshot for the whole load — the pin keeps
    // this generation's blob alive even if another query publishes (and so
    // supersedes) the same checkpoint name mid-read.
    SnapshotTable::Ref snapshot;
    if (ctx_ != nullptr) snapshot = ctx_->snapshots().pin();
    ssd::Blob& blob = graph_.storage().open_blob(
        ctx_ != nullptr ? snapshot.resolve("ckpt/" + name)
                        : blob_prefix_ + "/ckpt_" + name);
    MLVC_CHECK_MSG(blob.size() >= kCkptHeaderBytes,
                   "checkpoint blob too small for a header");
    std::array<std::byte, kCkptHeaderBytes> header{};
    blob.read(0, header.data(), header.size());
    std::uint32_t magic = 0, version = 0, stored_crc = 0;
    std::uint64_t payload_bytes = 0;
    std::memcpy(&magic, header.data() + 0, 4);
    std::memcpy(&version, header.data() + 4, 4);
    std::memcpy(&payload_bytes, header.data() + 8, 8);
    std::memcpy(&stored_crc, header.data() + 16, 4);
    MLVC_CHECK_MSG(magic == kCkptMagic, "not a checkpoint blob");
    // Version 2 = pre-format-v2 images (no log-format byte, logs are v1);
    // version 3 = pre-direction images (no §4e appendix).
    MLVC_CHECK_MSG(
        version == kCkptVersion || version == 3 || version == 2,
        "unsupported checkpoint version " << version);
    MLVC_CHECK_MSG(kCkptHeaderBytes + payload_bytes <= blob.size(),
                   "checkpoint payload truncated");
    // Verify the payload CRC in a streaming pass BEFORE parsing anything, so
    // a torn or corrupt image never leaves the engine half-restored.
    {
      std::uint32_t crc = crc32_init();
      std::vector<std::byte> chunk(std::min<std::uint64_t>(
          payload_bytes > 0 ? payload_bytes : 1, 1u << 20));
      std::uint64_t pos = kCkptHeaderBytes;
      std::uint64_t remaining = payload_bytes;
      while (remaining > 0) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(chunk.size(), remaining));
        blob.read(pos, chunk.data(), n);
        crc = crc32_update(crc, chunk.data(), n);
        pos += n;
        remaining -= n;
      }
      MLVC_CHECK_MSG(crc32_final(crc) == stored_crc,
                     "checkpoint CRC mismatch — torn or corrupt image");
    }
    std::uint64_t off = kCkptHeaderBytes;
    const auto read = [&](void* out, std::size_t len) {
      blob.read(off, out, len);
      off += len;
    };
    read(&next_superstep_, 4);
    auto image_format = OnDiskFormat::kV1;
    if (version >= 3) {
      std::uint8_t fmt = 0;
      read(&fmt, 1);
      MLVC_CHECK_MSG(fmt == static_cast<std::uint8_t>(OnDiskFormat::kV1) ||
                         fmt == static_cast<std::uint8_t>(OnDiskFormat::kV2),
                     "unknown checkpoint log format " << unsigned(fmt));
      image_format = static_cast<OnDiskFormat>(fmt);
    }
    std::uint64_t n_words = 0;
    read(&n_words, 8);
    std::vector<std::uint64_t> words(n_words);
    read(words.data(), n_words * 8);
    sticky_active_.load_words(words);
    IntervalId n_int = 0;
    read(&n_int, 4);
    MLVC_CHECK(n_int == graph_.intervals().count());
    // Records staged by an aborted superstep must not flush into the
    // rolled-back generations.
    for (auto& ts : thread_state_) ts.staging.discard();
    store_.reset_all();
    std::vector<std::byte> bytes;
    std::uint64_t stored_log_bytes = 0;
    std::uint64_t decoded_log_bytes = 0;
    for (IntervalId i = 0; i < n_int; ++i) {
      std::uint64_t n_bytes = 0;
      read(&n_bytes, 8);
      bytes.resize(n_bytes);
      read(bytes.data(), n_bytes);
      stored_log_bytes += n_bytes;
      if (image_format == store_.format()) {
        store_.restore_current_interval(i, bytes);
      } else if (store_.format() == OnDiskFormat::kV2) {
        // v1 image into a v2 store: compress on the way in.
        std::vector<std::uint8_t> enc;
        multilog::encode_records_to_chunks(
            bytes, sizeof(Rec), multilog::kPayloadVarint<Message>, enc);
        store_.restore_current_interval(
            i, std::as_bytes(std::span<const std::uint8_t>(enc)));
      } else {
        // v2 image into a v1 store: expand back to fixed-width records.
        std::vector<std::byte> raw;
        multilog::decode_chunks_to_records(
            bytes, sizeof(Rec), multilog::kPayloadVarint<Message>, raw);
        store_.restore_current_interval(i, raw);
      }
      decoded_log_bytes += store_.current_bytes(i);
    }
    graph_.storage().stats().record_logical_read(
        ssd::IoCategory::kMisc,
        payload_bytes - stored_log_bytes + decoded_log_bytes);
    {
      constexpr VertexId kChunk = 1u << 16;
      std::vector<Value> chunk;
      VertexId begin = 0;
      const VertexId n = graph_.num_vertices();
      while (begin < n) {
        const VertexId end = static_cast<VertexId>(std::min<std::uint64_t>(
            n, static_cast<std::uint64_t>(begin) + kChunk));
        chunk.resize(end - begin);
        read(chunk.data(), chunk.size() * sizeof(Value));
        values_.store_range(begin, chunk);
        begin = end;
      }
    }
    // ---- v4 appendix: §4e direction state ---------------------------------
    // Clear pull state first so pre-v4 images (and v4 images taken from
    // push-only runs) roll back to a clean push start.
    std::fill(direction_next_.begin(), direction_next_.end(), 0);
    any_pull_next_ = false;
    frontier_cur_.clear_all();
    frontier_next_.clear_all();
    plan_produced_last_ = 0;
    plan_produced_prev_ = 0;
    if (version >= 4) {
      std::uint32_t n_dir = 0;
      read(&n_dir, 4);
      std::vector<std::uint8_t> dirs(n_dir);
      read(dirs.data(), n_dir);
      std::uint64_t n_fwords = 0;
      read(&n_fwords, 8);
      std::vector<std::uint64_t> fwords(n_fwords);
      read(fwords.data(), n_fwords * 8);
      std::uint64_t n_bcast = 0;
      read(&n_bcast, 8);
      std::vector<VertexId> bids(n_bcast);
      std::vector<Message> bmsgs(n_bcast);
      if (n_bcast > 0) {
        read(bids.data(), n_bcast * sizeof(VertexId));
        read(bmsgs.data(), n_bcast * sizeof(Message));
      }
      bool any_dir = false;
      for (const std::uint8_t d : dirs) any_dir = any_dir || d != 0;
      if (any_dir || n_bcast > 0) {
        MLVC_CHECK_MSG(
            pull_available_,
            "checkpoint carries pull-direction state but this engine cannot "
            "pull (no stored transpose, asynchronous model, or --direction "
            "push) — reload under a pull-capable configuration");
        MLVC_CHECK(dirs.size() == direction_next_.size());
        std::copy(dirs.begin(), dirs.end(), direction_next_.begin());
        any_pull_next_ = any_dir;
        if (n_fwords == frontier_cur_.words().size()) {
          frontier_cur_.load_words(fwords);
        } else {
          for (const VertexId v : bids) frontier_cur_.set(v);
        }
        if (n_bcast > 0) broadcast_cur_->scatter(bids, bmsgs);
      }
    }
    // Drop the edge-log cache and any un-applied structural updates.
    edge_log_.reset();
    {
      std::lock_guard<std::mutex> lock(structural_mutex_);
      structural_queue_.clear();
    }
  }

  RunStats run() {
    return run_with_callback([](const SuperstepStats&) { return true; });
  }

  std::vector<Value> values() const { return values_.all(); }
  /// Stream vertex values in id-ascending chunks without materializing the
  /// O(V) vector values() returns — the export/hash path for big graphs.
  /// fn(first_vertex_id, std::span<const Value>).
  template <typename Fn>
  void for_each_value_chunk(Fn&& fn) const {
    values_.for_each_chunk(std::forward<Fn>(fn));
  }
  const RunStats& stats() const { return stats_; }
  graph::StoredCsrGraph& graph() { return graph_; }
  /// Context-mode identity/views (query_id() is 0 for one-shot engines,
  /// cache_slot() null).
  std::uint64_t query_id() const noexcept { return query_id_; }
  const ssd::PageCache::QuerySlot* cache_slot() const noexcept {
    return cache_reg_.slot();
  }

  // ---- the vertex context passed to App::process --------------------------
  class Context {
   public:
    Context(MultiLogVCEngine& engine, VertexId v, Superstep superstep,
            const AdjacencyBatch& batch, std::size_t slot, Value value)
        : engine_(engine),
          v_(v),
          superstep_(superstep),
          batch_(batch),
          slot_(slot),
          value_(value) {}

    VertexId id() const { return v_; }
    Superstep superstep() const { return superstep_; }
    VertexId num_vertices() const { return engine_.graph_.num_vertices(); }

    const Value& value() const { return value_; }
    void set_value(const Value& v) {
      value_ = v;
      value_dirty_ = true;
    }

    std::size_t out_degree() const { return batch_.spans[slot_].length; }
    VertexId out_edge(std::size_t i) const {
      return batch_.adjacency[batch_.spans[slot_].offset + i];
    }
    float out_weight(std::size_t i) const {
      return batch_.weights.empty()
                 ? 1.0f
                 : batch_.weights[batch_.spans[slot_].offset + i];
    }
    std::span<const VertexId> out_edges() const {
      return {batch_.adjacency.data() + batch_.spans[slot_].offset,
              batch_.spans[slot_].length};
    }

    void send(VertexId dst, const Message& m) {
      // Lock-free scatter: the record goes into this thread's staging area
      // and the counters are thread-private; nothing shared is touched until
      // a staged chunk flushes (buffer-full here, batch end in the engine).
      auto& ts = engine_.thread_state_[thread_index()];
      multilog::append_record_staged<Message>(engine_.store_, ts.staging, dst,
                                              m);
      ++ts.messages_produced;
      ++ts.edges_activated;
    }
    void send_to_all_neighbors(const Message& m) {
      if (engine_.capture_broadcasts_) {
        // §4e broadcast capture: remember what this vertex broadcast (a
        // double broadcast folds through the app combine, exactly as the
        // log path would) and suppress the per-edge records destined to
        // intervals that will pull next superstep — those deliveries are
        // regenerated there from the transpose CSR plus this captured
        // message. Raw send() is never suppressed.
        broadcast_msg_ = broadcast_set_
                             ? combine_messages(engine_.app_, broadcast_msg_, m)
                             : m;
        broadcast_set_ = true;
        auto& ts = engine_.thread_state_[thread_index()];
        const auto& intervals = engine_.graph_.intervals();
        for (std::size_t i = 0; i < out_degree(); ++i) {
          const VertexId dst = out_edge(i);
          if (engine_.direction_next_[intervals.interval_of(dst)] != 0) {
            // The message logically exists — only its log record does not.
            ++ts.messages_produced;
            ++ts.edges_activated;
            ts.log_bytes_avoided += sizeof(Rec);
          } else {
            send(dst, m);
          }
        }
        return;
      }
      for (std::size_t i = 0; i < out_degree(); ++i) send(out_edge(i), m);
    }

    void deactivate() { deactivated_ = true; }

    /// §V.E structural updates; visible from the next superstep.
    void add_edge(VertexId dst, float weight = 1.0f) {
      engine_.queue_structural(
          {graph::StructuralUpdate::Kind::kAddEdge, v_, dst, weight});
    }
    void remove_edge(VertexId dst) {
      engine_.queue_structural(
          {graph::StructuralUpdate::Kind::kRemoveEdge, v_, dst, 1.0f});
    }

    /// Deterministic per-(vertex, superstep) random stream.
    SplitMix64 rng() const {
      return stream_for(engine_.options_.seed, v_, superstep_);
    }

    bool deactivated() const { return deactivated_; }
    bool value_dirty() const { return value_dirty_; }
    const Value& current_value() const { return value_; }
    /// §4e capture outputs, read by the engine after process() returns.
    bool broadcast_set() const { return broadcast_set_; }
    const Message& broadcast_message() const { return broadcast_msg_; }

   private:
    MultiLogVCEngine& engine_;
    VertexId v_;
    Superstep superstep_;
    const AdjacencyBatch& batch_;
    std::size_t slot_;
    Value value_;
    Message broadcast_msg_{};
    bool deactivated_ = false;
    bool value_dirty_ = false;
    bool broadcast_set_ = false;
  };

 private:
  friend class Context;

  /// Common constructor. ctx == nullptr is the one-shot path (prefix
  /// "mlvc", engine mutates Storage-global knobs as before); ctx != nullptr
  /// is a per-query engine over the context's shared substrate.
  MultiLogVCEngine(RuntimeContext* ctx, std::uint64_t query_id,
                   graph::StoredCsrGraph& graph, App app,
                   EngineOptions options)
      : graph_(graph),
        app_(std::move(app)),
        options_(apply_env_overrides(options)),
        ctx_(ctx),
        query_id_(query_id),
        blob_prefix_(ctx != nullptr ? RuntimeContext::query_prefix(query_id)
                                    : "mlvc"),
        // Admission control: block here until the query's whole budget fits
        // the context pool. Ordered before every heavy member so nothing is
        // allocated while parked.
        budget_lease_(ctx != nullptr
                          ? ctx->arbiter().acquire(options_.memory_budget_bytes)
                          : BudgetLease{}),
        cache_reg_(ctx != nullptr
                       ? ctx->shared_cache()->register_query(
                             options_.adjacency_cache_bytes)
                       : ssd::PageCache::QueryRegistration{}),
        blob_scope_(ctx != nullptr ? &graph.storage() : nullptr,
                    blob_prefix_),
        async_io_(options_.enable_pipeline && options_.io_threads > 0
                      ? std::make_unique<ssd::AsyncIo>(options_.io_threads)
                      : nullptr),
        store_(graph.storage(), blob_prefix_, graph.intervals(),
               multilog::MultiLogConfig{
                   .record_size = sizeof(Rec),
                   // On-disk log layout (EngineOptions::on_disk_format /
                   // MLVC_FORMAT): v2 = delta+varint chunks, with payloads
                   // varint-packed only for small padding-free integral
                   // messages (floats keep fixed width).
                   .format = options_.on_disk_format,
                   .payload_varint = multilog::kPayloadVarint<Message>,
                   .buffer_budget_bytes = options_.log_buffer_budget(),
                   .staging_records = options_.scatter_staging_records,
                   .async_io = async_io_.get(),
                   // Unique "q<id>" prefixes make an existing blob an id
                   // reuse bug; fail loudly instead of truncating it.
                   .expect_fresh_blobs = ctx != nullptr,
                   .combine = log_fold_combine()}),
        edge_log_(graph.storage(), blob_prefix_,
                  multilog::EdgeLogConfig{App::kNeedsWeights,
                                          options_.edge_log_budget()}),
        predictor_(graph.num_vertices(), options_.predictor_history),
        util_tracker_(graph.storage().page_size(),
                      options_.page_util_threshold),
        loader_(graph, &edge_log_, &util_tracker_,
                GraphLoaderUnit::Config{App::kNeedsWeights,
                                        options_.enable_edge_log,
                                        cache_reg_.slot()}),
        values_(graph.storage(), blob_prefix_ + "/values",
                graph.num_vertices(),
                [this](VertexId v) { return app_.initial_value(v); },
                options_.values_on_storage),
        sticky_active_(graph.num_vertices()) {
    MLVC_CHECK_MSG(!App::kNeedsWeights || graph.has_weights(),
                   "application '" << app_.name()
                                   << "' needs edge weights but the stored "
                                      "graph has none");
    if (ctx_ == nullptr) {
      if (options_.adjacency_cache_bytes > 0) {
        graph_.set_adjacency_cache(options_.adjacency_cache_bytes);
      }
      {
        ssd::RetryPolicy retry;
        retry.max_attempts = std::max(1u, options_.io_retry_attempts);
        retry.base_delay_us = options_.io_retry_base_delay_us;
        graph_.storage().set_retry_policy(retry);
      }
      // Select the I/O substrate for every Blob call the run makes —
      // compute threads, AsyncIo stage workers, and prefetchers all
      // dispatch through it. A kUring request that the probe refuses lands
      // back on the thread pool; RunStats reports the backend actually in
      // effect.
      stats_.io_backend = std::string(ssd::to_string(
          graph_.storage().set_io_backend(options_.io_backend,
                                          options_.io_queue_depth)));
    } else {
      // Shared Storage state (backend, retry policy, adjacency cache) is
      // the context's to set — a per-query engine must not flip it under
      // the other queries.
      stats_.io_backend = ctx_->io_backend_name();
      stats_.query_id = query_id_;
    }
    // One staging area + message counters per compute thread. Only
    // parallel_for workers (and the main thread, index 0) call send();
    // AsyncIo threads never do, so indexing by thread_index() is race-free.
    thread_state_.resize(std::max(1u, hardware_threads()));
    for (auto& ts : thread_state_) ts.staging = store_.make_staging();
    for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
      if (app_.initially_active(v)) sticky_active_.set(v);
    }
    stats_.engine = "MultiLogVC";
    stats_.app = app_.name();
    stats_.schedule_policy = to_string(options_.schedule_policy);
    stats_.num_devices = graph_.storage().num_devices();
    stats_.fold_wide_intervals = store_.fold_wide_intervals();
    setup_direction();
  }

  /// The multi-log's produce-side fold operator: the app's combine when it
  /// has one and combining is on, otherwise none (every message is logged).
  std::function<void(std::byte*, const std::byte*)> log_fold_combine() const {
    if constexpr (App::kHasCombine) {
      if (options_.enable_combine) {
        return multilog::record_combiner<Message>(
            [app = &app_](const Message& a, const Message& b) {
              return app->combine(a, b);
            });
      }
    }
    return {};
  }

  /// §4e eligibility gates + state setup. A pull/adaptive request degrades
  /// to push — with the reason surfaced in RunStats::direction_fallback —
  /// when any requirement is missing, so MLVC_DIRECTION=adaptive is safe on
  /// every store/app/model combination (v1-era stores without a transpose
  /// included).
  void setup_direction() {
    const IntervalId n = graph_.intervals().count();
    direction_cur_.assign(n, 0);
    direction_next_.assign(n, 0);
    stats_.direction = to_string(options_.direction);
    if (options_.direction == DirectionMode::kPush) return;
    const char* reason = nullptr;
    if (!has_pull_gather<App>() || !App::kHasCombine) {
      reason = "app does not declare kHasPullGather with a combine";
    } else if (!graph_.has_transpose()) {
      reason = "store has no transpose CSR (rebuild it or run mlvc_convert)";
    } else if (options_.model != ComputationModel::kSynchronous) {
      reason = "pull requires the synchronous model";
    } else if (!options_.enable_combine) {
      reason = "pull requires combining enabled";
    }
    if (reason != nullptr) {
      stats_.direction = to_string(DirectionMode::kPush);
      stats_.direction_fallback = reason;
      return;
    }
    pull_available_ = true;
    frontier_cur_.resize(graph_.num_vertices());
    frontier_next_.resize(graph_.num_vertices());
    broadcast_cur_ = std::make_unique<VertexValueStore<Message>>(
        graph_.storage(), blob_prefix_ + "/bcast0", graph_.num_vertices(),
        [](VertexId) { return Message{}; }, options_.values_on_storage);
    broadcast_next_ = std::make_unique<VertexValueStore<Message>>(
        graph_.storage(), blob_prefix_ + "/bcast1", graph_.num_vertices(),
        [](VertexId) { return Message{}; }, options_.values_on_storage);
    // No edge log or page-utilization tracking on the transpose stream —
    // those optimize sparse access, and pull IS the dense-interval case.
    tloader_ = std::make_unique<GraphLoaderUnit>(
        graph_.transpose(), nullptr, nullptr,
        GraphLoaderUnit::Config{/*load_weights=*/false,
                                /*use_edge_log=*/false, cache_reg_.slot()});
  }

  /// §4e density heuristic: plan which intervals the NEXT superstep
  /// consumes by pull. Estimated push cost per destination interval =
  /// global active-edge density x in_edges(i) x sizeof(Rec) x 2 (each
  /// active in-edge writes one log record and reads it back); pull cost =
  /// the interval's stored transpose adjacency + rowptr bytes + the
  /// expected broadcast gather. Pull wins when
  /// push_cost >= pull_density_threshold x pull_cost.
  ///
  /// Sender estimate for the superstep about to run: extrapolate the
  /// engine's own production series. Messages produced next are last
  /// superstep's production scaled by its observed trend (Beamer's
  /// direction-switch insight: an exploding BFS-style frontier keeps
  /// exploding, a collapsing one keeps collapsing — pricing it at its
  /// stale size misses exactly the dense supersteps pull exists for, and
  /// keeps pulling through the sparse tail where a whole-transpose sweep
  /// serves a handful of deliveries). Suppressed sends count as produced,
  /// so an all-suppressed wave doesn't read as idle. Sticky out-degree
  /// mass floors the estimate — those vertices run for sure (and it is
  /// the only signal before the first superstep has history).
  void plan_directions() {
    any_pull_next_ = false;
    std::fill(direction_next_.begin(), direction_next_.end(), 0);
    if (!pull_available_) return;
    if (options_.direction == DirectionMode::kPull) {
      std::fill(direction_next_.begin(), direction_next_.end(), 1);
      any_pull_next_ = true;
      return;
    }
    const EdgeIndex total_edges = graph_.num_edges();
    if (total_edges == 0) return;
    std::uint64_t sticky_mass = 0;
    sticky_active_.for_each_set([&](std::size_t v) {
      sticky_mass += graph_.out_degree(static_cast<VertexId>(v));
    });
    double trend = 1.0;
    if (plan_produced_last_ > 0) {
      trend = plan_produced_prev_ > 0
                  ? std::clamp(static_cast<double>(plan_produced_last_) /
                                   static_cast<double>(plan_produced_prev_),
                               1.0 / 16.0, 64.0)
                  : 64.0;  // production appearing from nothing: explosive
    }
    const double est_produced =
        static_cast<double>(plan_produced_last_) * trend;
    const double density =
        std::min(1.0, std::max(est_produced,
                               static_cast<double>(sticky_mass)) /
                          static_cast<double>(total_edges));
    if (density <= 0) return;
    const auto& t = graph_.transpose();
    const IntervalId n = graph_.intervals().count();
    for (IntervalId i = 0; i < n; ++i) {
      const double in_edges = static_cast<double>(t.interval_edge_count(i));
      const double push_bytes = density * in_edges * sizeof(Rec) * 2.0;
      const double pull_bytes =
          static_cast<double>(t.adjacency_stored_bytes(i)) +
          static_cast<double>(graph_.intervals().width(i) + 1) *
              sizeof(EdgeIndex) +
          density * in_edges * sizeof(Message);
      if (push_bytes >= options_.pull_density_threshold * pull_bytes) {
        direction_next_[i] = 1;
        any_pull_next_ = true;
      }
    }
  }

  struct ActiveVertex {
    VertexId v;
    std::uint32_t rec_begin = 0;  // slice of the group's sorted records
    std::uint32_t rec_count = 0;
  };

  void queue_structural(const graph::StructuralUpdate& u) {
    std::lock_guard<std::mutex> lock(structural_mutex_);
    structural_queue_.push_back(u);
  }

  /// Flush every compute thread's staged records into the shared multi-log.
  /// Must run on the main thread with no parallel region active (batch end,
  /// before an asynchronous-mode drain, and at superstep close).
  void flush_produce_staging() {
    for (auto& ts : thread_state_) store_.flush_staging(ts.staging);
  }

  bool pipeline_enabled() const noexcept { return async_io_ != nullptr; }

  /// One chain's grouped (and possibly combined) message input — the
  /// output of pipeline stage 1 (LoadLog + scatter/sort+group, or the §4e
  /// pull fold).
  struct GroupData {
    IntervalId begin = 0;
    IntervalId end = 0;
    std::vector<Rec> records;
    std::vector<std::size_t> offsets;
    /// Sends behind the loaded logs, before either fold shrinks them —
    /// messages_consumed counts what was sent, not what survived combine.
    std::size_t consumed = 0;
    /// Wall time of the sort-and-group stage, wherever it ran, and the
    /// §V.B implementation chosen for this group (none when the chain had
    /// no log input).
    double sort_group_seconds = 0;
    std::optional<SortGroupPath> path;
    /// CPU time the stage spent on an I/O thread (instrument = false):
    /// sort/group plus the pull fold — off the critical path, outside
    /// step_compute_seconds_.
    double offthread_seconds = 0;
    /// Bytes dropped from torn trailing log pages (crash recovery).
    std::uint64_t torn_bytes_dropped = 0;
  };

  /// Stage 1: load + group (fused counting scatter by default, §V.B, with
  /// combine folded in per §V.D) one fused interval group. Runs on the main
  /// thread (instrument = true: attribute load time to io, grouping time to
  /// compute) or on an I/O thread one chain ahead of compute (instrument =
  /// false: the main thread only accounts its wait on the future — the
  /// stage itself is off the critical path). redeliver = true is the
  /// asynchronous-model redelivery chain: it skips the current-generation
  /// log (the sweep already consumed it this wave — reloading would deliver
  /// every message twice) and drains the interval's same-wave sends from
  /// the produce log instead.
  GroupData prepare_group(IntervalId g_begin, IntervalId g_end,
                          bool instrument, bool redeliver = false) {
    GroupData g;
    g.begin = g_begin;
    g.end = g_end;
    // The drain reads the produce logs, so records still parked in
    // per-thread staging must be flushed first or earlier sends would be
    // delivered a superstep late. Redelivery runs on the main thread after
    // the sweep, with no parallel region active.
    if (redeliver) flush_produce_staging();
    std::vector<std::byte> bytes;
    // Sends the produce-side fold absorbed: loaded records plus these are
    // the sends behind the logs. Drains report their sends directly.
    std::uint64_t absorbed = 0;
    std::uint64_t drained_sends = 0;
    {
      std::optional<ScopedAccumulator> io_time;
      if (instrument) io_time.emplace(step_io_seconds_);
      for (IntervalId i = g_begin; i < g_end; ++i) {
        if (redeliver) {
          drained_sends += store_.drain_produce_interval(i, bytes);
          continue;
        }
        absorbed += store_.current_sends(i) - store_.current_count(i);
        const std::size_t before = bytes.size();
        store_.load_interval(i, bytes);
        if (options_.torn_page_recovery) {
          // A crash mid-append can leave a partial trailing record (v1) or
          // chunk (v2) in an interval's log. Drop the torn tail (per
          // interval — the tear must not shift the next interval's records)
          // and keep going; the count is surfaced per superstep as
          // torn_bytes_dropped.
          const std::size_t loaded = bytes.size() - before;
          std::size_t keep = loaded;
          if (options_.on_disk_format == OnDiskFormat::kV2) {
            keep = multilog::index_log_chunks(
                       std::span<const std::byte>(bytes.data() + before,
                                                  loaded),
                       multilog::TornPagePolicy::kTruncate)
                       .valid_bytes;
          } else {
            keep = multilog::truncate_torn_tail(loaded, sizeof(Rec));
          }
          if (keep != loaded) {
            g.torn_bytes_dropped += loaded - keep;
            bytes.resize(before + keep);
          }
        }
      }
    }

    // ---- group by destination, combine fused in (§V.B, §V.D) --------------
    // Destinations are bounded by the fused intervals' vertex range — what
    // the §V.A.1 sizing guarantees — so grouping is a counting-sort problem.
    std::optional<ScopedAccumulator> compute_time;
    if (instrument) compute_time.emplace(step_compute_seconds_);
    WallTimer sort_timer;
    const VertexId vb = graph_.intervals().begin(g_begin);
    const VertexId ve = graph_.intervals().end(g_end - 1);
    multilog::GroupedLog<Message> grouped;
    bool combined = false;
    const bool v2 = options_.on_disk_format == OnDiskFormat::kV2;
    if constexpr (App::kHasCombine) {
      if (options_.enable_combine) {
        const auto combine = [this](const Message& a, const Message& b) {
          return app_.combine(a, b);
        };
        grouped = v2 ? multilog::sort_and_group_v2<Message>(
                           bytes, vb, ve, options_.sort_group_path, combine)
                     : multilog::sort_and_group<Message>(
                           bytes, vb, ve, options_.sort_group_path, combine);
        combined = true;
      }
    }
    if (!combined) {
      grouped = v2 ? multilog::sort_and_group_v2<Message>(
                         bytes, vb, ve, options_.sort_group_path)
                   : multilog::sort_and_group<Message>(
                         bytes, vb, ve, options_.sort_group_path);
    }
    g.records = std::move(grouped.records);
    g.offsets = std::move(grouped.offsets);
    g.consumed = redeliver ? drained_sends : grouped.decoded + absorbed;
    if (!bytes.empty()) g.path = grouped.path;
    g.sort_group_seconds = sort_timer.elapsed_seconds();
    if (!instrument) g.offthread_seconds = g.sort_group_seconds;
    return g;
  }

  /// §4e dense-gather fast path: when the captured-broadcast table fits a
  /// quarter of the budget, it is materialized once per superstep (shared
  /// by every pulled interval) and indexed per in-edge directly. Otherwise
  /// each pull batch sorts, dedups and gathers its own frontier sources.
  bool pull_dense() const {
    return static_cast<std::uint64_t>(graph_.num_vertices()) *
               sizeof(Message) <=
           options_.memory_budget_bytes / 4;
  }

  /// Materialize this superstep's captured broadcasts as a vertex-indexed
  /// table (validity = frontier_cur_), one store gather for all pulled
  /// intervals. Runs on the main thread at wave start, so pull chains
  /// prepared on I/O threads only read it.
  void build_pull_dense() {
    pull_dense_msgs_.assign(graph_.num_vertices(), Message{});
    std::vector<VertexId> ids;
    frontier_cur_.for_each_set(
        [&](std::size_t u) { ids.push_back(static_cast<VertexId>(u)); });
    if (ids.empty()) return;
    ScopedAccumulator io_time(step_io_seconds_);
    const std::vector<Message> msgs = broadcast_cur_->gather(ids);
    for (std::size_t k = 0; k < ids.size(); ++k) {
      pull_dense_msgs_[ids[k]] = msgs[k];
    }
  }

  /// §4e pull front-end for one interval: synthesize its grouped message
  /// input by streaming the stored transpose CSR in loader-budget batches,
  /// filtering in-neighbors against the broadcast frontier, gathering their
  /// captured messages (the dense table, or the broadcast value store), and
  /// folding one combined record per receiver — zero log writes, decodes,
  /// or sort_and_group for the regenerated side. Records that DID land in
  /// the interval's log (raw send() is never suppressed) are loaded the
  /// normal way and merged in, so pull stays correct for apps mixing send
  /// styles. The result feeds the unchanged collect_actives /
  /// process_interval machinery. Reads only wave-start state, so it may run
  /// on an I/O thread (instrument = false) like any other chain prep.
  GroupData prepare_pull_group(IntervalId interval, bool instrument) {
    GroupData logs = prepare_group(interval, interval + 1, instrument);
    const VertexId vb = graph_.intervals().begin(interval);
    const VertexId ve = graph_.intervals().end(interval);
    const bool dense = pull_dense();
    double fold_seconds = 0;

    std::vector<Rec> regen;  // one combined record per receiver, ascending
    std::uint64_t regen_consumed = 0;  // per contributing in-edge, matching
                                       // what push would have loaded
    const std::size_t batch_budget =
        std::max<std::size_t>(options_.loader_budget() / 2, 64_KiB);
    std::vector<VertexId> ids;
    std::vector<VertexId> srcs;
    std::vector<Message> msgs;
    VertexId v = vb;
    while (v < ve) {
      ids.clear();
      std::uint64_t bytes = 0;
      while (v < ve) {
        const std::uint64_t cost = tloader_->vertex_load_cost(v);
        if (!ids.empty() && bytes + cost > batch_budget) break;
        bytes += cost;
        ids.push_back(v);
        ++v;
      }
      AdjacencyBatch adj;
      {
        std::optional<ScopedAccumulator> io_time;
        if (instrument) io_time.emplace(step_io_seconds_);
        tloader_->load(interval, ids, adj);
      }
      if (!dense) {
        // Unique frontier sources of this batch -> one coalesced gather.
        srcs.clear();
        for (std::size_t k = 0; k < ids.size(); ++k) {
          const auto span = adj.spans[k];
          for (std::size_t e = 0; e < span.length; ++e) {
            const VertexId u = adj.adjacency[span.offset + e];
            if (frontier_cur_.test(u)) srcs.push_back(u);
          }
        }
        std::sort(srcs.begin(), srcs.end());
        srcs.erase(std::unique(srcs.begin(), srcs.end()), srcs.end());
        if (srcs.empty()) continue;
        std::optional<ScopedAccumulator> io_time;
        if (instrument) io_time.emplace(step_io_seconds_);
        msgs = broadcast_cur_->gather(srcs);
      }
      ScopedAccumulator compute_time(instrument ? step_compute_seconds_
                                                : fold_seconds);
      for (std::size_t k = 0; k < ids.size(); ++k) {
        const auto span = adj.spans[k];
        bool have = false;
        Message acc{};
        for (std::size_t e = 0; e < span.length; ++e) {
          const VertexId u = adj.adjacency[span.offset + e];
          if (!frontier_cur_.test(u)) continue;
          const Message& m =
              dense ? pull_dense_msgs_[u]
                    : msgs[static_cast<std::size_t>(
                          std::lower_bound(srcs.begin(), srcs.end(), u) -
                          srcs.begin())];
          acc = have ? combine_messages(app_, acc, m) : m;
          have = true;
          ++regen_consumed;
        }
        if (have) regen.push_back(Rec{ids[k], acc});
      }
    }

    logs.offthread_seconds += fold_seconds;
    if (regen.empty()) return logs;
    // Merge the regenerated records into the log-side grouped sequence
    // (both ascending by dst; a shared dst becomes one group).
    GroupData g;
    g.begin = interval;
    g.end = interval + 1;
    g.consumed = logs.consumed + regen_consumed;
    g.sort_group_seconds = logs.sort_group_seconds;
    g.path = logs.path;
    g.offthread_seconds = logs.offthread_seconds;
    g.torn_bytes_dropped = logs.torn_bytes_dropped;
    const std::size_t n_log = logs.offsets.empty() ? 0 : logs.offsets.size() - 1;
    g.records.reserve(logs.records.size() + regen.size());
    std::size_t li = 0, ri = 0;
    while (li < n_log || ri < regen.size()) {
      g.offsets.push_back(g.records.size());
      const VertexId ld =
          li < n_log ? logs.records[logs.offsets[li]].dst : kInvalidVertex;
      const VertexId rd = ri < regen.size() ? regen[ri].dst : kInvalidVertex;
      if (ld <= rd) {
        g.records.insert(g.records.end(),
                         logs.records.begin() +
                             static_cast<std::ptrdiff_t>(logs.offsets[li]),
                         logs.records.begin() +
                             static_cast<std::ptrdiff_t>(logs.offsets[li + 1]));
        ++li;
      }
      if (rd <= ld) {
        g.records.push_back(regen[ri]);
        ++ri;
      }
    }
    g.offsets.push_back(g.records.size());
    return g;
  }

  /// Static full-fan-in load cost per interval (loader-estimated adjacency
  /// bytes, monotone in out-degree mass) — the hub-degree policy's
  /// first-wave priority (before the predictor has history) and its
  /// fallback. Computed once; structural updates shift it marginally and
  /// priorities only order work, so staleness is benign.
  void ensure_hub_scores() {
    if (!hub_score_.empty()) return;
    const IntervalId n = graph_.intervals().count();
    hub_score_.assign(n, 0);
    for (IntervalId i = 0; i < n; ++i) {
      hub_score_[i] = loader_.range_load_cost(graph_.intervals().begin(i),
                                              graph_.intervals().end(i));
    }
  }

  /// Hub-degree impact estimate for one interval: loader-estimated load
  /// cost of the vertices the history predictor expects to run
  /// (multilog/predictor.hpp), falling back to the interval's full-fan-in
  /// cost before any history. Deterministic — predictor state is a pure
  /// function of the run so far. Only the hub-degree policy orders by it;
  /// the others get 0 and skip the predictor scan.
  std::uint64_t schedule_score(IntervalId i) const {
    if (options_.schedule_policy != SchedulePolicy::kHubDegree) return 0;
    if (!predictor_.has_history()) return hub_score_[i];
    std::uint64_t mass = 0;
    predictor_.for_each_predicted_in_range(
        graph_.intervals().begin(i), graph_.intervals().end(i),
        [&](std::size_t v) {
          mass += loader_.vertex_load_cost(static_cast<VertexId>(v));
        });
    return mass;
  }

  /// One unit of the sweep: the id-contiguous intervals [begin, end),
  /// consumed through the message logs, or one interval consumed by pull.
  struct Chain {
    IntervalId begin = 0;
    IntervalId end = 0;
    bool pull = false;
  };

  /// The wave planner. Every interval is released (a chain with no input is
  /// a zero-byte load) and popped in the scheduler's order — id order under
  /// kBsp, which the scheduler runs as fifo. Then §V.A.2 fusion applies to
  /// that order: runs of id-consecutive push intervals fuse greedily while
  /// their current logs fit the sort budget (prepare_group needs a
  /// contiguous vertex range). A pulled interval is always a singleton.
  /// Under kBsp this is the paper's barrier grouping exactly. Also records
  /// the wave-start quiesce marks: the produce logs are empty after the
  /// last generation swap, so anything past them later is sweep output.
  std::vector<Chain> plan_wave(IntervalScheduler& sched) {
    const IntervalId n = graph_.intervals().count();
    for (IntervalId i = 0; i < n; ++i) {
      sched.mark_ready(i, schedule_score(i), store_.current_bytes(i));
      sched.record_quiesce(i, store_.produce_seq(i));
    }
    const std::uint64_t budget = options_.sort_budget();
    std::vector<Chain> chains;
    std::uint64_t acc = 0;
    for (IntervalId i = sched.pop(); i != kInvalidInterval; i = sched.pop()) {
      const bool pull = direction_cur_[i] != 0;
      const std::uint64_t bytes = store_.current_bytes(i);
      if (!pull && options_.enable_interval_fusion && !chains.empty() &&
          !chains.back().pull && chains.back().end == i &&
          acc + bytes <= budget) {
        chains.back().end = i + 1;
        acc += bytes;
      } else {
        chains.push_back({i, i + 1, pull});
        acc = bytes;
      }
    }
    return chains;
  }

  /// The wave executor: one sweep over the planned chains, then (under the
  /// asynchronous model) the redelivery phase.
  ///
  /// Sweep. A chain's inputs are fixed at wave start — the current log
  /// generation, the sticky set, the captured broadcasts — and sends write
  /// only the produce side, so chain k+1's prep runs on the AsyncIo
  /// threads while chain k computes, pull chains included.
  ///
  /// Redelivery (asynchronous model). Sends made during the sweep for
  /// already-swept intervals would otherwise wait a full generation swap.
  /// Any interval whose produce sequence moved past its wave-start quiesce
  /// mark is re-queued for one drain-only, receivers-only chain — at most
  /// one redelivery per interval per wave, in priority order; each chain
  /// re-scans, so mass forwarded by a redelivery still reaches
  /// not-yet-redelivered intervals the same wave. Waiting for the sweep
  /// (and earlier redeliveries) before draining means a hub interval
  /// absorbs the whole wave's mass in one combined pass instead of
  /// re-paying its adjacency fan-out per partial delivery. Redelivery reads
  /// same-wave sends, so it runs serially on the main thread. Cascade
  /// output from the last redeliveries rides the generation swap.
  void run_wave(Superstep s, DynamicBitset& active_now,
                SuperstepStats& step) {
    const IntervalId n = graph_.intervals().count();
    if (options_.schedule_policy == SchedulePolicy::kHubDegree) {
      ensure_hub_scores();
    }
    if (any_pull_cur_ && pull_dense()) build_pull_dense();
    IntervalScheduler sched(options_.schedule_policy, n);
    const std::vector<Chain> chains = plan_wave(sched);

    prefetched(
        chains.size(), pipeline_enabled() ? 1 : 0,
        [&](std::size_t k, bool offthread) {
          const Chain& c = chains[k];
          return c.pull ? prepare_pull_group(c.begin, !offthread)
                        : prepare_group(c.begin, c.end, !offthread);
        },
        [&](std::size_t k, GroupData& group) {
          if (chains[k].pull) ++step.intervals_pulled;
          run_chain(s, group, /*include_sticky=*/true, active_now, step);
        });

    if (options_.model == ComputationModel::kAsynchronous) {
      flush_produce_staging();
      std::vector<bool> redelivered(n, false);
      const auto scan_pending = [&] {
        for (IntervalId j = 0; j < n; ++j) {
          if (redelivered[j] || sched.is_ready(j)) continue;
          const std::uint64_t seq = store_.produce_seq(j);
          if (seq == sched.quiesce_seq(j)) continue;
          sched.mark_ready(j, schedule_score(j),
                           (seq - sched.quiesce_seq(j)) * sizeof(Rec));
        }
      };
      scan_pending();
      for (IntervalId i = sched.pop(); i != kInvalidInterval;
           i = sched.pop()) {
        redelivered[i] = true;
        GroupData group = prepare_group(i, i + 1, /*instrument=*/true,
                                        /*redeliver=*/true);
        // The drain left interval i's produce log empty and nothing can
        // append between it and this read (main thread, no parallel region
        // active), so the sequence mark is exact.
        sched.record_quiesce(i, store_.produce_seq(i));
        run_chain(s, group, /*include_sticky=*/false, active_now, step);
        scan_pending();
      }
    }

    // The barrier order is not a schedule: BSP reports no scheduler stats.
    if (options_.schedule_policy != SchedulePolicy::kBsp) {
      step.intervals_scheduled = sched.pops();
      step.schedule_reorder_depth = sched.max_reorder_depth();
      step.ready_latency_seconds = sched.ready_latency_seconds();
    }
  }

  /// Tally one prepared chain into the superstep's stats, then
  /// ExtractActiveVert (receivers, merged with sticky actives unless this
  /// is a redelivery) and process each of its intervals.
  void run_chain(Superstep s, const GroupData& group, bool include_sticky,
                 DynamicBitset& active_now, SuperstepStats& step) {
    step.messages_consumed += group.consumed;
    step.sort_group_seconds += group.sort_group_seconds;
    step.offthread_sort_seconds += group.offthread_seconds;
    step.torn_bytes_dropped += group.torn_bytes_dropped;
    // Only chains with log input ran a §V.B path (a BSP wave releases
    // every interval, empty ones included).
    if (group.path == SortGroupPath::kCountingScatter) {
      ++step.groups_scatter;
    } else if (group.path == SortGroupPath::kComparisonSort) {
      ++step.groups_comparison;
    }
    for (IntervalId i = group.begin; i < group.end; ++i) {
      std::vector<ActiveVertex> actives =
          collect_actives(i, group.records, group.offsets, include_sticky);
      if (actives.empty()) continue;
      step.active_vertices += actives.size();
      process_interval(s, i, group.records, actives, active_now,
                       step.edge_log_hits);
    }
  }

  /// The engine's one prefetch rule (§VI): for k in [0, n), produce(k, ...)
  /// builds item k and consume(k, item) uses it on the main thread. With
  /// depth > 0, items k+1..k+depth are produced on the AsyncIo threads
  /// while item k is consumed, and the main thread books its wait on each
  /// as io time; depth 0 produces inline. produce's second argument says
  /// whether it runs off-thread, so the stage can attribute its own time.
  /// In-flight stages borrow the caller's frame and `this`, so an exception
  /// drains them before it unwinds (std::future destructors do not block).
  template <typename Produce, typename Consume>
  void prefetched(std::size_t n, unsigned depth, Produce&& produce,
                  Consume&& consume) {
    if (depth == 0) {
      for (std::size_t k = 0; k < n; ++k) {
        auto item = produce(k, /*offthread=*/false);
        consume(k, item);
      }
      return;
    }
    using Item = std::invoke_result_t<Produce&, std::size_t, bool>;
    std::deque<std::future<Item>> inflight;
    std::size_t next = 0;
    const auto issue = [&] {
      if (next == n) return;
      const std::size_t k = next++;
      inflight.push_back(async_io_->submit(
          [&produce, k] { return produce(k, /*offthread=*/true); }));
    };
    try {
      for (unsigned d = 0; d < depth; ++d) issue();
      for (std::size_t k = 0; k < n; ++k) {
        Item item;
        {
          ScopedAccumulator io_time(step_io_seconds_);
          item = inflight.front().get();
        }
        inflight.pop_front();
        issue();
        consume(k, item);
      }
    } catch (...) {
      for (auto& f : inflight) {
        if (f.valid()) f.wait();
      }
      throw;
    }
  }

  SuperstepStats execute_superstep(Superstep s) {
    SuperstepStats step;
    step.superstep = s;
    // §4e: this superstep consumes by the directions planned at the start
    // of the previous one (whose sends were suppressed to match); plan the
    // next superstep's now, BEFORE any send runs —
    // Context::send_to_all_neighbors consults direction_next_ live.
    if (pull_available_) {
      direction_cur_.swap(direction_next_);
      any_pull_cur_ = any_pull_next_;
      plan_directions();
      capture_broadcasts_ = any_pull_next_;
    }
    auto& storage = graph_.storage();
    // Context mode: route this thread's storage records (and, via AsyncIo's
    // submit-time sink capture, every pipeline worker's) into the engine's
    // private IoStats, and diff THAT for step.io — the Storage-level
    // aggregate is shared with every other concurrent query. Modeled device
    // time still diffs the shared DeviceModel; under concurrency it reads
    // as the device-time the whole box spent during this query's superstep
    // (serving latencies are wall-clock anyway).
    std::optional<ssd::IoStats::ScopedSink> query_sink;
    if (ctx_ != nullptr) query_sink.emplace(&query_io_);
    const auto io_before =
        ctx_ != nullptr ? query_io_.snapshot() : storage.stats().snapshot();
    const auto dev_before = storage.device().snapshot();
    const multilog::FoldStats fold_before = store_.fold_stats();
    WallTimer wall;

    for (auto& ts : thread_state_) {
      ts.messages_produced = 0;
      ts.edges_activated = 0;
      ts.log_bytes_avoided = 0;
      ts.staging.reset_stats();
    }
    DynamicBitset active_now(graph_.num_vertices());

    step_io_seconds_ = 0;
    step_compute_seconds_ = 0;

    run_wave(s, active_now, step);

    // ---- close the superstep ---------------------------------------------
    const auto predictor_score = predictor_.score(active_now);
    predictor_.observe(active_now);
    const auto util = util_tracker_.finish_superstep();
    apply_structural_updates();
    // Every staged record must reach the shared top pages before the produce
    // generation becomes readable. Batch-end flushes already did this for
    // all compute; this is the safety barrier for the swap.
    flush_produce_staging();
    std::uint64_t messages_produced = 0;
    std::uint64_t edges_activated = 0;
    std::uint64_t log_bytes_avoided = 0;
    std::uint64_t scatter_flush_count = 0;
    double scatter_stall_seconds = 0;
    for (auto& ts : thread_state_) {
      messages_produced += ts.messages_produced;
      edges_activated += ts.edges_activated;
      log_bytes_avoided += ts.log_bytes_avoided;
      scatter_flush_count += ts.staging.flush_count();
      scatter_stall_seconds += ts.staging.stall_seconds();
    }
    {
      // swap_generations barriers any background eviction writes still
      // pending against the produce generation.
      ScopedAccumulator io_time(step_io_seconds_);
      store_.swap_generations();
      edge_log_.swap_generations();
    }
    if (pull_available_) {
      // Broadcast generations swap with the log generations: this
      // superstep's captures become next superstep's gather source.
      std::swap(broadcast_cur_, broadcast_next_);
      frontier_cur_ = frontier_next_;
      frontier_next_.clear_all();
      // Production history for plan_directions' trend extrapolation.
      // messages_produced counts suppressed sends too, so an
      // all-suppressed wave doesn't look idle.
      plan_produced_prev_ = plan_produced_last_;
      plan_produced_last_ = messages_produced;
    }

    const multilog::FoldStats fold_after = store_.fold_stats();
    step.messages_produced = messages_produced;
    step.edges_activated = edges_activated;
    step.scatter_flush_count = scatter_flush_count;
    step.scatter_stall_seconds = scatter_stall_seconds;
    step.log_records_folded =
        fold_after.records_folded - fold_before.records_folded;
    step.fold_seconds = fold_after.seconds - fold_before.seconds;
    step.pages_touched = util.pages_touched;
    step.pages_inefficient = util.pages_inefficient;
    step.pages_inefficient_predicted = util.inefficient_predicted;
    step.predicted_active = predictor_score.predicted_and_active;
    step.total_wall_seconds = wall.elapsed_seconds();
    step.compute_wall_seconds = step_compute_seconds_;
    step.io_wall_seconds = step_io_seconds_;
    step.log_bytes_avoided = log_bytes_avoided;
    step.io = (ctx_ != nullptr ? query_io_.snapshot()
                               : storage.stats().snapshot()) -
              io_before;
    step.modeled_storage_seconds = storage.device().modeled_seconds_between(
        dev_before, storage.device().snapshot());
    return step;
  }

  /// Merge interval i's message receivers with its sticky-active vertices.
  /// include_sticky = false collects receivers only — redelivery chains
  /// deliver same-wave sends to an interval the sweep already ran, and its
  /// sticky vertices (which have no new input) must not execute twice.
  std::vector<ActiveVertex> collect_actives(
      IntervalId i, const std::vector<Rec>& records,
      const std::vector<std::size_t>& offsets, bool include_sticky) const {
    const VertexId vb = graph_.intervals().begin(i);
    const VertexId ve = graph_.intervals().end(i);
    std::vector<ActiveVertex> actives;

    // Locate this interval's group slice in the sorted records via binary
    // search over the group offsets (offsets.back() is the end sentinel).
    const std::size_t n_groups = offsets.empty() ? 0 : offsets.size() - 1;
    std::size_t lo_g = 0, hi_g = n_groups;
    while (lo_g < hi_g) {
      const std::size_t mid = (lo_g + hi_g) / 2;
      if (records[offsets[mid]].dst < vb) {
        lo_g = mid + 1;
      } else {
        hi_g = mid;
      }
    }
    std::size_t next_group = lo_g;
    if (!include_sticky) {
      while (next_group < n_groups && records[offsets[next_group]].dst < ve) {
        actives.push_back(
            {records[offsets[next_group]].dst,
             static_cast<std::uint32_t>(offsets[next_group]),
             static_cast<std::uint32_t>(offsets[next_group + 1] -
                                        offsets[next_group])});
        ++next_group;
      }
      return actives;
    }
    sticky_active_.for_each_set_in_range(vb, ve, [&](std::size_t sv) {
      const VertexId v = static_cast<VertexId>(sv);
      // Emit receiver groups before this sticky vertex.
      while (next_group < n_groups && records[offsets[next_group]].dst < v) {
        const VertexId dst = records[offsets[next_group]].dst;
        if (dst >= ve) break;
        actives.push_back(
            {dst, static_cast<std::uint32_t>(offsets[next_group]),
             static_cast<std::uint32_t>(offsets[next_group + 1] -
                                        offsets[next_group])});
        ++next_group;
      }
      if (next_group < n_groups && records[offsets[next_group]].dst == v) {
        actives.push_back(
            {v, static_cast<std::uint32_t>(offsets[next_group]),
             static_cast<std::uint32_t>(offsets[next_group + 1] -
                                        offsets[next_group])});
        ++next_group;
      } else {
        actives.push_back({v, 0, 0});
      }
    });
    while (next_group < n_groups && records[offsets[next_group]].dst < ve) {
      actives.push_back(
          {records[offsets[next_group]].dst,
           static_cast<std::uint32_t>(offsets[next_group]),
           static_cast<std::uint32_t>(offsets[next_group + 1] -
                                      offsets[next_group])});
      ++next_group;
    }
    return actives;
  }

  /// Pipeline stage 2 output: one active-vertex batch's adjacency and
  /// gathered values, ready for compute. `vals` keeps the gather's span
  /// buffers: compute updates them in place and the write-back writes them
  /// without re-reading — safe because batches are disjoint ascending
  /// vertex slices, so no other batch writes inside a span between its
  /// gather and its write-back (the invariant prefetch already relies on).
  struct BatchData {
    std::vector<VertexId> ids;
    AdjacencyBatch adj;
    typename VertexValueStore<Value>::Spans vals;
  };

  BatchData load_batch(IntervalId interval,
                       std::span<const ActiveVertex> batch) {
    BatchData data;
    data.ids.resize(batch.size());
    for (std::size_t k = 0; k < batch.size(); ++k) data.ids[k] = batch[k].v;
    loader_.load(interval, data.ids, data.adj);
    data.vals = values_.gather_spans(data.ids);
    return data;
  }

  void process_interval(Superstep s, IntervalId interval,
                        const std::vector<Rec>& records,
                        const std::vector<ActiveVertex>& actives,
                        DynamicBitset& active_now,
                        std::uint64_t& edge_log_hits) {
    // Batch by loader budget: per-vertex adjacency bytes from the loader's
    // resident-degree cost model. Boundaries are fixed up front so batches
    // can load ahead of compute.
    const std::size_t batch_budget =
        std::max<std::size_t>(options_.loader_budget() / 2, 64_KiB);
    std::vector<std::pair<std::size_t, std::size_t>> batches;
    std::size_t begin = 0;
    while (begin < actives.size()) {
      std::size_t end = begin;
      std::uint64_t bytes = 0;
      while (end < actives.size()) {
        const std::uint64_t cost = loader_.vertex_load_cost(actives[end].v);
        if (end > begin && bytes + cost > batch_budget) break;
        bytes += cost;
        ++end;
      }
      batches.emplace_back(begin, end);
      begin = end;
    }
    const auto slice = [&](std::size_t bi) {
      return std::span<const ActiveVertex>(
          actives.data() + batches[bi].first,
          batches[bi].second - batches[bi].first);
    };
    // Stage 2: batch b+1 (up to b+prefetch_depth) loads on I/O threads
    // while batch b computes. Safe because batches are disjoint ascending
    // vertices: loads read only consume-side state (current log
    // generations, stored CSR, values of vertices no earlier batch
    // scatters). A single batch has nothing to overlap and loads inline.
    const unsigned depth = pipeline_enabled() && batches.size() > 1
                               ? std::max(1u, options_.prefetch_depth)
                               : 0;
    prefetched(
        batches.size(), depth,
        [&](std::size_t bi, bool offthread) {
          if (offthread) return load_batch(interval, slice(bi));
          ScopedAccumulator io_time(step_io_seconds_);
          return load_batch(interval, slice(bi));
        },
        [&](std::size_t bi, BatchData& data) {
          compute_batch(s, slice(bi), records, data, active_now,
                        edge_log_hits);
        });
  }

  void compute_batch(Superstep s, std::span<const ActiveVertex> batch,
                     const std::vector<Rec>& records, BatchData& data,
                     DynamicBitset& active_now,
                     std::uint64_t& edge_log_hits) {
    AdjacencyBatch& adj = data.adj;
    auto& vals = data.vals;
    edge_log_hits += adj.edge_log_hits;
    std::vector<std::uint8_t> deactivated(batch.size(), 0);
    std::vector<std::uint8_t> dirty(batch.size(), 0);
    std::vector<std::uint8_t> broadcast_flag;
    std::vector<Message> broadcast_msgs;
    if (capture_broadcasts_) {
      broadcast_flag.assign(batch.size(), 0);
      broadcast_msgs.resize(batch.size());
    }

    std::optional<ScopedAccumulator> compute_time;
    compute_time.emplace(step_compute_seconds_);
    parallel_for(std::size_t{0}, batch.size(), [&](std::size_t k) {
      // parallel_for workers are OMP threads without the main thread's
      // sink; reinstall it (two TLS writes) so in-loop storage traffic —
      // edge-log appends, value spills — mirrors into the query view.
      std::optional<ssd::IoStats::ScopedSink> sink;
      if (ctx_ != nullptr) sink.emplace(&query_io_);
      const ActiveVertex& av = batch[k];
      Context ctx(*this, av.v, s, adj, k, vals[k]);
      const MessageRange<Message> msgs = MessageRange<Message>::from_records(
          std::span<const Rec>(records.data() + av.rec_begin, av.rec_count));
      app_.process(ctx, msgs);
      if (ctx.value_dirty()) {
        vals[k] = ctx.current_value();
        dirty[k] = 1;
      }
      deactivated[k] = ctx.deactivated() ? 1 : 0;
      if (capture_broadcasts_ && ctx.broadcast_set()) {
        broadcast_flag[k] = 1;
        broadcast_msgs[k] = ctx.broadcast_message();
      }

      // §V.C edge-log decision: predicted active next superstep, edges came
      // from an inefficiently used CSR page, and the vertex is low-degree
      // enough that re-logging is worthwhile.
      if (options_.enable_edge_log && !adj.from_edge_log[k] &&
          adj.spans[k].length > 0 && predictor_.predict_active(av.v)) {
        const double util = adj.start_page_util[k];
        const double occupancy =
            static_cast<double>(adj.spans[k].length * sizeof(VertexId)) /
            static_cast<double>(graph_.storage().page_size());
        if (util >= 0 && util < options_.page_util_threshold &&
            occupancy < options_.page_util_threshold) {
          const auto span = adj.spans[k];
          edge_log_.log_edges(
              av.v,
              std::span<const VertexId>(adj.adjacency.data() + span.offset,
                                        span.length),
              App::kNeedsWeights
                  ? std::span<const float>(adj.weights.data() + span.offset,
                                           span.length)
                  : std::span<const float>{});
        }
      }
    });
    // Batch-end flush: the workers just joined, so their staged sends move
    // to the shared top pages here, one interval-lock take per chunk. This
    // is what makes staged records visible to produced_count (fusion
    // planning) and to the next asynchronous-mode drain.
    flush_produce_staging();
    compute_time.reset();

    // Serial post-pass: sticky bits, predictor input, values write-back.
    for (std::size_t k = 0; k < batch.size(); ++k) {
      active_now.set(batch[k].v);
      sticky_active_.set(batch[k].v, deactivated[k] == 0);
    }
    {
      ScopedAccumulator io_time(step_io_seconds_);
      values_.write_back(data.ids, vals, dirty);
    }
    if (capture_broadcasts_) {
      // §4e: persist this batch's captured broadcasts (ascending vertex ids,
      // so the scatter coalesces) and mark the frontier. Serial, main
      // thread — same discipline as the sticky/values post-pass above.
      std::vector<VertexId> bids;
      std::vector<Message> bmsgs;
      for (std::size_t k = 0; k < batch.size(); ++k) {
        if (broadcast_flag[k] == 0) continue;
        bids.push_back(batch[k].v);
        bmsgs.push_back(broadcast_msgs[k]);
        frontier_next_.set(batch[k].v);
      }
      if (!bids.empty()) {
        ScopedAccumulator io_time(step_io_seconds_);
        broadcast_next_->scatter(bids, bmsgs);
      }
    }
  }

  void apply_structural_updates() {
    std::vector<graph::StructuralUpdate> updates;
    {
      std::lock_guard<std::mutex> lock(structural_mutex_);
      updates.swap(structural_queue_);
    }
    for (const auto& u : updates) graph_.buffer_update(u);
  }

  graph::StoredCsrGraph& graph_;
  App app_;
  EngineOptions options_;
  /// Context mode (multi-tenant serving): null for one-shot engines. The
  /// lease and cache registration are declared before every heavy member so
  /// admission happens first and releases last.
  RuntimeContext* ctx_ = nullptr;
  std::uint64_t query_id_ = 0;
  std::string blob_prefix_ = "mlvc";
  BudgetLease budget_lease_;
  ssd::PageCache::QueryRegistration cache_reg_;
  /// Context mode: removes this query's "q<id>/" blobs. Declared before the
  /// I/O threads and every store writing those blobs, so it runs after
  /// they are gone (background evictions drained).
  QueryBlobScope blob_scope_;
  /// Pipeline I/O threads; null = serial execution. Declared before store_
  /// (whose config borrows the pool and whose destructor waits on pending
  /// background evictions) so it outlives every user.
  std::unique_ptr<ssd::AsyncIo> async_io_;
  multilog::MultiLogStore store_;
  multilog::EdgeLog edge_log_;
  multilog::HistoryPredictor predictor_;
  multilog::PageUtilTracker util_tracker_;
  GraphLoaderUnit loader_;
  VertexValueStore<Value> values_;
  DynamicBitset sticky_active_;

  // ---- §4e direction-optimization state ----------------------------------
  /// All pull gates passed (stored transpose + broadcast-capable app with a
  /// combine + synchronous model + combining on + direction != push). False
  /// leaves everything below inert: the run is byte-identical to the
  /// pre-direction engine.
  bool pull_available_ = false;
  /// Capture broadcasts this superstep (== any direction_next_ bit set):
  /// Context::send_to_all_neighbors records the per-sender message and
  /// suppresses the log records destined to pull-next intervals. Written
  /// only at superstep start, before any parallel region.
  bool capture_broadcasts_ = false;
  /// Per-interval direction, 1 = pull. cur = how THIS superstep's input is
  /// consumed (decided at the start of the previous superstep, which
  /// suppressed its sends to match); next = the plan Context::send consults
  /// live while this superstep produces. Both sized interval-count always,
  /// all-zero when pull_available_ is false.
  std::vector<std::uint8_t> direction_cur_, direction_next_;
  bool any_pull_cur_ = false, any_pull_next_ = false;
  /// Broadcast double-buffer: cur = messages captured last superstep (the
  /// pull front-end's gather source), next = captures in progress. The
  /// frontier bitsets mark which vertices actually broadcast. Blob-backed
  /// like values_ so pull adds no O(V) host-memory term.
  std::unique_ptr<VertexValueStore<Message>> broadcast_cur_, broadcast_next_;
  DynamicBitset frontier_cur_, frontier_next_;
  /// Dense-gather fast path: captured broadcasts indexed by vertex id,
  /// rebuilt at the start of each wave that pulls (build_pull_dense) and
  /// only when V x sizeof(Message) fits a quarter of the budget.
  std::vector<Message> pull_dense_msgs_;
  /// plan_directions production history (suppressed sends included): the
  /// last two supersteps' messages_produced, for the trend extrapolation.
  std::uint64_t plan_produced_last_ = 0;
  std::uint64_t plan_produced_prev_ = 0;
  /// Loader over the transposed CSR for pull streaming (constructed only
  /// when pull_available_).
  std::unique_ptr<GraphLoaderUnit> tloader_;
  /// Per-interval static out-degree mass for the hub-degree schedule
  /// policy; computed lazily on the first scheduled wave, empty under BSP.
  std::vector<std::uint64_t> hub_score_;
  RunStats stats_;
  /// Context mode: this query's private I/O view. Every storage-level
  /// record made while this engine's ScopedSink is installed (main thread,
  /// parallel_for workers, and AsyncIo threads via submit-time capture)
  /// mirrors here, so step.io diffs stay per-query while other queries
  /// hammer the same Storage.
  ssd::IoStats query_io_;
  Superstep next_superstep_ = 0;

  // Per-superstep critical-path attribution, main thread only: time blocked
  // on storage (loads, prefetch waits, gather/scatter, eviction barriers)
  // vs time computing (sort/combine inline + vertex processing).
  double step_io_seconds_ = 0;
  double step_compute_seconds_ = 0;

  /// Per-compute-thread produce state, indexed by thread_index(): the
  /// multi-log staging area plus message counters that replace the shared
  /// atomics send() used to bump per record. Padded to a cache line so one
  /// thread's counter writes don't bounce its neighbors' lines.
  struct alignas(64) ThreadProduceState {
    multilog::MultiLogStore::Staging staging;
    std::uint64_t messages_produced = 0;
    std::uint64_t edges_activated = 0;
    /// §4e: record bytes this thread did NOT write because the destination
    /// interval pulls next superstep.
    std::uint64_t log_bytes_avoided = 0;
  };
  std::vector<ThreadProduceState> thread_state_;
  std::mutex structural_mutex_;
  std::vector<graph::StructuralUpdate> structural_queue_;
};

}  // namespace mlvc::core
