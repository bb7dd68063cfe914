// The multi-log update unit (§V.A of the paper).
//
// One message log per destination vertex interval. SendUpdate(dst, m)
// appends the fixed-size record <dst, m> to the log of dst's interval. Each
// interval keeps one page-sized "top page" buffer in host memory; a full top
// page is flushed to storage (page-granular eviction, §V.A.3). Physically,
// all flushed pages of one generation live in a single storage blob — a
// page-chained log per interval — so thousands of intervals don't need
// thousands of file descriptors, while reads/writes still hit exactly the
// interval's own pages. The device model stripes consecutive pages across
// channels, reproducing the paper's "logs interspersed across channels".
//
// Two generations exist at once: the *current* generation (written last
// superstep, now being consumed) and the *produce* generation (receiving
// this superstep's sends). swap_generations() rotates them at the superstep
// boundary.
//
// Produce order. The engine buffers a compute batch's sends per fixed chunk
// of the batch (not per thread) and hands them to commit() once the batch
// joins. commit() groups the records by destination interval, keeping chunk
// order and, within a chunk, send order; each interval then has exactly one
// committer, and the committed pages are appended and queued for eviction
// in interval order. Every log stream and its page layout are therefore a
// function of the batch, never of the thread schedule.
//
// Produce-side fold. When the config carries a combine operator (the
// engine sets one for combinable apps with combining on), sends do not go
// straight into the top page: each interval also keeps a one-page *fold
// buffer* of raw records. When it fills, its committer combines it per
// destination and either keeps the survivors (when they fill at most half
// the buffer) or appends them — ascending by destination — to the top page.
// Only survivors reach storage, so a sum or min app writes and reads back
// far fewer log bytes. Records fold in commit order, so float sums are
// reproducible. This departs on purpose from the paper, which combines only
// after the log is loaded (§V.D); apps without a combine keep every
// message. Folded records are ordinary records: the read side is unchanged.
//
// The store is byte-oriented (record_size fixed at construction) so it can
// be compiled once and unit-tested independently of any message type; the
// engine layers a typed view on top (multilog/record.hpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "graph/intervals.hpp"
#include "ssd/async_io.hpp"
#include "ssd/storage.hpp"

namespace mlvc::multilog {

struct MultiLogConfig {
  /// Bytes per logged record, including the 4-byte destination header.
  std::size_t record_size = 8;

  /// On-disk layout of the flushed logs. kV1 stores fixed-width records,
  /// page-aligned (records never straddle a page). kV2 stores the
  /// delta+varint chunk stream of multilog/log_codec.hpp: pages fill
  /// completely, chunks may straddle page boundaries, and load_interval
  /// returns the encoded stream (record counts stay logical either way).
  /// The engine picks this from EngineOptions::on_disk_format; the default
  /// here stays v1 so byte-oriented unit tests keep raw-record semantics.
  OnDiskFormat format = OnDiskFormat::kV1;
  /// v2 only: varint-encode the post-destination payload bytes (small
  /// integral messages); false keeps payloads fixed-width (floats, padded
  /// records). Must match multilog::kPayloadVarint<Message> for typed use.
  bool payload_varint = false;
  /// Host memory available for top pages (A% of the budget, §V.A.3). The
  /// paper notes at least one page per interval must be resident; we keep
  /// exactly one top page per interval (plus, with a combine, one fold-buffer
  /// page: at most two pages per interval) and check the budget covers one.
  std::size_t buffer_budget_bytes = 0;  // 0 = don't enforce

  /// Full pages queue in a small eviction buffer and are written to the
  /// generation blob in one batched, contiguous append of this many pages
  /// (§V.A.3: evictions are batched and striped to "maximize log writeback
  /// bandwidth"). 1 = write each page immediately.
  std::size_t evict_batch_pages = 16;

  /// When set, full eviction batches are written to the generation blob by
  /// these I/O threads instead of inline on the producing compute thread
  /// (the paper's §VI async-I/O overlap). Blob offsets — and therefore page
  /// numbers — are still assigned synchronously, so log layout and page
  /// accounting are byte-identical to the inline path. Non-owning.
  ssd::AsyncIo* async_io = nullptr;

  /// Reject construction when this prefix's generation blobs already exist.
  /// Two LIVE stores sharing a prefix silently truncate each other's logs
  /// (create_blob truncates), so context-mode engines — whose "q<id>"
  /// prefixes are unique by construction — set this to turn an id collision
  /// into a loud error. One-shot runs leave it off: rebuilding an engine
  /// over an existing storage directory is legal there (test_checkpoint
  /// does exactly that).
  bool expect_fresh_blobs = false;

  /// Combines the record at `rec` into the record at `acc` (same
  /// destination, both record_size bytes). Set = fold sends per destination
  /// on the produce path (see the file comment); empty = keep every record.
  /// The operator must be associative and commutative.
  std::function<void(std::byte* acc, const std::byte* rec)> combine = {};
};

/// Cumulative produce-side fold counters of one store (diff two snapshots
/// for a window).
struct FoldStats {
  /// Sends the fold combined away (sends in minus records out).
  std::uint64_t records_folded = 0;
  /// CPU time spent folding, outside every interval lock.
  double seconds = 0;
};

class MultiLogStore {
 public:
  MultiLogStore(ssd::Storage& storage, std::string prefix,
                const graph::VertexIntervals& intervals, MultiLogConfig config);

  /// Waits for outstanding background eviction writes (errors are dropped —
  /// the data is being discarded anyway).
  ~MultiLogStore();

  std::size_t record_size() const noexcept { return config_.record_size; }
  OnDiskFormat format() const noexcept { return config_.format; }
  bool payload_varint() const noexcept { return config_.payload_varint; }
  IntervalId interval_count() const noexcept {
    return static_cast<IntervalId>(intervals_->count());
  }

  // ---- produce side (messages for the *next* superstep) -------------------

  /// Append one record for destination vertex `dst`. `record` must be
  /// record_size bytes whose first 4 bytes equal `dst`. Thread-safe (per
  /// interval lock). The locked single-record path: under v2 each record is
  /// a chunk of its own. The engine produces through commit().
  void append(VertexId dst, const void* record);

  /// Records per v2 chunk when commit() encodes an interval's unfolded
  /// records.
  static constexpr std::size_t kCommitEncodeRecords = 64;

  /// Commit one batch's sends. `chunks` are the batch's producer chunks in
  /// batch order, each whole raw records (record_size bytes, destination
  /// first) in send order. The records are grouped by destination interval
  /// — chunk order, then send order within a chunk — and each interval's
  /// group is folded (when the interval folds) or encoded in
  /// kCommitEncodeRecords-record units by one owner, in parallel across
  /// intervals; the results are appended and queued for eviction in
  /// interval order. The outcome depends only on the concatenated records,
  /// not on the chunk boundaries or the thread count. Returns the number of
  /// intervals committed. Thread-safe; the scratch lives for the call, so
  /// nothing batch-sized stays resident between commits.
  std::size_t commit(std::span<const std::span<const std::byte>> chunks);

  /// Bytes of each flushed page that hold records. Pages always contain a
  /// whole number of records (floor(page_size / record_size) of them); when
  /// record_size does not divide the page size the slack tail of every page
  /// is zero padding, written but never read back.
  std::size_t usable_page_bytes() const noexcept { return usable_page_bytes_; }

  /// Sends appended to interval i's produce generation so far, including
  /// records still in its fold buffer and records the fold absorbed.
  std::uint64_t produced_count(IntervalId i) const;

  /// Per-interval producer sequence: total sends ever appended to interval
  /// i's produce side, monotone across generation swaps (never reset). This
  /// is the interval-granular quiesce signal the scheduler uses: a chain
  /// records the sequence right after draining i's log, and any later
  /// mismatch means producers appended behind the drain. Lock-free read —
  /// exact whenever no appender is concurrently live for i (the engine reads
  /// it from the main thread with no parallel region active).
  std::uint64_t produce_seq(IntervalId i) const noexcept {
    return produce_seq_[i].load(std::memory_order_relaxed);
  }

  /// Cumulative fold counters (all zero when the config has no combine).
  FoldStats fold_stats() const noexcept {
    return {records_folded_.load(std::memory_order_relaxed),
            static_cast<double>(fold_nanos_.load(std::memory_order_relaxed)) *
                1e-9};
  }

  /// Intervals too wide for the fold's direct-addressed scratch
  /// (width x record_size > kFoldScratchMaxBytes). Their sends bypass the
  /// fold buffer and are logged unfolded. 0 when the fold is off.
  IntervalId fold_wide_intervals() const noexcept { return fold_wide_; }

  /// Cap on the per-thread fold scratch: one accumulator record per
  /// destination of the interval being folded.
  static constexpr std::size_t kFoldScratchMaxBytes = 8u << 20;

  // ---- superstep boundary --------------------------------------------------

  /// Fold and append every fold buffer into its log, discard the consumed
  /// generation, make the produced one current. Partial top pages stay in
  /// host memory and are served from there on load (no I/O charged — they
  /// never left the host).
  void swap_generations();

  // ---- consume side (messages sent during the *previous* superstep) -------

  /// Records stored in interval i's current log (after the fold).
  std::uint64_t current_count(IntervalId i) const;
  std::uint64_t total_current_count() const;
  /// Sends that produced interval i's current log: current_count(i) plus
  /// the records the fold absorbed. A log restored from a checkpoint image
  /// only knows its stored records, so there the two are equal.
  std::uint64_t current_sends(IntervalId i) const;

  /// Logical (decoded) byte size of interval i's current log — records x
  /// record_size regardless of on-disk format, which is what fusion planning
  /// sizes its sort budget against.
  std::uint64_t current_bytes(IntervalId i) const {
    return current_count(i) * config_.record_size;
  }

  /// Load interval i's full current log (spilled pages + resident tail) into
  /// `out`, appended. Page reads are charged to IoCategory::kMessageLog
  /// (physical bytes); the decoded size is recorded as logical bytes. Under
  /// v1 the bytes are raw records; under v2 they are the encoded chunk
  /// stream (current_bytes(i) is the decoded size).
  void load_interval(IntervalId i, std::vector<std::byte>& out) const;

  /// Number of pages interval i's current log occupies on storage.
  std::uint64_t current_pages(IntervalId i) const;

  /// Checkpoint support: replace interval i's *current* (consume-side) log
  /// with a whole-log image (as produced by load_interval). Caller must
  /// reset_all() first so both generations start empty.
  void restore_current_interval(IntervalId i, std::span<const std::byte> bytes);

  /// Drop all logs in both generations, fold buffers included (checkpoint
  /// rollback).
  void reset_all();

  /// Asynchronous-mode support (§V.F): move everything appended to interval
  /// i's *produce* log so far into `out` and reset that log, so messages
  /// sent earlier in the same superstep can be delivered to intervals
  /// processed later ("the latest updates from the source vertices will be
  /// delivered to the target vertices, either from the current superstep or
  /// the previous one"). Returns the sends behind the drained records
  /// (with a combine, fewer records than sends).
  std::uint64_t drain_produce_interval(IntervalId i,
                                       std::vector<std::byte>& out);

 private:
  struct Generation {
    ssd::Blob* blob = nullptr;                       // flushed pages
    std::vector<std::vector<std::uint64_t>> pages;   // per-interval page nos
    std::vector<std::vector<std::byte>> top;         // per-interval tail
    std::vector<std::size_t> top_fill;               // bytes used in tail
    std::vector<std::uint64_t> counts;               // records per interval
    std::vector<std::uint64_t> sends;                // sends behind counts
    // Eviction queue: full pages awaiting one batched contiguous append.
    std::vector<std::byte> evict_buffer;
    std::vector<IntervalId> evict_owners;
    std::uint64_t next_page = 0;
  };

  void reset_generation(Generation& gen, const std::string& blob_name);
  /// Count `n` new sends to interval i at append time: the produce
  /// sequence and the logical write bytes. Caller holds interval i's lock.
  void note_sends_locked(IntervalId i, std::uint64_t n);
  /// Copy `len` stream bytes carrying `n_records` records, which stand for
  /// `n_sends` sends, into interval i's top page, evicting each page as it
  /// fills (to usable_page_bytes_, which is the whole page under v2 —
  /// encoded chunks straddle pages). Caller holds interval i's lock. Under
  /// v1, len is n_records whole records and records never straddle a page
  /// boundary.
  void append_stream_locked(Generation& gen, IntervalId i,
                            const std::byte* data, std::size_t len,
                            std::uint64_t n_records, std::uint64_t n_sends);
  /// True when interval i's sends go through its fold buffer.
  bool folds(IntervalId i) const noexcept {
    return !fold_bufs_.empty() && fold_bufs_[i].direct;
  }
  /// Feed `n` raw records to interval i's fold buffer, folding it each time
  /// it fills. Survivors stay in the buffer while they fill at most half of
  /// it; otherwise they leave through emit(records, kept, sends), ascending
  /// by destination. Caller owns interval i (its lock).
  template <typename Emit>
  void fold_feed(IntervalId i, const std::byte* records, std::size_t n,
                 Emit&& emit);
  /// Combine `n` raw records of interval i in place: the survivors, one per
  /// destination in ascending order, overwrite the front of `records`.
  /// Returns their count. O(1) per record plus one bitmap word per 64
  /// destinations spanned; needs no lock.
  std::size_t fold_records(IntervalId i, std::byte* records, std::size_t n);
  /// Fold interval i's buffer and append the survivors to its log. Caller
  /// holds interval i's lock.
  void spill_fold_locked(Generation& gen, IntervalId i);
  /// The stream form of `n` raw records: the records themselves under v1,
  /// their chunk encoding (in thread-local scratch) under v2.
  std::span<const std::byte> stream_form(const std::byte* records,
                                         std::size_t n) const;
  /// Physical stream bytes of interval i in `gen`: spilled pages plus the
  /// resident tail. Equals counts[i] * record_size under v1.
  std::uint64_t stream_bytes(const Generation& gen, IntervalId i) const {
    return gen.pages[i].size() * usable_page_bytes_ + gen.top_fill[i];
  }
  /// Copy interval i's stream in `gen` — its spilled pages (adjacent
  /// pages read as one op) then its resident tail — into `dst`, which
  /// holds `bytes` == stream_bytes(gen, i).
  void read_stream(const Generation& gen, IntervalId i, std::byte* dst,
                   std::uint64_t bytes) const;
  void queue_eviction(Generation& gen, IntervalId interval,
                      const std::byte* page);
  void flush_evictions(Generation& gen);
  /// Block until every background eviction write issued so far has landed on
  /// storage, rethrowing the first captured I/O error. Caller must hold
  /// evict_mutex_.
  void wait_background_evictions();

  ssd::Storage& storage_;
  std::string prefix_;
  const graph::VertexIntervals* intervals_;
  MultiLogConfig config_;
  std::size_t page_size_;
  /// Record-holding prefix of every page: floor(page_size / record_size)
  /// whole records. Eviction, load and drain all work in these units.
  std::size_t usable_page_bytes_ = 0;
  /// One page of raw records per interval, produce side only; guarded by
  /// the interval lock. Empty when the config has no combine.
  struct FoldBuffer {
    std::vector<std::byte> buf;  // fold_page_bytes_ once first used
    std::size_t fill = 0;
    std::uint64_t sends = 0;  // sends the buffered records stand for
    bool direct = false;      // narrow enough for the direct-addressed fold
  };
  std::vector<FoldBuffer> fold_bufs_;
  /// Whole records per fold buffer: floor(page_size / record_size) of them.
  std::size_t fold_page_bytes_ = 0;
  IntervalId fold_wide_ = 0;
  std::atomic<std::uint64_t> records_folded_{0};
  std::atomic<std::uint64_t> fold_nanos_{0};

  std::vector<std::unique_ptr<std::mutex>> interval_locks_;
  mutable std::mutex evict_mutex_;
  ssd::IoBatch pending_evictions_;  // guarded by evict_mutex_
  Generation generations_[2];
  unsigned produce_index_ = 0;  // generations_[produce_index_] receives sends
  unsigned swap_count_ = 0;
  /// Monotone per-interval producer sequence (see produce_seq()); bumped in
  /// note_sends_locked, the single funnel every produce-side append passes
  /// through. Atomic so the scheduler can read it without the interval lock.
  std::unique_ptr<std::atomic<std::uint64_t>[]> produce_seq_;
};

}  // namespace mlvc::multilog
