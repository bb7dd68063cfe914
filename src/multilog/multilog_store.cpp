#include "multilog/multilog_store.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "multilog/log_codec.hpp"

namespace mlvc::multilog {

namespace {

/// Per-thread fold scratch: an accumulator record and a presence bit per
/// destination of the widest interval folded so far (the bitmap is all zero
/// between folds). Grows to its high-water mark, then a fold allocates
/// nothing.
struct FoldScratch {
  std::vector<std::byte> acc;
  std::vector<std::uint64_t> present;
};

/// commit()'s scratch, one per call.
struct CommitScratch {
  /// Per (block, interval): the block's record count, then its cursor into
  /// `grouped` while the block scatters.
  std::vector<std::uint64_t> cursor;
  /// Interval i's records are grouped[starts[i], starts[i + 1]).
  std::vector<std::uint64_t> starts;
  std::vector<std::byte> grouped;
  std::vector<IntervalId> touched;  // intervals with records, ascending
  /// Per touched interval: its stream bytes in arenas[arena].
  struct Out {
    unsigned arena = 0;
    std::size_t offset = 0;
    std::size_t len = 0;
    std::uint64_t records = 0;
    std::uint64_t sends = 0;
  };
  std::vector<Out> outs;
  std::vector<std::vector<std::byte>> arenas;  // one per thread
};

FoldScratch& fold_scratch() {
  thread_local FoldScratch scratch;
  return scratch;
}

}  // namespace

MultiLogStore::MultiLogStore(ssd::Storage& storage, std::string prefix,
                             const graph::VertexIntervals& intervals,
                             MultiLogConfig config)
    : storage_(storage),
      prefix_(std::move(prefix)),
      intervals_(&intervals),
      config_(config),
      page_size_(storage.page_size()) {
  MLVC_CHECK_MSG(config_.record_size >= sizeof(VertexId),
                 "record must at least hold the destination header");
  MLVC_CHECK_MSG(config_.record_size <= page_size_,
                 "a record must fit in one page");
  const IntervalId n = intervals.count();
  MLVC_CHECK_MSG(n > 0, "multi-log needs at least one interval");
  if (config_.buffer_budget_bytes != 0) {
    // §V.A.3: "at least one log buffer is allocated for each vertex
    // interval", so one top page per interval is mandatory resident state.
    // The budget is advisory beyond that floor (the paper's own numbers —
    // ~5000 intervals x 16 KiB vs A% = 5% of 1 GB — exceed a strict bound
    // too; their buffer is "10-100s of MBs"). We only reject budgets that
    // cannot hold even a single page.
    MLVC_CHECK_MSG(config_.buffer_budget_bytes >= page_size_,
                   "multi-log buffer budget ("
                       << config_.buffer_budget_bytes
                       << " B) smaller than one page (" << page_size_
                       << " B)");
  }
  if (config_.format == OnDiskFormat::kV2) {
    // v2 chunk streams are self-delimiting, so pages fill completely and
    // chunks straddle page boundaries — no per-page record alignment.
    usable_page_bytes_ = page_size_;
    MLVC_CHECK_MSG(!config_.payload_varint ||
                       config_.record_size - sizeof(VertexId) <= 8,
                   "varint payloads must fit a u64");
    MLVC_CHECK_MSG(kLogChunkHeaderBytes +
                           worst_chunk_record_bytes(config_.record_size,
                                                    config_.payload_varint) <=
                       0xFFFF,
                   "record too large for the v2 chunk format");
  } else {
    usable_page_bytes_ =
        (page_size_ / config_.record_size) * config_.record_size;
  }
  if (config_.combine) {
    fold_page_bytes_ =
        (page_size_ / config_.record_size) * config_.record_size;
    fold_bufs_.resize(n);
    for (IntervalId i = 0; i < n; ++i) {
      fold_bufs_[i].direct = static_cast<std::uint64_t>(intervals.width(i)) *
                                 config_.record_size <=
                             kFoldScratchMaxBytes;
      if (!fold_bufs_[i].direct) ++fold_wide_;
    }
  }
  interval_locks_.reserve(n);
  for (IntervalId i = 0; i < n; ++i) {
    interval_locks_.push_back(std::make_unique<std::mutex>());
  }
  produce_seq_ = std::make_unique<std::atomic<std::uint64_t>[]>(n);
  for (IntervalId i = 0; i < n; ++i) {
    produce_seq_[i].store(0, std::memory_order_relaxed);
  }
  if (config_.expect_fresh_blobs) {
    MLVC_CHECK_MSG(!storage_.has_blob(prefix_ + "/log_gen0") &&
                       !storage_.has_blob(prefix_ + "/log_gen1"),
                   "multi-log prefix '"
                       << prefix_
                       << "' already in use by a live or leaked store");
  }
  reset_generation(generations_[0], prefix_ + "/log_gen0");
  reset_generation(generations_[1], prefix_ + "/log_gen1");
}

MultiLogStore::~MultiLogStore() {
  try {
    std::lock_guard<std::mutex> lock(evict_mutex_);
    wait_background_evictions();
  } catch (...) {
    // Destructor: the log is going away, a failed flush of it is moot.
  }
}

void MultiLogStore::reset_generation(Generation& gen,
                                     const std::string& blob_name) {
  const IntervalId n = intervals_->count();
  gen.blob = &storage_.create_blob(blob_name, ssd::IoCategory::kMessageLog);
  gen.pages.assign(n, {});
  gen.top.assign(n, {});
  gen.top_fill.assign(n, 0);
  gen.counts.assign(n, 0);
  gen.sends.assign(n, 0);
  gen.next_page = 0;
}

void MultiLogStore::note_sends_locked(IntervalId i, std::uint64_t n) {
  // Quiesce signal: every produce-side append funnels through here (all
  // call sites pass the produce generation), so the per-interval sequence
  // advances exactly when interval i's pending sends grow — whether they
  // sit in the fold buffer or the log.
  produce_seq_[i].fetch_add(n, std::memory_order_relaxed);
  // Logical (decoded) produce bytes count sends, regardless of on-disk
  // format and of the fold — the physical side is whatever the eviction
  // batches hand the blob.
  storage_.stats().record_logical_write(ssd::IoCategory::kMessageLog,
                                        n * config_.record_size);
}

void MultiLogStore::append_stream_locked(Generation& gen, IntervalId i,
                                         const std::byte* data,
                                         std::size_t len,
                                         std::uint64_t n_records,
                                         std::uint64_t n_sends) {
  auto& top = gen.top[i];
  if (top.empty()) top.resize(page_size_);  // zero-fills the slack tail too
  std::size_t& fill = gen.top_fill[i];
  while (len > 0) {
    // fill and len are both whole records, so `take` is too: records never
    // straddle a page boundary and every flushed page passes
    // checked_record_count on its own.
    const std::size_t take = std::min(len, usable_page_bytes_ - fill);
    std::memcpy(top.data() + fill, data, take);
    fill += take;
    data += take;
    len -= take;
    if (fill == usable_page_bytes_) {
      // Page-granular eviction (§V.A.3): the full top page joins the batch
      // eviction queue and the interval starts a fresh one.
      queue_eviction(gen, i, top.data());
      fill = 0;
    }
  }
  gen.counts[i] += n_records;
  gen.sends[i] += n_sends;
}

std::span<const std::byte> MultiLogStore::stream_form(const std::byte* records,
                                                      std::size_t n) const {
  if (config_.format != OnDiskFormat::kV2) {
    return {records, n * config_.record_size};
  }
  thread_local std::vector<std::uint8_t> enc;
  enc.clear();
  encode_log_records(records, n, config_.record_size, config_.payload_varint,
                     enc);
  return std::as_bytes(std::span<const std::uint8_t>(enc));
}

namespace {

/// The fold loop of MultiLogStore::fold_records. kRecordSize fixes the
/// record copies at compile time for the 8-byte records of every combinable
/// app (a 4-byte message); 0 takes the size at runtime from `rs`.
template <std::size_t kRecordSize>
std::size_t fold_direct(std::byte* records, std::size_t n, std::size_t rs,
                        VertexId base, std::size_t width,
                        const MultiLogConfig& config, FoldScratch& s) {
  if constexpr (kRecordSize != 0) rs = kRecordSize;
  // Direct addressing by dst - base: the first record of a destination
  // seeds its accumulator, later ones combine into it (arrival order, the
  // same left fold sort_and_group applies on load).
  std::size_t lo = width;
  std::size_t hi = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::byte* rec = records + k * rs;
    VertexId dst;
    std::memcpy(&dst, rec, sizeof(dst));
    const std::size_t off = dst - base;
    std::byte* acc = s.acc.data() + off * rs;
    std::uint64_t& word = s.present[off / 64];
    const std::uint64_t bit = std::uint64_t{1} << (off % 64);
    if ((word & bit) != 0) {
      config.combine(acc, rec);
    } else {
      word |= bit;
      std::memcpy(acc, rec, rs);
      lo = std::min(lo, off);
      hi = std::max(hi, off);
    }
  }
  // Emit ascending by destination — sorted output keeps v2 destination
  // deltas short — and clear the bitmap on the way.
  std::size_t out = 0;
  for (std::size_t w = lo / 64; w <= hi / 64; ++w) {
    std::uint64_t word = s.present[w];
    s.present[w] = 0;
    while (word != 0) {
      const std::size_t off = w * 64 + std::countr_zero(word);
      word &= word - 1;
      std::memcpy(records + out * rs, s.acc.data() + off * rs, rs);
      ++out;
    }
  }
  return out;
}

}  // namespace

std::size_t MultiLogStore::fold_records(IntervalId i, std::byte* records,
                                        std::size_t n) {
  if (n == 0) return 0;
  WallTimer timer;
  const std::size_t rs = config_.record_size;
  const VertexId base = intervals_->begin(i);
  const std::size_t width = intervals_->width(i);
  FoldScratch& s = fold_scratch();
  if (s.acc.size() < width * rs) s.acc.resize(width * rs);
  if (s.present.size() < (width + 63) / 64) {
    s.present.resize((width + 63) / 64, 0);
  }
  std::size_t out = 0;
  switch (rs) {
    case 8:
      out = fold_direct<8>(records, n, rs, base, width, config_, s);
      break;
    default:
      out = fold_direct<0>(records, n, rs, base, width, config_, s);
  }
  records_folded_.fetch_add(n - out, std::memory_order_relaxed);
  fold_nanos_.fetch_add(timer.elapsed_nanos(), std::memory_order_relaxed);
  return out;
}

template <typename Emit>
void MultiLogStore::fold_feed(IntervalId i, const std::byte* records,
                              std::size_t n, Emit&& emit) {
  FoldBuffer& fb = fold_bufs_[i];
  const std::size_t rs = config_.record_size;
  const std::size_t cap = fold_page_bytes_ / rs;
  if (fb.buf.size() != fold_page_bytes_) fb.buf.resize(fold_page_bytes_);
  std::size_t len = n * rs;
  while (len > 0) {
    const std::size_t take = std::min(len, fold_page_bytes_ - fb.fill);
    std::memcpy(fb.buf.data() + fb.fill, records, take);
    fb.fill += take;
    fb.sends += take / rs;
    records += take;
    len -= take;
    if (fb.fill < fold_page_bytes_) break;
    const std::size_t kept = fold_records(i, fb.buf.data(), cap);
    if (kept * 2 <= cap) {
      // Few survivors: they stay and keep folding with later sends.
      fb.fill = kept * rs;
      continue;
    }
    emit(fb.buf.data(), kept, fb.sends);
    fb.fill = 0;
    fb.sends = 0;
  }
}

void MultiLogStore::spill_fold_locked(Generation& gen, IntervalId i) {
  FoldBuffer& fb = fold_bufs_[i];
  if (fb.fill == 0) return;
  const std::size_t kept =
      fold_records(i, fb.buf.data(), fb.fill / config_.record_size);
  const auto stream = stream_form(fb.buf.data(), kept);
  append_stream_locked(gen, i, stream.data(), stream.size(), kept, fb.sends);
  fb.fill = 0;
  fb.sends = 0;
}

void MultiLogStore::append(VertexId dst, const void* record) {
  const IntervalId i = intervals_->interval_of(dst);
  const auto* rec = static_cast<const std::byte*>(record);
  Generation& gen = generations_[produce_index_];
  std::lock_guard<std::mutex> lock(*interval_locks_[i]);
  note_sends_locked(i, 1);
  if (folds(i)) {
    fold_feed(i, rec, 1,
              [&](const std::byte* survivors, std::size_t kept,
                  std::uint64_t sends) {
                const auto stream = stream_form(survivors, kept);
                append_stream_locked(gen, i, stream.data(), stream.size(),
                                     kept, sends);
              });
    return;
  }
  const auto stream = stream_form(rec, 1);
  append_stream_locked(gen, i, stream.data(), stream.size(), 1, 1);
}

std::size_t MultiLogStore::commit(
    std::span<const std::span<const std::byte>> chunks) {
  const std::size_t rs = config_.record_size;
  const IntervalId n = interval_count();
  CommitScratch c;
  const auto interval_at = [&](const std::byte* rec) {
    VertexId dst;
    std::memcpy(&dst, rec, sizeof(dst));
    return intervals_->interval_of(dst);
  };

  // 1. Group by destination interval: a stable counting sort over the
  //    chunks in order. Blocks are equal runs of the concatenated records;
  //    the grouped order is the same however they split. A batch of one
  //    block stays on the calling thread throughout: a team would cost more
  //    than it saves.
  std::vector<std::uint64_t> chunk_begin(chunks.size() + 1, 0);
  for (std::size_t k = 0; k < chunks.size(); ++k) {
    MLVC_CHECK_MSG(chunks[k].size() % rs == 0,
                   "commit chunk not a whole number of records");
    chunk_begin[k + 1] = chunk_begin[k] + chunks[k].size() / rs;
  }
  const std::uint64_t total = chunk_begin.back();
  if (total == 0) return 0;
  const auto blocks = chunk_bounds(total, std::size_t{1} << 14,
                                   hardware_threads());
  const std::size_t n_blocks = blocks.size() - 1;
  const auto for_each_task = [&](std::size_t n_tasks, auto&& task) {
    if (n_blocks == 1) {
      for (std::size_t t = 0; t < n_tasks; ++t) task(t);
    } else {
      parallel_for_each(n_tasks, task);
    }
  };
  const auto for_each_record = [&](std::size_t b, auto&& f) {
    std::size_t k = static_cast<std::size_t>(
        std::upper_bound(chunk_begin.begin(), chunk_begin.end(), blocks[b]) -
        chunk_begin.begin() - 1);
    for (std::uint64_t r = blocks[b]; r < blocks[b + 1]; ++k) {
      const std::uint64_t end = std::min<std::uint64_t>(chunk_begin[k + 1],
                                                        blocks[b + 1]);
      for (; r < end; ++r) f(chunks[k].data() + (r - chunk_begin[k]) * rs);
    }
  };
  c.cursor.resize(n_blocks * n);
  for_each_task(n_blocks, [&](std::size_t b) {
    std::uint64_t* count = c.cursor.data() + b * n;
    for_each_record(b,
                    [&](const std::byte* rec) { ++count[interval_at(rec)]; });
  });
  c.starts.resize(n + 1);
  std::uint64_t run = 0;
  for (IntervalId i = 0; i < n; ++i) {
    c.starts[i] = run;
    for (std::size_t b = 0; b < n_blocks; ++b) {
      const std::uint64_t count = c.cursor[b * n + i];
      c.cursor[b * n + i] = run;
      run += count;
    }
    if (run > c.starts[i]) c.touched.push_back(i);
  }
  c.starts[n] = run;
  c.grouped.resize(total * rs);
  for_each_task(n_blocks, [&](std::size_t b) {
    std::uint64_t* cursor = c.cursor.data() + b * n;
    for_each_record(b, [&](const std::byte* rec) {
      std::memcpy(c.grouped.data() + cursor[interval_at(rec)]++ * rs, rec, rs);
    });
  });

  // 2. One owner per interval folds or encodes its group into its thread's
  //    arena. Nothing here touches storage.
  c.arenas.resize(hardware_threads());
  c.outs.resize(c.touched.size());
  for_each_task(c.touched.size(), [&](std::size_t j) {
    const IntervalId i = c.touched[j];
    std::byte* records = c.grouped.data() + c.starts[i] * rs;
    const std::size_t count = c.starts[i + 1] - c.starts[i];
    CommitScratch::Out& out = c.outs[j];
    out.arena = thread_index();
    std::vector<std::byte>& arena = c.arenas[out.arena];
    out.offset = arena.size();
    const auto emit = [&](const std::byte* recs, std::size_t kept,
                          std::uint64_t sends) {
      const auto stream = stream_form(recs, kept);
      arena.insert(arena.end(), stream.begin(), stream.end());
      out.records += kept;
      out.sends += sends;
    };
    std::lock_guard<std::mutex> lock(*interval_locks_[i]);
    if (folds(i)) {
      fold_feed(i, records, count, emit);
    } else {
      for (std::size_t k = 0; k < count; k += kCommitEncodeRecords) {
        const std::size_t unit = std::min(kCommitEncodeRecords, count - k);
        emit(records + k * rs, unit, unit);
      }
    }
    out.len = arena.size() - out.offset;
  });

  // 3. Append and queue for eviction in interval order, on the calling
  //    thread (its I/O-stats sink sees the logical and physical writes).
  Generation& gen = generations_[produce_index_];
  for (std::size_t j = 0; j < c.touched.size(); ++j) {
    const IntervalId i = c.touched[j];
    const CommitScratch::Out& out = c.outs[j];
    std::lock_guard<std::mutex> lock(*interval_locks_[i]);
    note_sends_locked(i, c.starts[i + 1] - c.starts[i]);
    if (out.len == 0) continue;
    append_stream_locked(gen, i, c.arenas[out.arena].data() + out.offset,
                         out.len, out.records, out.sends);
  }
  return c.touched.size();
}

std::uint64_t MultiLogStore::produced_count(IntervalId i) const {
  MLVC_CHECK(i < intervals_->count());
  const Generation& gen = generations_[produce_index_];
  std::lock_guard<std::mutex> lock(*interval_locks_[i]);
  return gen.sends[i] + (folds(i) ? fold_bufs_[i].sends : 0);
}

void MultiLogStore::queue_eviction(Generation& gen, IntervalId interval,
                                   const std::byte* page) {
  std::lock_guard<std::mutex> lock(evict_mutex_);
  gen.evict_buffer.insert(gen.evict_buffer.end(), page, page + page_size_);
  gen.evict_owners.push_back(interval);
  if (gen.evict_owners.size() >=
      std::max<std::size_t>(1, config_.evict_batch_pages)) {
    flush_evictions(gen);
  }
}

void MultiLogStore::flush_evictions(Generation& gen) {
  // Caller holds evict_mutex_. One contiguous append covers the whole batch
  // — this is what lets log write-back run at streaming bandwidth, per the
  // paper's §V.A.3 design.
  if (gen.evict_owners.empty()) return;
  if (config_.async_io == nullptr) {
    const std::uint64_t offset =
        gen.blob->append(gen.evict_buffer.data(), gen.evict_buffer.size());
    std::uint64_t page_no = offset / page_size_;
    for (IntervalId owner : gen.evict_owners) {
      gen.pages[owner].push_back(page_no++);
    }
    gen.evict_buffer.clear();
    gen.evict_owners.clear();
    return;
  }
  // Background path: reserve the blob range now so every interval's page
  // chain stays in append order (the log is a per-interval record stream —
  // order is load-bearing), then hand the batch to an I/O thread. Readers of
  // these pages are gated behind wait_background_evictions().
  const std::uint64_t offset = gen.blob->reserve(gen.evict_buffer.size());
  std::uint64_t page_no = offset / page_size_;
  for (IntervalId owner : gen.evict_owners) {
    gen.pages[owner].push_back(page_no++);
  }
  auto data = std::make_shared<std::vector<std::byte>>(
      std::move(gen.evict_buffer));
  ssd::Blob* blob = gen.blob;
  pending_evictions_.add(config_.async_io->submit(
      [blob, offset, data] { blob->write(offset, data->data(), data->size()); }));
  gen.evict_buffer.clear();
  gen.evict_owners.clear();
}

void MultiLogStore::wait_background_evictions() {
  pending_evictions_.wait();
}

void MultiLogStore::swap_generations() {
  // Fold buffers empty into their logs before anything reads them.
  Generation& produce = generations_[produce_index_];
  for (IntervalId i = 0; i < static_cast<IntervalId>(fold_bufs_.size());
       ++i) {
    std::lock_guard<std::mutex> lock(*interval_locks_[i]);
    spill_fold_locked(produce, i);
  }
  // Everything queued for eviction must be on storage before the produce
  // generation becomes readable.
  {
    std::lock_guard<std::mutex> lock(evict_mutex_);
    flush_evictions(generations_[produce_index_]);
    wait_background_evictions();
  }
  // The consume generation's data has been fully read; recycle it as the
  // new produce generation.
  const unsigned consume = 1 - produce_index_;
  ++swap_count_;
  reset_generation(generations_[consume],
                   prefix_ + "/log_gen" + std::to_string(swap_count_ % 2) +
                       "_s" + std::to_string(swap_count_));
  produce_index_ = consume;
}

std::uint64_t MultiLogStore::current_count(IntervalId i) const {
  MLVC_CHECK(i < intervals_->count());
  return generations_[1 - produce_index_].counts[i];
}

std::uint64_t MultiLogStore::current_sends(IntervalId i) const {
  MLVC_CHECK(i < intervals_->count());
  return generations_[1 - produce_index_].sends[i];
}

std::uint64_t MultiLogStore::total_current_count() const {
  const Generation& gen = generations_[1 - produce_index_];
  std::uint64_t total = 0;
  for (std::uint64_t c : gen.counts) total += c;
  return total;
}

std::uint64_t MultiLogStore::current_pages(IntervalId i) const {
  MLVC_CHECK(i < intervals_->count());
  return generations_[1 - produce_index_].pages[i].size();
}

void MultiLogStore::load_interval(IntervalId i,
                                  std::vector<std::byte>& out) const {
  MLVC_CHECK(i < intervals_->count());
  const Generation& gen = generations_[1 - produce_index_];
  // v1 invariant: the physical stream is exactly the logical records. v2
  // streams are the encoded chunk bytes; the decoded size is what the
  // logical counter reports.
  const std::uint64_t logical = gen.counts[i] * config_.record_size;
  const std::uint64_t bytes = config_.format == OnDiskFormat::kV2
                                  ? stream_bytes(gen, i)
                                  : logical;
  if (bytes == 0) return;
  storage_.stats().record_logical_read(ssd::IoCategory::kMessageLog, logical);
  const std::size_t base = out.size();
  out.resize(base + bytes);
  read_stream(gen, i, out.data() + base, bytes);
}

void MultiLogStore::read_stream(const Generation& gen, IntervalId i,
                                std::byte* dst, std::uint64_t bytes) const {
  std::size_t written = 0;
  // Runs of adjacent page numbers (frequent thanks to batched eviction)
  // coalesce into one op each; the whole interval is then fetched with a
  // single vectored read call. When the record size does not divide the page
  // size, each page carries a zero-padded slack tail that must be skipped,
  // so pages are fetched one op each (still a single vectored call).
  const auto& pages = gen.pages[i];
  std::vector<ssd::ReadOp> ops;
  if (usable_page_bytes_ == page_size_) {
    std::size_t p = 0;
    while (p < pages.size()) {
      std::size_t q = p + 1;
      while (q < pages.size() && pages[q] == pages[q - 1] + 1) ++q;
      ops.push_back({pages[p] * page_size_, dst + written,
                     (q - p) * page_size_});
      written += (q - p) * page_size_;
      p = q;
    }
  } else {
    ops.reserve(pages.size());
    for (std::uint64_t page_no : pages) {
      ops.push_back({page_no * page_size_, dst + written, usable_page_bytes_});
      written += usable_page_bytes_;
    }
  }
  gen.blob->read_multi(ops);
  const std::size_t tail = gen.top_fill[i];
  if (tail > 0) {
    // Resident tail: never hit storage, so no I/O charged.
    std::memcpy(dst + written, gen.top[i].data(), tail);
    written += tail;
  }
  MLVC_CHECK_MSG(written == bytes,
                 "log byte accounting mismatch for interval "
                     << i << ": " << written << " vs " << bytes);
}

void MultiLogStore::reset_all() {
  {
    // Both generations are being discarded; let in-flight writes finish so
    // nothing scribbles on a recycled blob. Their errors are moot.
    std::lock_guard<std::mutex> lock(evict_mutex_);
    try {
      wait_background_evictions();
    } catch (...) {
    }
  }
  for (FoldBuffer& fb : fold_bufs_) {
    fb.fill = 0;
    fb.sends = 0;
  }
  ++swap_count_;
  reset_generation(generations_[0],
                   prefix_ + "/log_reset0_s" + std::to_string(swap_count_));
  reset_generation(generations_[1],
                   prefix_ + "/log_reset1_s" + std::to_string(swap_count_));
  produce_index_ = 0;
}

void MultiLogStore::restore_current_interval(
    IntervalId i, std::span<const std::byte> bytes) {
  MLVC_CHECK(i < intervals_->count());
  std::uint64_t n_records = 0;
  if (config_.format == OnDiskFormat::kV2) {
    // The image must be a whole chunk stream (checkpoint CRCs catch tears
    // before this; a torn crash-recovery stream is truncated by the engine's
    // load funnel, not here).
    const auto checked = index_log_chunks(bytes, TornPagePolicy::kThrow);
    n_records = checked.n_records();
  } else {
    MLVC_CHECK_MSG(bytes.size() % config_.record_size == 0,
                   "restore image not a whole number of records");
    n_records = bytes.size() / config_.record_size;
  }
  Generation& gen = generations_[1 - produce_index_];
  std::lock_guard<std::mutex> lock(*interval_locks_[i]);
  MLVC_CHECK_MSG(gen.counts[i] == 0,
                 "restore into a non-empty interval log; reset_all() first");
  // Full pages to the blob, remainder into the resident tail — the same
  // physical shape a normally-written log has (usable_page_bytes_ of records
  // per page, zero-padded slack when the record size doesn't divide pages).
  std::size_t off = 0;
  std::vector<std::byte> page(page_size_, std::byte{0});
  while (bytes.size() - off >= usable_page_bytes_) {
    std::memcpy(page.data(), bytes.data() + off, usable_page_bytes_);
    const std::uint64_t blob_off = gen.blob->append(page.data(), page_size_);
    gen.pages[i].push_back(blob_off / page_size_);
    off += usable_page_bytes_;
  }
  const std::size_t tail = bytes.size() - off;
  if (tail > 0) {
    gen.top[i].assign(page_size_, std::byte{0});
    std::memcpy(gen.top[i].data(), bytes.data() + off, tail);
    gen.top_fill[i] = tail;
  }
  gen.counts[i] = n_records;
  gen.sends[i] = n_records;
}

std::uint64_t MultiLogStore::drain_produce_interval(
    IntervalId i, std::vector<std::byte>& out) {
  MLVC_CHECK(i < intervals_->count());
  Generation& gen = generations_[produce_index_];
  // Lock order matters: interval first, then evict — the same order the
  // append path uses (queue_eviction runs under the interval lock). Holding
  // the interval lock before flushing evictions means no appender can queue
  // further pages of this interval in between, so the page list read below
  // is complete; holding evict_mutex_ across the reads keeps concurrent
  // drains/appends of *other* intervals from growing gen.pages under us.
  std::lock_guard<std::mutex> lock(*interval_locks_[i]);
  // The fold buffer's survivors join the log first (this may queue an
  // eviction, so it runs before evict_mutex_ is taken).
  if (folds(i)) spill_fold_locked(gen, i);
  std::lock_guard<std::mutex> evict_lock(evict_mutex_);
  flush_evictions(gen);
  wait_background_evictions();
  const std::uint64_t count = gen.counts[i];
  const std::uint64_t sends = gen.sends[i];
  const std::uint64_t bytes = stream_bytes(gen, i);
  if (bytes == 0) return 0;
  storage_.stats().record_logical_read(ssd::IoCategory::kMessageLog,
                                       count * config_.record_size);
  const std::size_t base = out.size();
  out.resize(base + bytes);
  read_stream(gen, i, out.data() + base, bytes);
  gen.pages[i].clear();
  gen.top_fill[i] = 0;
  gen.counts[i] = 0;
  gen.sends[i] = 0;
  return sends;
}

}  // namespace mlvc::multilog
