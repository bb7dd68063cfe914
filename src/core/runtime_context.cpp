#include "core/runtime_context.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace mlvc::core {

// ---------------------------------------------------------------------------
// SnapshotTable
// ---------------------------------------------------------------------------

std::string SnapshotTable::versioned_name(const std::string& name,
                                          std::uint64_t generation) {
  return name + "@g" + std::to_string(generation);
}

std::uint64_t SnapshotTable::publish(const std::string& name,
                                     const std::string& tmp_blob) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& generations = table_[name];
  const std::uint64_t next =
      generations.empty() ? 1 : generations.back().number + 1;
  const std::string blob = versioned_name(name, next);
  // The rename is the commit point: readers only ever see blob names that
  // were fully written before publish was called.
  storage_.publish_blob(tmp_blob, blob);
  generations.push_back({next, blob, 0});
  epoch_.fetch_add(1, std::memory_order_release);
  gc_locked(name);
  return next;
}

SnapshotTable::Ref SnapshotTable::pin() {
  Ref ref;
  ref.table_ = this;
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, generations] : table_) {
    if (generations.empty()) continue;
    Generation& latest = generations.back();
    ++latest.pins;
    ref.pinned_.emplace(name, Ref::Pin{latest.number, latest.blob});
  }
  return ref;
}

std::uint64_t SnapshotTable::generation(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = table_.find(name);
  if (it == table_.end() || it->second.empty()) return 0;
  return it->second.back().number;
}

std::size_t SnapshotTable::live_generations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = table_.find(name);
  return it == table_.end() ? 0 : it->second.size();
}

void SnapshotTable::unpin(const std::map<std::string, Ref::Pin>& pinned) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, pin] : pinned) {
    auto it = table_.find(name);
    if (it == table_.end()) continue;
    auto& generations = it->second;
    auto gen = std::find_if(
        generations.begin(), generations.end(),
        [&](const Generation& g) { return g.number == pin.generation; });
    if (gen == generations.end()) continue;
    MLVC_CHECK(gen->pins > 0);
    --gen->pins;
    gc_locked(name);
  }
}

void SnapshotTable::gc_locked(const std::string& name) {
  auto it = table_.find(name);
  if (it == table_.end()) return;
  auto& generations = it->second;
  // Everything but the latest generation is superseded; drop those whose pin
  // count reached zero. The latest is never collected — it is what the next
  // pin() will hand out.
  for (auto gen = generations.begin();
       generations.size() > 1 && gen != std::prev(generations.end());) {
    if (gen->pins == 0) {
      storage_.remove_blob(gen->blob);
      gen = generations.erase(gen);
    } else {
      ++gen;
    }
  }
}

const std::string& SnapshotTable::Ref::resolve(const std::string& name) const {
  auto it = pinned_.find(name);
  if (it == pinned_.end()) {
    throw InvalidArgument("snapshot has no generation of '" + name +
                          "' (not published at pin time)");
  }
  return it->second.blob;
}

void SnapshotTable::Ref::reset() {
  if (table_ != nullptr && !pinned_.empty()) {
    table_->unpin(pinned_);
  }
  table_ = nullptr;
  pinned_.clear();
}

// ---------------------------------------------------------------------------
// RuntimeContext
// ---------------------------------------------------------------------------

RuntimeContext::RuntimeContext(std::filesystem::path dir,
                               RuntimeContextOptions options)
    : options_(options),
      storage_(std::move(dir), options.device),
      shared_cache_(std::make_shared<ssd::PageCache>(
          storage_,
          std::max(options.shared_cache_bytes, storage_.page_size()))),
      arbiter_("runtime-context", options.memory_pool_bytes),
      snapshots_(storage_) {
  ssd::apply_io_env(options_.io_backend, options_.io_queue_depth,
                    options_.retry.max_attempts, options_.retry.base_delay_us);
  storage_.set_retry_policy(options_.retry);
  // The ONE io-backend decision for every query this context will serve.
  // Context-mode engines inherit it instead of re-probing per run.
  io_backend_ =
      storage_.set_io_backend(options_.io_backend, options_.io_queue_depth);
  io_fallback_ = storage_.io_backend_fallback();
}

void RuntimeContext::merge_run(const RunStats& stats) {
  const SuperstepStats totals = stats.totals();
  std::lock_guard<std::mutex> lock(agg_mutex_);
  ++aggregates_.queries_completed;
  aggregates_.supersteps += stats.supersteps.size();
  aggregates_.messages += totals.messages_produced;
  aggregates_.pages_read += totals.io.total_pages_read();
  aggregates_.pages_written += totals.io.total_pages_written();
  aggregates_.cache_hit_pages += stats.query_cache_hit_pages;
  aggregates_.cache_miss_pages += stats.query_cache_miss_pages;
  aggregates_.cache_bypass_pages += stats.query_cache_bypass_pages;
  aggregates_.query_wall_seconds += totals.total_wall_seconds;
}

ContextAggregates RuntimeContext::aggregates() const {
  std::lock_guard<std::mutex> lock(agg_mutex_);
  return aggregates_;
}

}  // namespace mlvc::core
