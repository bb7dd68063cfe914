// Typed view over the byte-oriented multi-log.
//
// A logged record is <v_dest, m> (§V.A): a 4-byte destination header
// followed by the application's message payload. Message types must be
// trivially copyable — they are memcpy'd into log pages and back.
#pragma once

#include <cstring>
#include <functional>
#include <span>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "multilog/log_codec.hpp"
#include "multilog/multilog_store.hpp"

namespace mlvc::multilog {

template <typename Message>
struct Record {
  static_assert(std::is_trivially_copyable_v<Message>,
                "messages are stored in logs by memcpy");
  VertexId dst;
  Message payload;
};

template <typename Message>
inline constexpr std::size_t kRecordSize = sizeof(Record<Message>);

/// Append a typed message to the store.
template <typename Message>
void append_record(MultiLogStore& store, VertexId dst, const Message& m) {
  Record<Message> rec{dst, m};
  store.append(dst, &rec);
}

/// Commit typed producer chunks, in order (MultiLogStore::commit). Returns
/// the number of intervals committed.
template <typename Message>
std::size_t commit_records(
    MultiLogStore& store,
    std::span<const std::vector<Record<Message>>> chunks) {
  std::vector<std::span<const std::byte>> bytes;
  bytes.reserve(chunks.size());
  for (const auto& chunk : chunks) {
    bytes.push_back(std::as_bytes(std::span(chunk)));
  }
  return store.commit(bytes);
}

/// A MultiLogConfig::combine over typed records: folds the payload of
/// `rec` into the payload of `acc` as combine(acc, rec), the order
/// sort_and_group's combine uses.
template <typename Message, typename Combine>
std::function<void(std::byte*, const std::byte*)> record_combiner(
    Combine combine) {
  return [combine](std::byte* acc, const std::byte* rec) {
    Record<Message> a;
    Record<Message> r;
    std::memcpy(&a, acc, sizeof(a));
    std::memcpy(&r, rec, sizeof(r));
    a.payload = combine(a.payload, r.payload);
    std::memcpy(acc, &a, sizeof(a));
  };
}

// TornPagePolicy lives in multilog/log_codec.hpp (shared by the v1 record
// funnel below and the v2 chunk-stream funnel).

/// v2 on-disk format: varint-encode the payload bytes after the destination
/// header when the message is a small integral with no struct padding
/// (BFS/WCC/k-core style); floats and padded records keep the fixed-width
/// fallback. Must be a pure function of the Message type — the checkpoint
/// transcoder and every store over the same app must agree.
template <typename Message>
inline constexpr bool kPayloadVarint =
    std::is_integral_v<Message> && sizeof(Message) <= 8 &&
    sizeof(Record<Message>) == sizeof(VertexId) + sizeof(Message);

/// Bytes to keep from `bytes` so the buffer is a whole number of
/// `record_size`-byte records — i.e. the length with the torn tail dropped.
inline std::size_t truncate_torn_tail(std::size_t bytes,
                                      std::size_t record_size) {
  return bytes - bytes % record_size;
}

/// Number of records in a raw log buffer, validating that the buffer is a
/// whole number of records. The store guarantees this for healthy logs, so
/// a remainder means a torn or truncated log page — every grouping path
/// (decode + sort and counting scatter alike) funnels through this check so
/// corruption surfaces as a typed mlvc::Error instead of undefined
/// behaviour. Under TornPagePolicy::kTruncate the partial tail is ignored
/// instead (the record count excludes it); the engine's recovery path uses
/// this after a crash.
template <typename Message>
std::size_t checked_record_count(std::span<const std::byte> bytes,
                                 TornPagePolicy policy = TornPagePolicy::kThrow) {
  if (policy == TornPagePolicy::kTruncate) {
    return bytes.size() / sizeof(Record<Message>);
  }
  MLVC_CHECK_MSG(bytes.size() % sizeof(Record<Message>) == 0,
                 "log buffer of " << bytes.size()
                                  << " bytes is not a whole number of "
                                  << sizeof(Record<Message>)
                                  << "-byte records — torn/truncated page?");
  return bytes.size() / sizeof(Record<Message>);
}

/// Reinterpret a loaded byte buffer as records. We copy into a properly
/// aligned vector (log pages have no alignment guarantees mid-stream).
template <typename Message>
std::vector<Record<Message>> decode_records(std::span<const std::byte> bytes) {
  std::vector<Record<Message>> out(checked_record_count<Message>(bytes));
  // An empty buffer may have a null data(), which memcpy must not see.
  if (!out.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
  return out;
}

}  // namespace mlvc::multilog
