// File-backed, page-accounted storage.
//
// A Storage is a directory of named blobs (CSR vectors, message logs, edge
// logs, shards, sort runs...). All reads and writes go through real kernel
// I/O — blocking pread/pwrite by default, or a batched io_uring ring when
// set_io_backend(IoBackendKind::kUring) is selected — while every call also
// charges the pages it touches to the DeviceModel and IoStats, identically
// under both backends. Reading 100 bytes that straddle two 16 KiB pages
// costs two page reads, exactly the read amplification the paper reasons
// about (§IV.C).
#pragma once

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "ssd/device_model.hpp"
#include "ssd/io_backend.hpp"
#include "ssd/io_stats.hpp"

namespace mlvc::ssd {

class Storage;
class FaultInjector;
enum class FaultSite : unsigned;
class UringIo;
struct UringOp;

/// Retry budget for transient I/O failures. EINTR is always retried for
/// free; EAGAIN/EIO consume one attempt each and sleep an exponentially
/// growing backoff between attempts. Forward progress (any bytes moved)
/// resets the budget. Exhaustion escalates as a typed IoError and bumps
/// IoStats::io_giveup_count.
struct RetryPolicy {
  unsigned max_attempts = 4;    // attempts per no-progress streak
  unsigned base_delay_us = 50;  // first backoff sleep
  unsigned max_delay_us = 5000; // backoff cap
};

/// Sleep the exponential backoff for the `fails`-th consecutive failed
/// attempt under `policy`. Shared by the blocking pread/pwrite loop and the
/// io_uring completion handler so both backends back off identically.
void retry_backoff_sleep(const RetryPolicy& policy, unsigned fails);

/// The storage rows of the env table (common/env.hpp) over the given
/// values: MLVC_IO_BACKEND, MLVC_URING_DEPTH, MLVC_FAULT_RETRIES and
/// MLVC_FAULT_RETRY_BASE_US. Storage, core::RuntimeContext and the engine
/// options all resolve them here, so every entry point agrees.
void apply_io_env(IoBackendKind& backend, unsigned& uring_depth,
                  unsigned& retry_attempts, unsigned& retry_base_us);

/// Process-wide io-backend probe resolution, shared by every Storage (and
/// surfaced through core::RuntimeContext, which selects the backend once so
/// per-query engines never call set_io_backend at all). Resolves exactly
/// once per process: before this, every Storage::set_io_backend call
/// re-normalized its own copy of the fallback reason, so two Storage
/// instances racing the first kUring request could each run the probe path
/// and the process-wide "why did uring fall back" answer lived on whichever
/// instance you happened to ask. (MLVC_IO_STRICT stays a per-call decision —
/// tests toggle it at runtime.)
struct IoBackendProbe {
  bool uring_available = false;
  /// Why kUring requests fall back to the thread pool ("" when available).
  std::string fallback_reason;
};
const IoBackendProbe& shared_io_backend_probe();

/// One scattered read request for Blob::read_multi: fill `buf` with the
/// `len` bytes at `offset`.
struct ReadOp {
  std::uint64_t offset = 0;
  void* buf = nullptr;
  std::size_t len = 0;
};

/// On-disk stripe layout descriptor, persisted as `stripe.manifest` in the
/// storage directory when a store is created with more than one device. A
/// directory without a manifest is a v1 single-file store and always opens
/// (devices = 1) regardless of the requested config; a directory with a
/// manifest opens with the manifest's layout so a striped store is
/// self-describing across processes (crash recovery re-opens the stripe
/// set). The manifest is versioned: an unrecognized version is a typed
/// Error, not a misread layout.
struct StripeManifest {
  unsigned version = 1;
  unsigned num_devices = 1;
  std::size_t stripe_unit_bytes = 0;
};

/// Logical→physical stripe mapping (RAID-0): stripe s of a blob lives on
/// device s % N at device-file offset (s / N) * unit. Invokes
/// fn(device, dev_offset, transfer_offset, seg_len) for each maximal
/// single-device segment of [offset, offset + len). With num_devices == 1
/// the whole range is one segment at its original offset, so the v1 layout
/// is the identity mapping.
template <typename Fn>
void for_each_stripe_segment(std::uint64_t offset, std::size_t len,
                             std::size_t unit, unsigned num_devices,
                             Fn&& fn) {
  if (len == 0) return;
  if (num_devices <= 1) {
    fn(0u, offset, std::size_t{0}, len);
    return;
  }
  std::size_t done = 0;
  while (done < len) {
    const std::uint64_t off = offset + done;
    const std::uint64_t stripe = off / unit;
    const std::size_t within = static_cast<std::size_t>(off % unit);
    const std::size_t seg =
        std::min<std::uint64_t>(len - done, unit - within);
    const unsigned dev = static_cast<unsigned>(stripe % num_devices);
    const std::uint64_t dev_off = (stripe / num_devices) * unit + within;
    fn(dev, dev_off, done, seg);
    done += seg;
  }
}

/// A single append-/overwrite-able file with page accounting. Thread-safe:
/// pread/pwrite are positional, and the logical size is guarded.
class Blob {
 public:
  ~Blob();
  Blob(const Blob&) = delete;
  Blob& operator=(const Blob&) = delete;

  std::uint64_t id() const noexcept { return id_; }
  const std::string& name() const noexcept { return name_; }
  IoCategory category() const noexcept { return category_; }

  /// Logical size in bytes.
  std::uint64_t size() const;
  std::uint64_t size_pages() const;

  /// Read [offset, offset+len); throws IoError/Error on short read.
  void read(std::uint64_t offset, void* buf, std::size_t len) const;

  /// Vectored read: satisfy every op in one pass. Ops whose file ranges are
  /// back-to-back are issued as a single preadv-style scattered call, so a
  /// coalesced page window costs one kernel round trip. Page accounting is
  /// identical to calling read() once per op.
  void read_multi(std::span<const ReadOp> ops) const;

  /// Write [offset, offset+len), extending the blob if needed.
  void write(std::uint64_t offset, const void* buf, std::size_t len);

  /// Append at the current end; returns the offset written at.
  std::uint64_t append(const void* buf, std::size_t len);

  /// Reserve [size, size+len) at the logical end without writing, returning
  /// the reserved offset. Lets a producer assign stable offsets (e.g. log
  /// page numbers) synchronously while the data itself is written by a
  /// background I/O thread. Reading a reserved-but-unwritten range is a
  /// caller bug (short read).
  std::uint64_t reserve(std::size_t len);

  void truncate(std::uint64_t new_size);

  /// Flush written data to the device (fdatasync). A sync failure is never
  /// retried — once the kernel reports it, dirty-page state is unknown — it
  /// escalates immediately as IoError (and counts as a giveup).
  void sync();

  // ---- typed helpers ------------------------------------------------------
  template <typename T>
  void read_span(std::uint64_t elem_offset, std::span<T> out) const {
    read(elem_offset * sizeof(T), out.data(), out.size_bytes());
  }
  template <typename T>
  std::vector<T> read_vector(std::uint64_t elem_offset,
                             std::size_t count) const {
    std::vector<T> out(count);
    read_span<T>(elem_offset, out);
    return out;
  }
  template <typename T>
  std::uint64_t append_span(std::span<const T> data) {
    return append(data.data(), data.size_bytes()) / sizeof(T);
  }
  template <typename T>
  std::uint64_t element_count() const {
    return size() / sizeof(T);
  }

 private:
  friend class Storage;
  Blob(Storage* storage, std::uint64_t id, std::string name,
       IoCategory category, std::vector<std::filesystem::path> paths);

  void account(std::uint64_t offset, std::size_t len, bool is_write) const;

  /// Partial-progress transfer loop shared by read/read_multi/write/append:
  /// consults the storage's fault injector before each attempt, applies the
  /// retry policy to transient errnos, and throws IoError on giveup. `raw`
  /// issues one syscall attempt of at most `n` bytes at device-file
  /// position `pos` (with `done` bytes of the segment already complete) and
  /// returns the syscall result. Runs against one device; a give-up names
  /// that device's backing file in the typed IoError.
  template <typename Raw>
  void run_io(FaultSite site, const char* op, unsigned dev,
              std::uint64_t offset, std::size_t len, Raw&& raw) const;

  /// Issue a prepared op batch through `dev`'s io_uring ring with this
  /// blob's fault/retry/stats context. Each device has its own ring, so
  /// batches to different devices never serialize behind one submission
  /// queue.
  void run_uring(UringIo& io, unsigned dev, std::span<UringOp> ops) const;

  /// Issue already-accounted read ops, expressed in *device-local* offsets
  /// against device `dev`, through whichever backend is selected —
  /// coalescing file-contiguous runs identically on both.
  void dispatch_reads_device(unsigned dev, std::span<const ReadOp> ops) const;

  /// Split logical-offset read ops per device (stripe mapping) and issue
  /// each device's share. The single-device path forwards ops untouched.
  void dispatch_reads(std::span<const ReadOp> ops) const;

  /// Striped write: split [offset, offset+len) per device and issue each
  /// device's segments through the selected backend.
  void dispatch_write(std::uint64_t offset, const void* buf,
                      std::size_t len);

  Storage* storage_;
  std::uint64_t id_;
  std::string name_;
  IoCategory category_;
  /// One backing file per device (size 1 = v1 single-file layout).
  std::vector<std::filesystem::path> paths_;
  std::vector<int> fds_;
  mutable std::mutex size_mutex_;
  std::uint64_t size_ = 0;
};

/// Directory of blobs plus the shared device model and I/O counters.
class Storage {
 public:
  /// Creates (or reuses) `dir` as the backing directory.
  Storage(std::filesystem::path dir, DeviceConfig config = {});
  ~Storage();

  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;

  /// Create a blob (truncating any previous content under that name).
  Blob& create_blob(const std::string& name, IoCategory category);

  /// Open an existing blob. Falls back to an on-disk file left by a previous
  /// process (crash recovery) under IoCategory::kMisc; throws InvalidArgument
  /// when neither a handle nor a file exists.
  Blob& open_blob(const std::string& name);

  /// Atomically rename blob `from` to `to` (rename(2)), replacing any
  /// existing blob under `to`. This is the publish step of write-temp +
  /// sync + rename: a reader never observes a half-written `to`.
  void publish_blob(const std::string& from, const std::string& to);

  bool has_blob(const std::string& name) const;

  /// Delete the blob's backing file and handle.
  void remove_blob(const std::string& name);

  /// remove_blob() every open blob named "<prefix>/...".
  void remove_blobs_under(const std::string& prefix);

  std::size_t page_size() const noexcept { return device_.config().page_size; }
  /// Resolved stripe layout (manifest > MLVC_DEVICES/MLVC_STRIPE_UNIT env >
  /// DeviceConfig). 1 device = the original single-file layout.
  unsigned num_devices() const noexcept {
    return device_.config().num_devices;
  }
  std::size_t stripe_unit() const noexcept {
    return device_.config().stripe_unit_bytes;
  }
  DeviceModel& device() noexcept { return device_; }
  const DeviceModel& device() const noexcept { return device_; }
  IoStats& stats() noexcept { return stats_; }
  const IoStats& stats() const noexcept { return stats_; }
  const std::filesystem::path& directory() const noexcept { return dir_; }

  /// Fault injection (null = no faults). The constructor installs one from
  /// MLVC_FAULT_* env vars when present, so a whole test suite can run under
  /// a seeded fault schedule with no code changes.
  void set_fault_injector(std::shared_ptr<FaultInjector> injector);
  std::shared_ptr<FaultInjector> fault_injector() const;

  void set_retry_policy(const RetryPolicy& policy);
  RetryPolicy retry_policy() const;

  /// Select the hot-path I/O substrate (see io_backend.hpp). Requesting
  /// kUring probes the kernel once per process and transparently falls back
  /// to the thread-pool path when io_uring is refused, recording the reason
  /// (io_backend_fallback()) — unless MLVC_IO_STRICT=1, which turns the
  /// fallback into an Error so CI can hard-fail when a uring-capable runner
  /// regresses to the fallback. `queue_depth` > 0 resizes the ring (default
  /// 64). Returns the backend actually selected. The constructor selects
  /// the backend apply_io_env() resolves, so every entry point switches
  /// with no code changes.
  IoBackendKind set_io_backend(IoBackendKind requested,
                               unsigned queue_depth = 0);
  IoBackendKind io_backend() const;
  /// Why the last kUring request fell back to kThreadPool ("" = it didn't).
  std::string io_backend_fallback() const;

 private:
  friend class Blob;

  /// Resolve the effective stripe layout for `dir` before the DeviceModel
  /// is built: applies MLVC_DEVICES / MLVC_STRIPE_UNIT, then defers to an
  /// existing stripe.manifest (the store's layout wins), then falls back to
  /// single-file for a manifest-less directory that already holds blobs
  /// (v1 compatibility). Creates the directory, the per-device
  /// subdirectories and — for a freshly striped store — the manifest.
  static DeviceConfig resolve_stripe_layout(const std::filesystem::path& dir,
                                            DeviceConfig config);

  /// Per-device ring for Blob I/O dispatch (null = thread-pool path).
  /// Shared ownership so a concurrent set_io_backend can't free a ring
  /// mid-batch.
  std::shared_ptr<UringIo> uring_backend(unsigned dev) const;

  /// Backing-file paths for a blob name, one per device. Device k of a
  /// striped store lives under dir/dev<k>/; a single-device store keeps the
  /// original flat dir/<name> layout.
  std::vector<std::filesystem::path> blob_paths(const std::string& name) const;

  std::filesystem::path dir_;
  DeviceModel device_;
  IoStats stats_;
  mutable std::mutex blobs_mutex_;
  std::map<std::string, std::unique_ptr<Blob>> blobs_;
  std::uint64_t next_blob_id_ = 1;
  mutable std::mutex fault_mutex_;
  std::shared_ptr<FaultInjector> fault_;
  RetryPolicy retry_policy_;
  IoBackendKind io_backend_kind_ = IoBackendKind::kThreadPool;
  /// One ring per device under kUring (all null on the thread pool).
  std::vector<std::shared_ptr<UringIo>> urings_;
  unsigned uring_depth_ = 64;
  std::string uring_fallback_;
};

/// Read `dir`'s stripe manifest. Returns false when none exists (v1
/// single-file store); throws Error on an unrecognized manifest version or
/// a malformed file.
bool read_stripe_manifest(const std::filesystem::path& dir,
                          StripeManifest* out);
/// Write (create or overwrite) `dir`'s stripe manifest.
void write_stripe_manifest(const std::filesystem::path& dir,
                           const StripeManifest& manifest);

/// RAII temporary directory (unique under the system temp dir) for tests,
/// benches, and examples.
class TempDir {
 public:
  explicit TempDir(const std::string& prefix = "mlvc");
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::filesystem::path& path() const noexcept { return path_; }

 private:
  std::filesystem::path path_;
};

}  // namespace mlvc::ssd
