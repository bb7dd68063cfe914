#include "ssd/storage.hpp"

#include <fcntl.h>
#include <limits.h>
#include <stdio.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "common/env.hpp"
#include "ssd/fault_injector.hpp"
#include "ssd/uring_io.hpp"

namespace mlvc::ssd {

void retry_backoff_sleep(const RetryPolicy& policy, unsigned fails) {
  const unsigned shift = std::min(fails > 0 ? fails - 1 : 0u, 20u);
  std::uint64_t delay = static_cast<std::uint64_t>(policy.base_delay_us)
                        << shift;
  delay = std::min<std::uint64_t>(delay, policy.max_delay_us);
  if (delay > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(delay));
  }
}

namespace {
// Walk maximal runs of file-contiguous ops: fn(first, past_last, run_bytes).
// Shared by the preadv path and the io_uring path so both backends coalesce
// identically (zero-length ops skipped, runs capped at IOV_MAX spans).
template <typename Fn>
void for_each_contiguous_run(std::span<const ReadOp> ops, Fn&& fn) {
  std::size_t i = 0;
  while (i < ops.size()) {
    if (ops[i].len == 0) {
      ++i;
      continue;
    }
    std::size_t j = i + 1;
    std::size_t run_len = ops[i].len;
    while (j < ops.size() && ops[j].len > 0 && (j - i) < IOV_MAX &&
           ops[j].offset == ops[j - 1].offset + ops[j - 1].len) {
      run_len += ops[j].len;
      ++j;
    }
    fn(i, j, run_len);
    i = j;
  }
}
}  // namespace

// ---------------------------------------------------------------------------
// Blob
// ---------------------------------------------------------------------------

Blob::Blob(Storage* storage, std::uint64_t id, std::string name,
           IoCategory category, std::vector<std::filesystem::path> paths)
    : storage_(storage),
      id_(id),
      name_(std::move(name)),
      category_(category),
      paths_(std::move(paths)) {
  fds_.reserve(paths_.size());
  for (const auto& p : paths_) {
    const int fd = ::open(p.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd < 0) {
      const int err = errno;
      for (int open_fd : fds_) ::close(open_fd);
      throw IoError("open", p.string(), err);
    }
    fds_.push_back(fd);
  }
  // Reconstruct the logical size from the device files via the inverse
  // stripe map: the device holding the blob's last stripe determines the
  // logical end (crash recovery re-opens a striped checkpoint this way).
  const unsigned ndev = static_cast<unsigned>(fds_.size());
  const std::size_t unit = storage_->stripe_unit();
  for (unsigned d = 0; d < ndev; ++d) {
    const off_t end = ::lseek(fds_[d], 0, SEEK_END);
    if (end < 0) throw IoError("lseek", paths_[d].string(), errno);
    if (end == 0) continue;
    const auto e = static_cast<std::uint64_t>(end);
    if (ndev == 1) {
      size_ = std::max(size_, e);
      continue;
    }
    const std::uint64_t last = e - 1;  // last device-local byte
    const std::uint64_t global_stripe = (last / unit) * ndev + d;
    size_ = std::max(size_, global_stripe * unit + last % unit + 1);
  }
}

Blob::~Blob() {
  for (int fd : fds_) {
    if (fd >= 0) ::close(fd);
  }
}

std::uint64_t Blob::size() const {
  std::lock_guard<std::mutex> lock(size_mutex_);
  return size_;
}

std::uint64_t Blob::size_pages() const {
  const std::size_t ps = storage_->page_size();
  return (size() + ps - 1) / ps;
}

void Blob::account(std::uint64_t offset, std::size_t len,
                   bool is_write) const {
  if (len == 0) return;
  const std::size_t ps = storage_->page_size();
  const std::uint64_t first = offset / ps;
  const std::uint64_t last = (offset + len - 1) / ps;
  const double seq = storage_->device_.config().sequential_factor;
  const unsigned ndev = storage_->num_devices();
  const std::uint64_t pages_per_unit = storage_->stripe_unit() / ps;
  // The stripe unit is a whole number of pages, so every page lives on
  // exactly one device; charge it to that device's channel group. Each
  // device's first page of the transfer pays the full (command +
  // seek-equivalent) cost, its subsequent pages stream at the discounted
  // rate — striping splits one logical transfer into one sequential
  // transfer per device.
  std::uint64_t first_paid = 0;  // bitmask; num_devices <= 64 by validate()
  for (std::uint64_t p = first; p <= last; ++p) {
    const unsigned dev =
        ndev == 1 ? 0u
                  : static_cast<unsigned>((p / pages_per_unit) % ndev);
    const bool dev_first = (first_paid >> dev & 1) == 0;
    first_paid |= std::uint64_t{1} << dev;
    storage_->device_.record(id_, p, dev, is_write, dev_first ? 1.0 : seq);
  }
  const std::uint64_t pages = last - first + 1;
  if (is_write) {
    storage_->stats_.record_write(category_, pages, len);
  } else {
    storage_->stats_.record_read(category_, pages, len);
  }
}

template <typename Raw>
void Blob::run_io(FaultSite site, const char* op, unsigned dev,
                  std::uint64_t offset, std::size_t len, Raw&& raw) const {
  const std::shared_ptr<FaultInjector> fault = storage_->fault_injector();
  const RetryPolicy policy = storage_->retry_policy();
  unsigned fails = 0;
  std::size_t done = 0;
  while (done < len) {
    std::size_t want = len - done;
    if (fault) {
      const FaultDecision d = fault->decide(site, want);
      if (d.kind == FaultDecision::Kind::kCrash) {
        if (d.torn && site == FaultSite::kWrite && want > 1) {
          // Leave the torn trailing page a real power loss would.
          (void)raw(offset + done, done, want / 2);
        }
        std::_Exit(kCrashExitCode);
      }
      if (d.kind == FaultDecision::Kind::kTransient) {
        if (d.err == EINTR) {
          storage_->stats_.record_io_retry();
          continue;
        }
        if (++fails >= policy.max_attempts) {
          storage_->stats_.record_io_giveup();
          throw IoError(op, paths_[dev].string(), d.err);
        }
        storage_->stats_.record_io_retry();
        retry_backoff_sleep(policy, fails);
        continue;
      }
      if (d.kind == FaultDecision::Kind::kShortIo) {
        want = std::min(want, d.max_len);
      }
    }
    const ssize_t n = raw(offset + done, done, want);
    if (n < 0) {
      const int err = errno;
      if (err == EINTR) {
        storage_->stats_.record_io_retry();
        continue;
      }
      if ((err == EAGAIN || err == EIO) && ++fails < policy.max_attempts) {
        storage_->stats_.record_io_retry();
        retry_backoff_sleep(policy, fails);
        continue;
      }
      storage_->stats_.record_io_giveup();
      throw IoError(op, paths_[dev].string(), err);
    }
    MLVC_CHECK_MSG(n != 0, "unexpected EOF on blob '" << name_ << "'");
    done += static_cast<std::size_t>(n);
    fails = 0;  // forward progress resets the retry budget
  }
}

void Blob::read(std::uint64_t offset, void* buf, std::size_t len) const {
  if (len == 0) return;
  {
    std::lock_guard<std::mutex> lock(size_mutex_);
    MLVC_CHECK_MSG(offset + len <= size_,
                   "read past end of blob '" << name_ << "': offset=" << offset
                                             << " len=" << len
                                             << " size=" << size_);
  }
  account(offset, len, /*is_write=*/false);
  ReadOp op;
  op.offset = offset;
  op.buf = buf;
  op.len = len;
  dispatch_reads(std::span<const ReadOp>(&op, 1));
}

void Blob::run_uring(UringIo& io, unsigned dev,
                     std::span<UringOp> ops) const {
  const std::shared_ptr<FaultInjector> fault = storage_->fault_injector();
  UringBatchContext ctx;
  ctx.fd = fds_[dev];
  ctx.fault = fault.get();
  ctx.retry = storage_->retry_policy();
  ctx.stats = &storage_->stats_;
  ctx.path = paths_[dev].string();
  io.run_batch(ctx, ops);
}

void Blob::read_multi(std::span<const ReadOp> ops) const {
  if (ops.empty()) return;
  {
    std::lock_guard<std::mutex> lock(size_mutex_);
    for (const ReadOp& op : ops) {
      MLVC_CHECK_MSG(op.offset + op.len <= size_,
                     "read past end of blob '" << name_
                                               << "': offset=" << op.offset
                                               << " len=" << op.len
                                               << " size=" << size_);
    }
  }
  // Accounting is per op — the same pages (and the same sequential discount
  // structure) as one read() call per op, so read_multi never changes what a
  // workload is charged.
  for (const ReadOp& op : ops) account(op.offset, op.len, /*is_write=*/false);
  dispatch_reads(ops);
}

void Blob::dispatch_reads(std::span<const ReadOp> ops) const {
  const unsigned ndev = static_cast<unsigned>(fds_.size());
  if (ndev == 1) {
    // Identity mapping: logical offsets are device offsets, the batch is
    // exactly what the caller handed us.
    dispatch_reads_device(0, ops);
    return;
  }
  // Split every op into per-device segments with device-local offsets.
  // Within one device, consecutive stripes are contiguous in its file, so
  // the per-device coalescer still merges large logical extents into few
  // SQEs/preadv calls.
  const std::size_t unit = storage_->stripe_unit();
  std::vector<std::vector<ReadOp>> per_dev(ndev);
  for (const ReadOp& op : ops) {
    for_each_stripe_segment(
        op.offset, op.len, unit, ndev,
        [&](unsigned dev, std::uint64_t dev_off, std::size_t buf_off,
            std::size_t seg_len) {
          ReadOp seg;
          seg.offset = dev_off;
          seg.buf = static_cast<char*>(op.buf) + buf_off;
          seg.len = seg_len;
          per_dev[dev].push_back(seg);
        });
  }
  for (unsigned d = 0; d < ndev; ++d) {
    if (!per_dev[d].empty()) dispatch_reads_device(d, per_dev[d]);
  }
}

void Blob::dispatch_reads_device(unsigned dev,
                                 std::span<const ReadOp> ops) const {
  if (auto uring = storage_->uring_backend(dev)) {
    // One READV SQE per contiguous run, the whole scattered batch in flight
    // together: queue depth comes from the batch, not from thread count.
    // Each device has its own ring, so batches to different devices never
    // serialize behind one submission queue.
    std::vector<struct iovec> iov;
    iov.reserve(ops.size());  // no reallocation: UringOps point into it
    std::vector<UringOp> uops;
    for_each_contiguous_run(
        ops, [&](std::size_t i, std::size_t j, std::size_t run_len) {
          UringOp u;
          u.offset = ops[i].offset;
          u.len = run_len;
          if (j - i == 1) {
            u.buf = ops[i].buf;
          } else {
            u.iov = iov.data() + iov.size();
            u.iov_count = static_cast<unsigned>(j - i);
            for (std::size_t k = i; k < j; ++k) {
              iov.push_back({ops[k].buf, ops[k].len});
            }
            storage_->stats_.record_sqe_coalesced(j - i - 1);
          }
          uops.push_back(u);
        });
    run_uring(*uring, dev, uops);
    return;
  }

  // Issue maximal runs of file-contiguous ops as one scattered read.
  std::vector<struct iovec> iov;
  std::vector<struct iovec> clip;
  for_each_contiguous_run(ops, [&](std::size_t i, std::size_t j,
                                   std::size_t run_len) {
    iov.clear();
    for (std::size_t k = i; k < j; ++k) {
      iov.push_back({ops[k].buf, ops[k].len});
    }
    std::size_t vec_begin = 0;
    run_io(FaultSite::kRead, "preadv", dev, ops[i].offset, run_len,
           [&](std::uint64_t pos, std::size_t, std::size_t want) -> ssize_t {
             // Clip the remaining iovecs to at most `want` bytes, so a
             // short-I/O fault decision bounds this attempt too.
             clip.clear();
             std::size_t acc = 0;
             for (std::size_t k = vec_begin; k < iov.size() && acc < want;
                  ++k) {
               struct iovec v = iov[k];
               if (acc + v.iov_len > want) v.iov_len = want - acc;
               acc += v.iov_len;
               clip.push_back(v);
             }
             const ssize_t n = ::preadv(fds_[dev], clip.data(),
                                        static_cast<int>(clip.size()),
                                        static_cast<off_t>(pos));
             if (n > 0) {
               // Retire fully-read iovecs; trim a partially-read one.
               std::size_t adv = static_cast<std::size_t>(n);
               while (adv > 0 && vec_begin < iov.size()) {
                 struct iovec& v = iov[vec_begin];
                 if (adv >= v.iov_len) {
                   adv -= v.iov_len;
                   ++vec_begin;
                 } else {
                   v.iov_base = static_cast<char*>(v.iov_base) + adv;
                   v.iov_len -= adv;
                   adv = 0;
                 }
               }
             }
             return n;
           });
  });
}

void Blob::dispatch_write(std::uint64_t offset, const void* buf,
                          std::size_t len) {
  const unsigned ndev = static_cast<unsigned>(fds_.size());
  const std::size_t unit = storage_->stripe_unit();
  const char* src = static_cast<const char*>(buf);
  // Collect per-device segments first so the uring path can put a device's
  // whole stripe train in flight as one batch.
  std::vector<std::vector<UringOp>> per_dev(ndev);
  for_each_stripe_segment(
      offset, len, unit, ndev,
      [&](unsigned dev, std::uint64_t dev_off, std::size_t buf_off,
          std::size_t seg_len) {
        UringOp op;
        op.offset = dev_off;
        op.len = seg_len;
        // WRITE SQEs never modify the buffer
        op.buf = const_cast<char*>(src + buf_off);
        op.is_write = true;
        per_dev[dev].push_back(op);
      });
  for (unsigned d = 0; d < ndev; ++d) {
    if (per_dev[d].empty()) continue;
    if (auto uring = storage_->uring_backend(d)) {
      run_uring(*uring, d, per_dev[d]);
      continue;
    }
    for (const UringOp& op : per_dev[d]) {
      const char* seg = static_cast<const char*>(op.buf);
      run_io(FaultSite::kWrite, "pwrite", d, op.offset, op.len,
             [&](std::uint64_t pos, std::size_t done,
                 std::size_t n) -> ssize_t {
               return ::pwrite(fds_[d], seg + done, n,
                               static_cast<off_t>(pos));
             });
    }
  }
}

void Blob::write(std::uint64_t offset, const void* buf, std::size_t len) {
  if (len == 0) return;
  account(offset, len, /*is_write=*/true);
  dispatch_write(offset, buf, len);
  std::lock_guard<std::mutex> lock(size_mutex_);
  size_ = std::max(size_, offset + len);
}

std::uint64_t Blob::append(const void* buf, std::size_t len) {
  std::uint64_t offset;
  {
    // Reserve the range under the lock so concurrent appends don't overlap.
    std::lock_guard<std::mutex> lock(size_mutex_);
    offset = size_;
    size_ += len;
  }
  if (len == 0) return offset;
  account(offset, len, /*is_write=*/true);
  dispatch_write(offset, buf, len);
  return offset;
}

std::uint64_t Blob::reserve(std::size_t len) {
  std::lock_guard<std::mutex> lock(size_mutex_);
  const std::uint64_t offset = size_;
  size_ += len;
  return offset;
}

void Blob::truncate(std::uint64_t new_size) {
  // Device d keeps `unit` bytes for every full stripe it owns below the cut,
  // plus the partial tail if the cut lands inside one of its stripes.
  const unsigned ndev = static_cast<unsigned>(fds_.size());
  const std::size_t unit = storage_->stripe_unit();
  for (unsigned d = 0; d < ndev; ++d) {
    std::uint64_t dev_size = new_size;
    if (ndev > 1) {
      const std::uint64_t full = new_size / unit;  // whole stripes below cut
      const std::uint64_t rem = new_size % unit;
      const std::uint64_t base = (full / ndev) * unit;
      const unsigned r = static_cast<unsigned>(full % ndev);
      dev_size = base + (d < r ? unit : (d == r ? rem : 0));
    }
    if (::ftruncate(fds_[d], static_cast<off_t>(dev_size)) != 0) {
      throw IoError("ftruncate", paths_[d].string(), errno);
    }
  }
  std::lock_guard<std::mutex> lock(size_mutex_);
  size_ = new_size;
}

void Blob::sync() {
  if (const auto fault = storage_->fault_injector()) {
    const FaultDecision d = fault->decide(FaultSite::kSync, 0);
    if (d.kind == FaultDecision::Kind::kTransient) {
      storage_->stats_.record_io_giveup();
      throw IoError("fdatasync", paths_[0].string(), d.err);
    }
    if (d.kind == FaultDecision::Kind::kCrash) {
      std::_Exit(kCrashExitCode);
    }
  }
  for (std::size_t d = 0; d < fds_.size(); ++d) {
    while (::fdatasync(fds_[d]) != 0) {
      const int err = errno;
      if (err == EINTR) {
        storage_->stats_.record_io_retry();
        continue;
      }
      // Never retry a failed sync: the kernel may have dropped the dirty
      // pages, so a later "successful" fdatasync would be a lie.
      storage_->stats_.record_io_giveup();
      throw IoError("fdatasync", paths_[d].string(), err);
    }
  }
}

// ---------------------------------------------------------------------------
// Storage
// ---------------------------------------------------------------------------

namespace {
// Blob names may contain '/' for namespacing (e.g. "csr/interval_12/colidx");
// map to a flat, filesystem-safe filename.
std::string sanitize(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    out.push_back((std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                   c == '-' || c == '.')
                      ? c
                      : '_');
  }
  return out;
}

constexpr const char* kStripeManifestName = "stripe.manifest";
constexpr const char* kStripeMagic = "mlvc-stripe";
constexpr unsigned kStripeManifestVersion = 1;
}  // namespace

bool read_stripe_manifest(const std::filesystem::path& dir,
                          StripeManifest* out) {
  std::ifstream in(dir / kStripeManifestName);
  if (!in) return false;
  std::string magic;
  StripeManifest m;
  in >> magic >> m.version;
  if (!in || magic != kStripeMagic) {
    throw Error("corrupt stripe manifest in '" + dir.string() + "'");
  }
  if (m.version > kStripeManifestVersion) {
    throw Error("stripe manifest in '" + dir.string() + "' has version " +
                std::to_string(m.version) + "; this build understands <= " +
                std::to_string(kStripeManifestVersion));
  }
  std::string key;
  while (in >> key) {
    if (key == "devices") {
      in >> m.num_devices;
    } else if (key == "stripe_unit") {
      in >> m.stripe_unit_bytes;
    } else {
      std::string skip;
      in >> skip;  // forward-compatible: unknown keys ignored
    }
  }
  if (m.num_devices < 1 || m.stripe_unit_bytes == 0) {
    throw Error("corrupt stripe manifest in '" + dir.string() + "'");
  }
  *out = m;
  return true;
}

void write_stripe_manifest(const std::filesystem::path& dir,
                           const StripeManifest& m) {
  const std::filesystem::path path = dir / kStripeManifestName;
  std::ofstream out(path, std::ios::trunc);
  out << kStripeMagic << ' ' << m.version << '\n'
      << "devices " << m.num_devices << '\n'
      << "stripe_unit " << m.stripe_unit_bytes << '\n';
  out.flush();
  if (!out) throw IoError("write", path.string(), EIO);
}

DeviceConfig Storage::resolve_stripe_layout(const std::filesystem::path& dir,
                                            DeviceConfig config) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) throw IoError("mkdir", dir.string(), ec.value());
  if (auto n = env::get_unsigned(env::kDevices)) config.num_devices = *n;
  if (auto u = env::get_bytes(env::kStripeUnit)) {
    config.stripe_unit_bytes = static_cast<std::size_t>(*u);
  }
  // An existing store's manifest is authoritative: the stripe layout is
  // baked into the files, so reopening under a different MLVC_DEVICES must
  // not scramble them.
  StripeManifest manifest;
  if (read_stripe_manifest(dir, &manifest)) {
    config.num_devices = manifest.num_devices;
    config.stripe_unit_bytes = manifest.stripe_unit_bytes;
    config.validate();
    return config;
  }
  // Manifest-less but non-empty: a v1 store from before striping existed.
  // Force single-device so its files keep reading byte-for-byte.
  if (!std::filesystem::is_empty(dir, ec) && !ec) {
    config.num_devices = 1;
    config.validate();
    return config;
  }
  config.validate();
  if (config.num_devices > 1) {
    for (unsigned d = 0; d < config.num_devices; ++d) {
      std::filesystem::create_directories(dir / ("dev" + std::to_string(d)),
                                          ec);
      if (ec) throw IoError("mkdir", dir.string(), ec.value());
    }
    manifest.version = kStripeManifestVersion;
    manifest.num_devices = config.num_devices;
    manifest.stripe_unit_bytes = config.stripe_unit_bytes;
    write_stripe_manifest(dir, manifest);
  }
  return config;
}

std::vector<std::filesystem::path> Storage::blob_paths(
    const std::string& name) const {
  const unsigned ndev = device_.config().num_devices;
  std::vector<std::filesystem::path> paths;
  paths.reserve(ndev);
  if (ndev == 1) {
    paths.push_back(dir_ / sanitize(name));
  } else {
    for (unsigned d = 0; d < ndev; ++d) {
      paths.push_back(dir_ / ("dev" + std::to_string(d)) / sanitize(name));
    }
  }
  return paths;
}

Storage::Storage(std::filesystem::path dir, DeviceConfig config)
    : dir_(std::move(dir)), device_(resolve_stripe_layout(dir_, config)) {
  fault_ = FaultInjector::from_env();
  IoBackendKind backend = IoBackendKind::kThreadPool;
  apply_io_env(backend, uring_depth_, retry_policy_.max_attempts,
               retry_policy_.base_delay_us);
  set_io_backend(backend);
}

void apply_io_env(IoBackendKind& backend, unsigned& uring_depth,
                  unsigned& retry_attempts, unsigned& retry_base_us) {
  if (auto kind = env::get_enum<IoBackendKind>(
          env::kIoBackend, [](const char* s, IoBackendKind* out) {
            const auto k = parse_io_backend(s);
            if (k) *out = *k;
            return k.has_value();
          })) {
    backend = *kind;
  }
  if (auto d = env::get_unsigned(env::kUringDepth)) uring_depth = *d;
  if (auto n = env::get_unsigned(env::kFaultRetries)) retry_attempts = *n;
  if (auto us = env::get_unsigned(env::kFaultRetryBaseUs)) retry_base_us = *us;
}

Storage::~Storage() = default;

Blob& Storage::create_blob(const std::string& name, IoCategory category) {
  std::lock_guard<std::mutex> lock(blobs_mutex_);
  blobs_.erase(name);  // closes any previous handle
  std::vector<std::filesystem::path> paths = blob_paths(name);
  std::error_code ec;
  for (const auto& p : paths) std::filesystem::remove(p, ec);  // fresh content
  auto blob = std::unique_ptr<Blob>(
      new Blob(this, next_blob_id_++, name, category, std::move(paths)));
  Blob& ref = *blob;
  blobs_.emplace(name, std::move(blob));
  return ref;
}

Blob& Storage::open_blob(const std::string& name) {
  std::lock_guard<std::mutex> lock(blobs_mutex_);
  auto it = blobs_.find(name);
  if (it != blobs_.end()) return *it->second;
  // No live handle — fall back to files left on disk by a previous process
  // (crash recovery re-opens checkpoints this way). Any one device file is
  // evidence enough: a crash between the per-device creates may have left
  // the others missing, and the Blob ctor recreates them empty.
  std::vector<std::filesystem::path> paths = blob_paths(name);
  std::error_code ec;
  const bool any_on_disk =
      std::any_of(paths.begin(), paths.end(), [&](const auto& p) {
        return std::filesystem::is_regular_file(p, ec) && !ec;
      });
  if (!any_on_disk) {
    throw InvalidArgument("no such blob: '" + name + "'");
  }
  auto blob = std::unique_ptr<Blob>(new Blob(this, next_blob_id_++, name,
                                             IoCategory::kMisc,
                                             std::move(paths)));
  Blob& ref = *blob;
  blobs_.emplace(name, std::move(blob));
  return ref;
}

void Storage::publish_blob(const std::string& from, const std::string& to) {
  std::lock_guard<std::mutex> lock(blobs_mutex_);
  auto it = blobs_.find(from);
  if (it == blobs_.end()) {
    throw InvalidArgument("no such blob: '" + from + "'");
  }
  const std::vector<std::filesystem::path> new_paths = blob_paths(to);
  blobs_.erase(to);  // close any open handle to the files being replaced
  // Each per-device rename is atomic; the set as a whole is not. Crash
  // faults fire only on read/write/sync sites, so the fault harness never
  // interrupts a publish — see DESIGN.md §4d for the real-device caveat.
  Blob& blob = *it->second;
  for (std::size_t d = 0; d < blob.paths_.size(); ++d) {
    if (::rename(blob.paths_[d].c_str(), new_paths[d].c_str()) != 0) {
      throw IoError("rename", new_paths[d].string(), errno);
    }
  }
  auto node = blobs_.extract(it);
  node.key() = to;
  node.mapped()->name_ = to;
  node.mapped()->paths_ = new_paths;
  blobs_.insert(std::move(node));
}

bool Storage::has_blob(const std::string& name) const {
  {
    std::lock_guard<std::mutex> lock(blobs_mutex_);
    if (blobs_.count(name) != 0) return true;
  }
  // Mirror open_blob's recovery fallback: blobs left on disk by a previous
  // process count as present even before a handle exists — otherwise
  // presence probes on a reopened store (e.g. the stored-transpose
  // auto-attach) say "no" for blobs open_blob would happily serve.
  const std::vector<std::filesystem::path> paths = blob_paths(name);
  std::error_code ec;
  return std::any_of(paths.begin(), paths.end(), [&](const auto& p) {
    return std::filesystem::is_regular_file(p, ec) && !ec;
  });
}

void Storage::set_fault_injector(std::shared_ptr<FaultInjector> injector) {
  std::lock_guard<std::mutex> lock(fault_mutex_);
  fault_ = std::move(injector);
}

std::shared_ptr<FaultInjector> Storage::fault_injector() const {
  std::lock_guard<std::mutex> lock(fault_mutex_);
  return fault_;
}

void Storage::set_retry_policy(const RetryPolicy& policy) {
  std::lock_guard<std::mutex> lock(fault_mutex_);
  retry_policy_ = policy;
}

RetryPolicy Storage::retry_policy() const {
  std::lock_guard<std::mutex> lock(fault_mutex_);
  return retry_policy_;
}

const IoBackendProbe& shared_io_backend_probe() {
  // Magic-static once-per-process resolution: the first caller runs the
  // kernel probe and freezes the strictness decision; every later caller —
  // any Storage, any thread — sees the same answer.
  static const IoBackendProbe probe = [] {
    IoBackendProbe out;
    const UringIo::ProbeResult& p = UringIo::probe();
    out.uring_available = p.available;
    if (!p.available) {
      out.fallback_reason =
          p.reason.empty() ? "io_uring unavailable" : p.reason;
    }
    return out;
  }();
  return probe;
}

IoBackendKind Storage::set_io_backend(IoBackendKind requested,
                                      unsigned queue_depth) {
  // Read on every call, so a bad value fails even where no fallback happens.
  const bool strict = env::get_bool(env::kIoStrict).value_or(false);
  std::lock_guard<std::mutex> lock(fault_mutex_);
  if (queue_depth > 0) uring_depth_ = queue_depth;
  uring_fallback_.clear();
  if (requested == IoBackendKind::kUring) {
    const IoBackendProbe& p = shared_io_backend_probe();
    if (p.uring_available) {
      // One ring per device: submissions to different devices must never
      // share (and so serialize behind) one submission queue.
      const unsigned ndev = device_.config().num_devices;
      const bool reuse = urings_.size() == ndev && !urings_.empty() &&
                         urings_[0]->queue_depth() == uring_depth_;
      if (!reuse) {
        urings_.clear();
        urings_.reserve(ndev);
        for (unsigned d = 0; d < ndev; ++d) {
          urings_.push_back(std::make_shared<UringIo>(uring_depth_));
        }
      }
      io_backend_kind_ = IoBackendKind::kUring;
      return io_backend_kind_;
    }
    uring_fallback_ = p.fallback_reason;
    if (strict) {
      throw Error(
          "io_uring backend requested with MLVC_IO_STRICT set but the probe "
          "failed: " +
          uring_fallback_);
    }
  }
  urings_.clear();
  io_backend_kind_ = IoBackendKind::kThreadPool;
  return io_backend_kind_;
}

IoBackendKind Storage::io_backend() const {
  std::lock_guard<std::mutex> lock(fault_mutex_);
  return io_backend_kind_;
}

std::string Storage::io_backend_fallback() const {
  std::lock_guard<std::mutex> lock(fault_mutex_);
  return uring_fallback_;
}

std::shared_ptr<UringIo> Storage::uring_backend(unsigned dev) const {
  std::lock_guard<std::mutex> lock(fault_mutex_);
  if (dev >= urings_.size()) return nullptr;
  return urings_[dev];
}

void Storage::remove_blob(const std::string& name) {
  std::lock_guard<std::mutex> lock(blobs_mutex_);
  auto it = blobs_.find(name);
  if (it == blobs_.end()) return;
  const std::vector<std::filesystem::path> paths = it->second->paths_;
  blobs_.erase(it);
  std::error_code ec;
  for (const auto& p : paths) std::filesystem::remove(p, ec);
}

void Storage::remove_blobs_under(const std::string& prefix) {
  const std::string dir = prefix + "/";
  std::lock_guard<std::mutex> lock(blobs_mutex_);
  std::error_code ec;
  // Names sharing the prefix sort contiguously from lower_bound(dir).
  auto it = blobs_.lower_bound(dir);
  while (it != blobs_.end() && it->first.compare(0, dir.size(), dir) == 0) {
    const std::vector<std::filesystem::path> paths = it->second->paths_;
    it = blobs_.erase(it);
    for (const auto& p : paths) std::filesystem::remove(p, ec);
  }
}

// ---------------------------------------------------------------------------
// TempDir
// ---------------------------------------------------------------------------

TempDir::TempDir(const std::string& prefix) {
  static std::atomic<std::uint64_t> counter{0};
  const auto base = std::filesystem::temp_directory_path();
  for (int attempt = 0; attempt < 100; ++attempt) {
    const std::uint64_t n =
        counter.fetch_add(1) ^
        static_cast<std::uint64_t>(::getpid()) << 32;
    auto candidate =
        base / (prefix + "_" + std::to_string(n) + "_" +
                std::to_string(attempt));
    std::error_code ec;
    if (std::filesystem::create_directory(candidate, ec)) {
      path_ = std::move(candidate);
      return;
    }
  }
  throw IoError("create temp dir", base.string(), EEXIST);
}

TempDir::~TempDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);  // best effort
}

}  // namespace mlvc::ssd
