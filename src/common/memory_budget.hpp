// Host memory budget accounting (§V.A and Figure 4 of the paper).
//
// The paper partitions a fixed host budget (default 1 GB) into:
//   X% (75) — sort-and-group working memory,
//   A% ( 5) — multi-log write buffers (top pages),
//   B% ( 5) — edge-log buffers,
//   remainder — graph loader buffers (row pointers, adjacency pages) and
//               engine bookkeeping.
// We reproduce that split, scaled down so synthetic graphs keep the paper's
// memory:graph ratio (see DESIGN.md §2).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "common/types.hpp"

namespace mlvc {

struct BudgetSplit {
  double sort_fraction = 0.75;      // X% in Figure 4
  double log_buffer_fraction = 0.05;  // A%
  double edge_log_fraction = 0.05;    // B%
  // Remainder goes to the graph loader + misc.
};

class BudgetArbiter;

/// RAII grant from a BudgetArbiter. Releasing (destruction or reset()) wakes
/// queries parked in BudgetArbiter::acquire.
class BudgetLease {
 public:
  BudgetLease() = default;
  ~BudgetLease() { reset(); }

  BudgetLease(BudgetLease&& other) noexcept
      : arbiter_(other.arbiter_), bytes_(other.bytes_) {
    other.arbiter_ = nullptr;
    other.bytes_ = 0;
  }
  BudgetLease& operator=(BudgetLease&& other) noexcept {
    if (this != &other) {
      reset();
      arbiter_ = other.arbiter_;
      bytes_ = other.bytes_;
      other.arbiter_ = nullptr;
      other.bytes_ = 0;
    }
    return *this;
  }
  BudgetLease(const BudgetLease&) = delete;
  BudgetLease& operator=(const BudgetLease&) = delete;

  void reset() noexcept;
  std::size_t bytes() const noexcept { return bytes_; }
  bool active() const noexcept { return arbiter_ != nullptr; }

 private:
  friend class BudgetArbiter;
  BudgetLease(BudgetArbiter* arbiter, std::size_t bytes)
      : arbiter_(arbiter), bytes_(bytes) {}

  BudgetArbiter* arbiter_ = nullptr;
  std::size_t bytes_ = 0;
};

/// Process-level memory arbitration for multi-tenant serving. The arbiter
/// *blocks*: a query whose budget does not currently fit parks in acquire()
/// until enough leases are released. This
/// is the admission-control half of the Figure 4 budget when many queries
/// share one host: each engine leases its whole per-query budget up front,
/// so the sum of running queries' budgets never exceeds the pool.
///
/// A request larger than the pool can never be satisfied and throws
/// BudgetError instead of deadlocking.
class BudgetArbiter {
 public:
  BudgetArbiter(std::string name, std::size_t total_bytes)
      : name_(std::move(name)), total_(total_bytes) {}

  std::size_t total() const noexcept { return total_; }
  std::size_t used() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return used_;
  }
  std::size_t available() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return total_ - used_;
  }
  /// Queries currently parked in acquire().
  std::size_t waiters() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return waiters_;
  }

  /// Block until `bytes` fit, then lease them.
  BudgetLease acquire(std::size_t bytes) {
    check_satisfiable(bytes);
    std::unique_lock<std::mutex> lock(mutex_);
    ++waiters_;
    cv_.wait(lock, [&] { return used_ + bytes <= total_; });
    --waiters_;
    used_ += bytes;
    return BudgetLease(this, bytes);
  }

  /// Lease `bytes` if they fit right now; std::nullopt otherwise.
  std::optional<BudgetLease> try_acquire(std::size_t bytes) {
    check_satisfiable(bytes);
    std::lock_guard<std::mutex> lock(mutex_);
    if (used_ + bytes > total_) return std::nullopt;
    used_ += bytes;
    return BudgetLease(this, bytes);
  }

 private:
  friend class BudgetLease;

  void check_satisfiable(std::size_t bytes) const {
    if (bytes > total_) {
      throw BudgetError("arbiter '" + name_ + "': request of " +
                        std::to_string(bytes) + " bytes exceeds the " +
                        std::to_string(total_) + "-byte pool");
    }
  }

  void release(std::size_t bytes) noexcept {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      used_ -= bytes;
    }
    cv_.notify_all();
  }

  std::string name_;
  std::size_t total_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t used_ = 0;
  std::size_t waiters_ = 0;
};

inline void BudgetLease::reset() noexcept {
  if (arbiter_ != nullptr) {
    arbiter_->release(bytes_);
    arbiter_ = nullptr;
    bytes_ = 0;
  }
}

}  // namespace mlvc
