// Page utilization tracking (§IV.C / Figures 3 and 9 of the paper).
//
// For every adjacency (colidx) page the graph loader touches, records how
// many of its bytes were actually needed. A page with >0% and <10% useful
// bytes is "inefficiently used" — the read-amplification the edge-log
// optimizer attacks. The tracker keeps the previous superstep's inefficient
// set so the optimizer can predict ("pages that use less than a threshold in
// the current superstep will be predicted as inefficiently used") and so the
// Figure 9 bench can score that prediction.
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "common/error.hpp"

namespace mlvc::multilog {

/// The paper's cutoff for an "inefficiently used" page (§V.C): under 10% of
/// its bytes needed.
inline constexpr double kInefficientPageUtil = 0.10;

class PageUtilTracker {
 public:
  explicit PageUtilTracker(std::size_t page_size) : page_size_(page_size) {
    MLVC_CHECK(page_size_ > 0);
  }

  /// Record that `useful_bytes` of page (blob_id, page_no) were needed by
  /// the current superstep's loads. Thread-safe: pipelined execution issues
  /// adjacency loads from I/O threads while compute proceeds.
  void record(std::uint64_t blob_id, std::uint64_t page_no,
              std::size_t useful_bytes) {
    std::lock_guard<std::mutex> lock(mutex_);
    useful_[key(blob_id, page_no)] += useful_bytes;
  }

  /// Was this page inefficiently used in the *previous* superstep? This is
  /// the optimizer's prediction signal for the current superstep.
  bool was_inefficient(std::uint64_t blob_id, std::uint64_t page_no) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return previous_inefficient_.count(key(blob_id, page_no)) != 0;
  }

  struct SuperstepSummary {
    std::size_t pages_touched = 0;
    std::size_t pages_inefficient = 0;           // 0% < util < 10%
    std::size_t inefficient_predicted = 0;       // and predicted as such
    double inefficient_fraction() const {
      return pages_touched == 0
                 ? 0.0
                 : static_cast<double>(pages_inefficient) / pages_touched;
    }
    double prediction_recall() const {
      return pages_inefficient == 0
                 ? 0.0
                 : static_cast<double>(inefficient_predicted) /
                       pages_inefficient;
    }
  };

  /// Close the current superstep: classify pages, score the prediction, and
  /// roll the inefficient set into "previous".
  SuperstepSummary finish_superstep() {
    std::lock_guard<std::mutex> lock(mutex_);
    SuperstepSummary s;
    std::unordered_set<std::uint64_t> inefficient;
    for (const auto& [k, bytes] : useful_) {
      ++s.pages_touched;
      const double util =
          static_cast<double>(bytes) / static_cast<double>(page_size_);
      if (bytes > 0 && util < kInefficientPageUtil) {
        ++s.pages_inefficient;
        inefficient.insert(k);
        if (previous_inefficient_.count(k) != 0) ++s.inefficient_predicted;
      }
    }
    previous_inefficient_ = std::move(inefficient);
    useful_.clear();
    return s;
  }

  std::size_t page_size() const noexcept { return page_size_; }

 private:
  static std::uint64_t key(std::uint64_t blob_id, std::uint64_t page_no) {
    return blob_id * 0x9E3779B97F4A7C15ull ^ page_no;
  }

  std::size_t page_size_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, std::size_t> useful_;
  std::unordered_set<std::uint64_t> previous_inefficient_;
};

}  // namespace mlvc::multilog
