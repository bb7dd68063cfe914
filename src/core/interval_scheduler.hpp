// Interval-granular superstep scheduling (beyond the paper's strict BSP).
//
// The paper's engine executes a superstep as one barrier: every interval's
// log is loaded, sorted and computed in id order, and nothing in superstep
// s+1 starts until the slowest interval of s finishes. But per-interval
// dependencies are much narrower than the barrier: an interval's chain
// (load → decode → sort → compute) only needs its OWN log to be stable.
// The IntervalScheduler tracks exactly that — per interval, the producer
// sequence number observed when its log was drained — and hands the engine
// ready chains one at a time, ordered by a priority policy:
//
//   fifo        arrival (interval id) order — the control case, and the
//               order kBsp runs (the paper's barrier wave is the fifo
//               sweep);
//   hub-degree  descending out-degree mass of the interval's expected-active
//               vertices (hubs first: the ACGraph-style signal that pays on
//               skewed graphs, since hub updates feed the most downstream
//               work per byte loaded);
//   log-bytes   descending pending message-log volume (largest input first).
//
// The scheduler is deliberately not a heap: interval counts are small
// (<5000 in the paper), priorities change on every asynchronous-mode
// requeue, and a linear argmax with an id tie-break is what makes the pop
// order — and therefore the whole scheduled execution — deterministic.
//
// Observability: every pop records how far the priority policy moved the
// interval from its arrival rank (reorder depth) and how long the chain sat
// ready before activation (ready latency); the engine surfaces both per
// superstep.
#pragma once

#include <cstdint>
#include <vector>

#include "common/timer.hpp"
#include "common/types.hpp"

namespace mlvc::core {

class IntervalScheduler {
 public:
  IntervalScheduler(SchedulePolicy policy, IntervalId n)
      : policy_(policy), slots_(n) {}

  IntervalId size() const noexcept {
    return static_cast<IntervalId>(slots_.size());
  }

  /// Release interval i's chain into the ready set. `score` is the
  /// hub-degree impact estimate, `pending_bytes` the log volume awaiting
  /// delivery; which one orders the pop is the policy's choice. Re-marking
  /// an already-ready interval just refreshes its priority inputs.
  void mark_ready(IntervalId i, std::uint64_t score,
                  std::uint64_t pending_bytes) {
    Slot& s = slots_[i];
    s.score = score;
    s.pending_bytes = pending_bytes;
    if (!s.ready) {
      s.ready = true;
      s.arrival_rank = next_arrival_++;
      s.ready_at = clock_.elapsed_seconds();
    }
  }

  bool is_ready(IntervalId i) const { return slots_[i].ready; }
  bool processed(IntervalId i) const { return slots_[i].processed; }

  /// Highest-priority ready interval, or kInvalidInterval when the ready
  /// set is empty. Deterministic: integer priorities, ascending-id
  /// tie-break, and the caller (the engine's main thread) is the only
  /// mutator.
  IntervalId pop() {
    const IntervalId n = size();
    IntervalId best = kInvalidInterval;
    for (IntervalId i = 0; i < n; ++i) {
      if (!slots_[i].ready) continue;
      if (best == kInvalidInterval || better(slots_[i], slots_[best])) best = i;
    }
    if (best == kInvalidInterval) return best;
    Slot& s = slots_[best];
    s.ready = false;
    s.processed = true;
    const std::uint64_t pop_rank = pops_++;
    const std::uint64_t depth = s.arrival_rank > pop_rank
                                    ? s.arrival_rank - pop_rank
                                    : pop_rank - s.arrival_rank;
    if (depth > max_reorder_depth_) max_reorder_depth_ = depth;
    ready_latency_seconds_ += clock_.elapsed_seconds() - s.ready_at;
    return best;
  }

  // ---- quiesce protocol ----------------------------------------------------
  // The engine records, right after interval i's chain drained its produce
  // log, the store's produce sequence number for i. A later mismatch between
  // that mark and the live sequence means producers appended after the drain
  // — i's log is no longer quiescent and (under the asynchronous model) the
  // chain is re-queued for same-wave delivery.

  void record_quiesce(IntervalId i, std::uint64_t produce_seq) {
    slots_[i].quiesce_seq = produce_seq;
  }
  std::uint64_t quiesce_seq(IntervalId i) const {
    return slots_[i].quiesce_seq;
  }

  // ---- wave observability --------------------------------------------------
  /// Chains activated (pop() calls that returned an interval).
  std::uint64_t pops() const noexcept { return pops_; }
  /// max |arrival rank - activation rank| over the wave: 0 means the
  /// priority policy never deviated from arrival order.
  std::uint64_t max_reorder_depth() const noexcept {
    return max_reorder_depth_;
  }
  /// Total time popped chains spent in the ready set before activation.
  double ready_latency_seconds() const noexcept {
    return ready_latency_seconds_;
  }

 private:
  struct Slot {
    std::uint64_t score = 0;          // hub-degree impact estimate
    std::uint64_t pending_bytes = 0;  // log volume awaiting delivery
    std::uint64_t arrival_rank = 0;
    std::uint64_t quiesce_seq = 0;
    double ready_at = 0;
    bool ready = false;
    bool processed = false;
  };

  /// Strict "a runs before b". The id tie-break is implicit: pop() scans
  /// ascending and only replaces the incumbent on a strict win.
  bool better(const Slot& a, const Slot& b) const {
    switch (policy_) {
      case SchedulePolicy::kBsp:
      case SchedulePolicy::kFifo:
        return a.arrival_rank < b.arrival_rank;
      case SchedulePolicy::kHubDegree:
        return a.score > b.score;
      case SchedulePolicy::kLogBytes:
        return a.pending_bytes > b.pending_bytes;
    }
    return false;
  }

  SchedulePolicy policy_;
  std::vector<Slot> slots_;
  std::uint64_t next_arrival_ = 0;
  std::uint64_t pops_ = 0;
  std::uint64_t max_reorder_depth_ = 0;
  double ready_latency_seconds_ = 0;
  WallTimer clock_;
};

}  // namespace mlvc::core
