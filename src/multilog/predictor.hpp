// History-based active-vertex prediction (§V.C of the paper).
//
// "If the vertex v_i was active at least once in the past N supersteps, it
// predicts the vertex to be active. More complex prediction schemes were
// considered, but this simple history-based prediction with N equal to one
// proved effective."
#pragma once

#include <deque>
#include <utility>

#include "common/bitset.hpp"
#include "common/types.hpp"

namespace mlvc::multilog {

class HistoryPredictor {
 public:
  /// `history_depth` is the paper's N. Depth 0 disables prediction (always
  /// predicts inactive) — used by the ablation bench.
  HistoryPredictor(VertexId num_vertices, unsigned history_depth = 1)
      : num_vertices_(num_vertices), depth_(history_depth) {}

  unsigned depth() const noexcept { return depth_; }

  /// Push the active set of a finished superstep.
  void observe(const DynamicBitset& active) {
    MLVC_CHECK(active.size() == num_vertices_);
    if (depth_ == 0) return;
    history_.push_back(active);
    if (history_.size() > depth_) history_.pop_front();
  }

  /// Will v likely be active next superstep?
  bool predict_active(VertexId v) const {
    MLVC_CHECK(v < num_vertices_);
    for (const DynamicBitset& h : history_) {
      if (h.test(v)) return true;
    }
    return false;
  }

  /// True once at least one superstep has been observed (before that,
  /// predict_active is uniformly false and range scans below are empty).
  bool has_history() const noexcept { return !history_.empty(); }

  /// Scheduler priority estimation: visit every vertex in [begin, end)
  /// predicted active next superstep. The hub-degree schedule policy weighs
  /// an interval by the out-degree mass of THIS set rather than the whole
  /// interval — the history that drives the §V.C logging decision doubles
  /// as the per-interval impact estimate. The common depth-1 case is one
  /// bitset range scan; deeper histories fall back to per-vertex checks.
  template <typename Fn>
  void for_each_predicted_in_range(VertexId begin, VertexId end,
                                   Fn&& fn) const {
    if (history_.empty()) return;
    if (history_.size() == 1) {
      history_.front().for_each_set_in_range(begin, end,
                                             std::forward<Fn>(fn));
      return;
    }
    for (VertexId v = begin; v < end; ++v) {
      if (predict_active(v)) fn(static_cast<std::size_t>(v));
    }
  }

 private:
  VertexId num_vertices_;
  unsigned depth_;
  std::deque<DynamicBitset> history_;
};

}  // namespace mlvc::multilog
