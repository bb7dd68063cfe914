// OpenMP-backed parallel loop helpers.
//
// The paper parallelizes vertex processing with OpenMP (§VI). These wrappers
// keep the engines readable and compile cleanly to serial loops when OpenMP
// is unavailable.
#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <span>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace mlvc {

inline unsigned hardware_threads() {
#ifdef _OPENMP
  return static_cast<unsigned>(omp_get_max_threads());
#else
  return 1;
#endif
}

/// Index of the calling thread within the current parallel_for team:
/// 0 .. hardware_threads() - 1, and 0 outside any parallel region. Used to
/// index per-thread scratch without thread_local.
inline unsigned thread_index() {
#ifdef _OPENMP
  return static_cast<unsigned>(omp_get_thread_num());
#else
  return 0;
#endif
}

namespace detail {

/// The loop behind parallel_for and parallel_for_each: dynamic scheduling,
/// `grain` iterations per hand-out, and no more threads than there are
/// hand-outs — a loop of one hand-out runs inline, without a team.
///
/// Exception-safe: an exception escaping an OpenMP parallel region is
/// undefined behaviour (in practice std::terminate), so the first exception
/// any iteration throws is captured and rethrown after the loop joins.
template <typename Index, typename Body>
void parallel_loop(Index begin, Index end, long long grain, Body&& body) {
#ifdef _OPENMP
  const long long n =
      static_cast<long long>(end) - static_cast<long long>(begin);
  const long long team = std::min<long long>(
      (n + grain - 1) / grain, static_cast<long long>(hardware_threads()));
  if (team > 1) {
    std::exception_ptr first_error;
#pragma omp parallel for schedule(dynamic, grain) num_threads(team) \
    shared(first_error)
    for (long long i = static_cast<long long>(begin);
         i < static_cast<long long>(end); ++i) {
      try {
        body(static_cast<Index>(i));
      } catch (...) {
#pragma omp critical(mlvc_parallel_for_error)
        {
          if (!first_error) first_error = std::current_exception();
        }
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    return;
  }
#else
  (void)grain;
#endif
  for (Index i = begin; i < end; ++i) body(i);
}

}  // namespace detail

/// Parallel for over [begin, end) with dynamic scheduling. Body must be
/// thread-safe. Chunk size is tuned for skewed per-iteration cost (power-law
/// vertex degrees make static partitioning badly unbalanced), so a loop of
/// at most 256 iterations runs on one thread; use parallel_for_each for a
/// few coarse tasks.
template <typename Index, typename Body>
void parallel_for(Index begin, Index end, Body&& body) {
  detail::parallel_loop(begin, end, 256, std::forward<Body>(body));
}

/// Runs body(t) for every task t in [0, n), one task per hand-out: for a
/// few coarse tasks (fixed chunks of a batch, one interval each) that must
/// spread over the team. Each task runs on exactly one thread.
template <typename Body>
void parallel_for_each(std::size_t n, Body&& body) {
  detail::parallel_loop(std::size_t{0}, n, 1, std::forward<Body>(body));
}

/// Split [0, n) into at most `max_chunks` contiguous chunks of roughly equal
/// size, each (except possibly the last) at least `min_chunk` items. Returns
/// the chunk boundaries: first entry 0, last entry n; n == 0 yields {0}.
/// The split is a pure function of (n, min_chunk, max_chunks), so results
/// computed per chunk are deterministic under any scheduling.
inline std::vector<std::size_t> chunk_bounds(std::size_t n,
                                             std::size_t min_chunk,
                                             std::size_t max_chunks) {
  const std::size_t by_min =
      min_chunk > 0 ? (n + min_chunk - 1) / min_chunk : n;
  const std::size_t n_chunks =
      std::max<std::size_t>(1, std::min(by_min, std::max<std::size_t>(
                                                    1, max_chunks)));
  const std::size_t chunk = (n + n_chunks - 1) / n_chunks;
  std::vector<std::size_t> bounds;
  bounds.reserve(n_chunks + 1);
  for (std::size_t off = 0; off < n; off += chunk) bounds.push_back(off);
  bounds.push_back(n);
  return bounds;
}

/// In-place exclusive prefix sum over `values`; returns the grand total.
/// Blocked two-pass scan: per-chunk totals in parallel, a serial scan over
/// the few chunk totals, then a parallel fix-up pass. The counting-scatter
/// grouping path uses this to turn a destination histogram into final group
/// offsets.
template <typename T>
T parallel_exclusive_scan(std::span<T> values) {
  const auto bounds =
      chunk_bounds(values.size(), std::size_t{1} << 15, hardware_threads());
  const std::size_t n_chunks = bounds.size() - 1;
  if (values.empty()) return T{};
  std::vector<T> sums(n_chunks, T{});
  parallel_for(std::size_t{0}, n_chunks, [&](std::size_t c) {
    T s{};
    for (std::size_t i = bounds[c]; i < bounds[c + 1]; ++i) s += values[i];
    sums[c] = s;
  });
  T total{};
  for (std::size_t c = 0; c < n_chunks; ++c) {
    const T s = sums[c];
    sums[c] = total;
    total += s;
  }
  parallel_for(std::size_t{0}, n_chunks, [&](std::size_t c) {
    T running = sums[c];
    for (std::size_t i = bounds[c]; i < bounds[c + 1]; ++i) {
      const T v = values[i];
      values[i] = running;
      running += v;
    }
  });
  return total;
}

/// Parallel sort. gcc's std::sort is serial; for the log sort (the hot path
/// of the sort-and-group unit) we split into per-thread chunks and merge.
template <typename It, typename Cmp>
void parallel_sort(It begin, It end, Cmp cmp) {
#ifdef _OPENMP
  const std::size_t n = static_cast<std::size_t>(end - begin);
  const unsigned t = hardware_threads();
  if (t <= 1 || n < 1u << 14) {
    std::sort(begin, end, cmp);
    return;
  }
  const std::vector<std::size_t> bounds =
      chunk_bounds(n, std::size_t{1} << 14, t);
#pragma omp parallel for schedule(static)
  for (long long c = 0; c < static_cast<long long>(bounds.size()) - 1; ++c) {
    std::sort(begin + bounds[c], begin + bounds[c + 1], cmp);
  }
  // Binary merge tree. The merges at one width touch disjoint ranges, so
  // each level runs in parallel; only the log2(chunks) levels are serial.
  const std::size_t n_lists = bounds.size() - 1;
  for (std::size_t width = 1; width < n_lists; width *= 2) {
    const long long n_merges =
        static_cast<long long>((n_lists - width + 2 * width - 1) / (2 * width));
#pragma omp parallel for schedule(dynamic, 1)
    for (long long m = 0; m < n_merges; ++m) {
      const std::size_t i = static_cast<std::size_t>(m) * 2 * width;
      const std::size_t mid = bounds[i + width];
      const std::size_t hi = bounds[std::min(i + 2 * width, n_lists)];
      std::inplace_merge(begin + bounds[i], begin + mid, begin + hi, cmp);
    }
  }
#else
  std::sort(begin, end, cmp);
#endif
}

template <typename It>
void parallel_sort(It begin, It end) {
  parallel_sort(begin, end, std::less<>{});
}

}  // namespace mlvc
