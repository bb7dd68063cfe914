// Shared test configuration helpers.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "core/options.hpp"

namespace mlvc {

/// Pins environment variables for a scope and restores their outer values
/// on exit, so a test can fix a knob that a CI leg set for the whole suite.
class ScopedEnv {
 public:
  /// Set `var` to `value`; nullptr unsets it.
  ScopedEnv(const char* var, const char* value)
      : ScopedEnv(std::vector<const char*>{var}) {
    if (value != nullptr) ::setenv(var, value, 1);
  }
  /// Unset every variable in `vars`.
  explicit ScopedEnv(const std::vector<const char*>& vars) {
    for (const char* var : vars) {
      const char* old = std::getenv(var);
      saved_.emplace_back(var, old != nullptr
                                   ? std::optional<std::string>(old)
                                   : std::nullopt);
      ::unsetenv(var);
    }
  }
  ~ScopedEnv() {
    for (const auto& [var, old] : saved_) {
      if (old) {
        ::setenv(var.c_str(), old->c_str(), 1);
      } else {
        ::unsetenv(var.c_str());
      }
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::vector<std::pair<std::string, std::optional<std::string>>> saved_;
};

/// Pins the OpenMP team size (the engine's compute threads) for a scope.
class ThreadCount {
 public:
  explicit ThreadCount(unsigned n) {
#ifdef _OPENMP
    previous_ = omp_get_max_threads();
    omp_set_num_threads(static_cast<int>(n));
#else
    (void)n;
#endif
  }
  ~ThreadCount() {
#ifdef _OPENMP
    omp_set_num_threads(previous_);
#endif
  }
  ThreadCount(const ThreadCount&) = delete;
  ThreadCount& operator=(const ThreadCount&) = delete;

 private:
  int previous_ = 1;
};

/// Small budgets + small pages so even tiny test graphs exercise the
/// out-of-core paths (multiple intervals, log spills, page coalescing).
inline core::EngineOptions testing_options() {
  core::EngineOptions opts;
  opts.memory_budget_bytes = 2_MiB;
  opts.max_supersteps = 50;
  return opts;
}

}  // namespace mlvc
