// Shared test configuration helpers.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

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

/// Small budgets + small pages so even tiny test graphs exercise the
/// out-of-core paths (multiple intervals, log spills, page coalescing).
inline core::EngineOptions testing_options() {
  core::EngineOptions opts;
  opts.memory_budget_bytes = 2_MiB;
  opts.max_supersteps = 50;
  return opts;
}

}  // namespace mlvc
