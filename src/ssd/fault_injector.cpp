#include "ssd/fault_injector.hpp"

#include "common/env.hpp"
#include "common/error.hpp"

namespace mlvc::ssd {

namespace {

/// The profile called `name` at `rate`; nullopt for an unknown name.
std::optional<FaultProfile> find_profile(std::string_view name, double rate) {
  FaultProfile p;
  if (name == "off" || name.empty()) return p;
  if (name == "transient") {
    p.transient_read_rate = rate;
    p.transient_write_rate = rate;
    return p;
  }
  if (name == "short-io") {
    p.short_read_rate = rate;
    p.short_write_rate = rate;
    return p;
  }
  if (name == "torn-page") {
    // Inert during steady-state runs; bites when a crash point is armed
    // (MLVC_FAULT_CRASH_AFTER / crash_after_writes), leaving a torn trailing
    // page for recovery to absorb.
    p.tear_on_crash = true;
    return p;
  }
  if (name == "mixed") {
    p.transient_read_rate = rate;
    p.transient_write_rate = rate;
    p.short_read_rate = rate;
    p.short_write_rate = rate;
    p.tear_on_crash = true;
    return p;
  }
  if (name == "giveup") {
    p.transient_read_rate = rate;
    p.transient_write_rate = rate;
    p.max_consecutive_transient = 0;  // exhaust any retry budget
    return p;
  }
  return std::nullopt;
}

}  // namespace

FaultProfile FaultInjector::named_profile(std::string_view name, double rate) {
  if (auto p = find_profile(name, rate)) return *p;
  throw InvalidArgument("unknown fault profile '" + std::string(name) +
                        "' (want " + env::kFaultProfile.accepted + ")");
}

std::shared_ptr<FaultInjector> FaultInjector::from_env() {
  // Every fault row is parsed even when no profile is set, so a typo in any
  // of them fails instead of quietly running fault-free.
  const double rate = env::get_double(env::kFaultRate).value_or(0.02);
  const auto crash_after =
      env::get_unsigned<std::uint64_t>(env::kFaultCrashAfter).value_or(0);
  const auto seed =
      env::get_unsigned<std::uint64_t>(env::kFaultSeed).value_or(1);
  const auto name = env::get_string(env::kFaultProfile);
  if (!name || *name == "off") return nullptr;
  auto profile = find_profile(*name, rate);
  if (!profile) env::reject(env::kFaultProfile, *name);
  profile->crash_after_writes = crash_after;
  return std::make_shared<FaultInjector>(*profile, seed);
}

}  // namespace mlvc::ssd
