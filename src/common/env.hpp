// Every MLVC_* environment variable the programs read, in one table.
//
// Each row names one variable, the kind of value it takes, the values it
// accepts, the tool flag that sets it (if any) and one doc line. README's
// "Environment variables" table lists exactly these rows.
//
// The typed readers below are the only place the programs read the
// environment, and they share one error policy: unset or empty means "not
// set" (the caller keeps its value), and anything unparsable throws
// InvalidArgument naming the variable and its accepted values.
//
// One precedence holds for every setting: an explicit tool flag beats the
// environment, and the environment beats the code default. Tools get the
// first half from pin_flags(), which copies each row flag the user gave
// into the row's variable before anything reads it.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>

#include "common/args.hpp"
#include "common/error.hpp"

namespace mlvc::env {

enum class Kind { kUnsigned, kBytes, kDouble, kBool, kEnum, kString };

struct Var {
  const char* name;
  Kind kind;
  const char* accepted;
  const char* flag;  // tool flag (without "--") that pins it; "" = none
  const char* doc;
  std::uint64_t min = 0;  // smallest accepted kUnsigned / kBytes value
};

// Engine and storage ----------------------------------------------------------
inline constexpr Var kFormat{
    "MLVC_FORMAT", Kind::kEnum, "v1|v2", "format",
    "On-disk layout of message logs and tool-built stores. Default v2."};
inline constexpr Var kSchedule{
    "MLVC_SCHEDULE", Kind::kEnum, "bsp|fifo|hub-degree|log-bytes", "schedule",
    "Interval order in a superstep; never flips the model. Default bsp."};
inline constexpr Var kDirection{
    "MLVC_DIRECTION", Kind::kEnum, "push|pull|adaptive", "direction",
    "Message direction; pull falls back to push with a reason. Default push."};
inline constexpr Var kIoBackend{
    "MLVC_IO_BACKEND", Kind::kEnum, "threadpool|uring", "io-backend",
    "Hot-path I/O; uring falls back when the probe refuses it. Default "
    "threadpool."};
inline constexpr Var kUringDepth{
    "MLVC_URING_DEPTH", Kind::kUnsigned, "integer >= 1", "io-depth",
    "io_uring queue depth (capped at 4096). Default 64.", 1};
inline constexpr Var kIoStrict{
    "MLVC_IO_STRICT", Kind::kBool, "0|1", "",
    "1 = a refused uring request is an error, not a fallback. Default 0."};
inline constexpr Var kDevices{
    "MLVC_DEVICES", Kind::kUnsigned, "integer in [1, 64]", "devices",
    "Devices a fresh store stripes across; a manifest wins. Default 1.", 1};
inline constexpr Var kStripeUnit{
    "MLVC_STRIPE_UNIT", Kind::kBytes, "page multiple, K/M/G suffix", "stripe",
    "Stripe unit of fresh striped stores. Default 128K.", 1};
inline constexpr Var kFaultProfile{
    "MLVC_FAULT_PROFILE", Kind::kEnum,
    "off|transient|short-io|torn-page|mixed|giveup", "",
    "Injected I/O fault profile for every Storage. Default off."};
inline constexpr Var kFaultRate{"MLVC_FAULT_RATE", Kind::kDouble, "number", "",
                                "Per-operation fault rate. Default 0.02."};
inline constexpr Var kFaultSeed{"MLVC_FAULT_SEED", Kind::kUnsigned,
                                "integer >= 0", "",
                                "Fault schedule seed. Default 1."};
inline constexpr Var kFaultCrashAfter{
    "MLVC_FAULT_CRASH_AFTER", Kind::kUnsigned, "integer >= 0", "",
    "Kill the process at this write decision; 0 = never. Default 0."};
inline constexpr Var kFaultRetries{
    "MLVC_FAULT_RETRIES", Kind::kUnsigned, "integer >= 1", "",
    "Transient I/O retries per no-progress streak. Default 4.", 1};
inline constexpr Var kFaultRetryBaseUs{
    "MLVC_FAULT_RETRY_BASE_US", Kind::kUnsigned, "integer >= 0", "",
    "First retry backoff in us, doubling per retry. Default 50."};
inline constexpr Var kFaultTornRecovery{
    "MLVC_FAULT_TORN_RECOVERY", Kind::kBool, "0|1", "",
    "1 = drop a torn trailing log page; 0 = a tear is fatal. Default 1."};
inline constexpr Var kCsvDir{
    "MLVC_CSV_DIR", Kind::kString, "directory", "",
    "Paper-figure benches also write CSVs here. Default unset."};

// Bench sweeps and gates ------------------------------------------------------
inline constexpr Var kBenchDirectionScale{"MLVC_BENCH_DIRECTION_SCALE",
                                          Kind::kUnsigned, "integer >= 1", "",
                                          "R-MAT scale. Default 13.", 1};
inline constexpr Var kBenchDirectionEdgeFactor{
    "MLVC_BENCH_DIRECTION_EDGE_FACTOR", Kind::kDouble, "number", "",
    "Edges per vertex. Default 8."};
inline constexpr Var kBenchDirectionReps{"MLVC_BENCH_DIRECTION_REPS",
                                         Kind::kUnsigned, "integer >= 1", "",
                                         "Timing repetitions. Default 2.", 1};
inline constexpr Var kBenchDirectionMinLogRatio{
    "MLVC_BENCH_DIRECTION_MIN_LOG_RATIO", Kind::kDouble, "number", "",
    "Gate: push/adaptive log bytes on BFS and WCC. Default 2.0."};
inline constexpr Var kBenchDirectionMinRatio{
    "MLVC_BENCH_DIRECTION_MIN_RATIO", Kind::kDouble, "number", "",
    "Gate: push/adaptive modeled time. Default 1.0."};
inline constexpr Var kBenchDirectionTolerance{
    "MLVC_BENCH_DIRECTION_TOLERANCE", Kind::kDouble, "number", "",
    "PageRank per-vertex relative tolerance. Default 1e-3."};
inline constexpr Var kBenchCompressScale{"MLVC_BENCH_COMPRESS_SCALE",
                                         Kind::kUnsigned, "integer >= 1", "",
                                         "R-MAT scale. Default 13.", 1};
inline constexpr Var kBenchCompressEdgeFactor{
    "MLVC_BENCH_COMPRESS_EDGE_FACTOR", Kind::kDouble, "number", "",
    "Edges per vertex. Default 8."};
inline constexpr Var kBenchCompressReps{
    "MLVC_BENCH_COMPRESS_REPS", Kind::kUnsigned, "integer >= 1", "",
    "Timing repetitions per format. Default 3.", 1};
inline constexpr Var kBenchCompressMaxSlowdown{
    "MLVC_BENCH_COMPRESS_MAX_SLOWDOWN", Kind::kDouble, "number", "",
    "Gate: v2/v1 modeled time. Default 1.10."};
inline constexpr Var kBenchStripeScale{"MLVC_BENCH_STRIPE_SCALE",
                                       Kind::kUnsigned, "integer >= 1", "",
                                       "R-MAT scale. Default 12.", 1};
inline constexpr Var kBenchStripeEdgeFactor{
    "MLVC_BENCH_STRIPE_EDGE_FACTOR", Kind::kDouble, "number", "",
    "Edges per vertex. Default 8."};
inline constexpr Var kBenchStripeMinSpeedup{
    "MLVC_BENCH_STRIPE_MIN_SPEEDUP", Kind::kDouble, "number", "",
    "Gate: 4-device log-load bandwidth speedup. Default 1.6."};
inline constexpr Var kBenchAsyncScaleSmall{
    "MLVC_BENCH_ASYNC_SCALE_SMALL", Kind::kUnsigned, "integer >= 1", "",
    "Reported R-MAT scale. Default 13.", 1};
inline constexpr Var kBenchAsyncScaleLarge{
    "MLVC_BENCH_ASYNC_SCALE_LARGE", Kind::kUnsigned, "integer >= 1", "",
    "Gated R-MAT scale. Default 15.", 1};
inline constexpr Var kBenchAsyncEdgeFactor{
    "MLVC_BENCH_ASYNC_EDGE_FACTOR", Kind::kDouble, "number", "",
    "Edges per vertex. Default 8."};
inline constexpr Var kBenchAsyncReps{"MLVC_BENCH_ASYNC_REPS", Kind::kUnsigned,
                                     "integer >= 1", "",
                                     "Timing repetitions. Default 2.", 1};
inline constexpr Var kBenchAsyncMinRoundsRatio{
    "MLVC_BENCH_ASYNC_MIN_ROUNDS_RATIO", Kind::kDouble, "number", "",
    "Gate: bsp/async effective rounds. Default 1.01."};
inline constexpr Var kBenchAsyncMinRatio{
    "MLVC_BENCH_ASYNC_MIN_RATIO", Kind::kDouble, "number", "",
    "Gate: bsp/async modeled time. Default 1.0."};
inline constexpr Var kBenchServeQueries{
    "MLVC_BENCH_SERVE_QUERIES", Kind::kUnsigned, "integer >= 1", "",
    "Queries per concurrency level. Default 96.", 1};
inline constexpr Var kBenchServeConcurrency{
    "MLVC_BENCH_SERVE_CONCURRENCY", Kind::kString,
    "comma list of integers >= 1", "",
    "Concurrency levels. Default 1,8,32,64."};

/// The table: every row above, in README order.
inline constexpr const Var* kVars[] = {
    &kFormat, &kSchedule, &kDirection, &kIoBackend,
    &kUringDepth, &kIoStrict, &kDevices, &kStripeUnit, &kFaultProfile,
    &kFaultRate, &kFaultSeed, &kFaultCrashAfter, &kFaultRetries,
    &kFaultRetryBaseUs, &kFaultTornRecovery, &kCsvDir, &kBenchDirectionScale,
    &kBenchDirectionEdgeFactor, &kBenchDirectionReps,
    &kBenchDirectionMinLogRatio, &kBenchDirectionMinRatio,
    &kBenchDirectionTolerance, &kBenchCompressScale,
    &kBenchCompressEdgeFactor, &kBenchCompressReps, &kBenchCompressMaxSlowdown,
    &kBenchStripeScale,
    &kBenchStripeEdgeFactor, &kBenchStripeMinSpeedup, &kBenchAsyncScaleSmall,
    &kBenchAsyncScaleLarge, &kBenchAsyncEdgeFactor, &kBenchAsyncReps,
    &kBenchAsyncMinRoundsRatio, &kBenchAsyncMinRatio, &kBenchServeQueries,
    &kBenchServeConcurrency};

/// Throws the table's one error: InvalidArgument naming the variable, the
/// rejected text and the accepted values.
[[noreturn]] void reject(const Var& var, const std::string& text);

// Typed readers: nullopt = unset or empty; unparsable = reject().
std::optional<std::string> get_string(const Var& var);
std::optional<std::uint64_t> get_bytes(const Var& var);
std::optional<double> get_double(const Var& var);
std::optional<bool> get_bool(const Var& var);

namespace detail {
std::optional<std::uint64_t> get_unsigned(const Var& var, std::uint64_t max);
}  // namespace detail

/// Decimal digits only, at least var.min, and within T's range.
template <typename T = unsigned>
std::optional<T> get_unsigned(const Var& var) {
  const auto v = detail::get_unsigned(var, std::numeric_limits<T>::max());
  if (!v) return std::nullopt;
  return static_cast<T>(*v);
}

/// `parse(const char*, T*)` returns false on an unknown spelling.
template <typename T, typename Parse>
std::optional<T> get_enum(const Var& var, Parse parse) {
  const auto text = get_string(var);
  if (!text) return std::nullopt;
  T value{};
  if (!parse(text->c_str(), &value)) reject(var, *text);
  return value;
}

/// Set the variable for this process and its children; nullptr unsets it.
void set(const Var& var, const char* value);

/// Flag beats env: copy every row flag the user gave into its variable.
void pin_flags(const ArgParser& args);

}  // namespace mlvc::env
