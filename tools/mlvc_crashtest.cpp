// mlvc_crashtest — kill-and-recover harness for the fault-injection
// substrate.
//
// The driver re-executes itself (fork + execv of /proc/self/exe) in three
// child modes sharing one working directory:
//
//   --mode clean    run the workload with no faults, dump vertex values
//   --mode victim   run with MLVC_FAULT_* armed (checkpointing "latest"
//                   every superstep) until the injected crash failpoint
//                   kills the process (exit 37), possibly mid-write with a
//                   torn trailing page
//   --mode recover  reopen the directory, load the "latest" checkpoint (or
//                   start fresh if the crash predated the first one),
//                   finish the run, dump vertex values
//
// A cycle passes when the recovered values match the clean run's: exactly
// for integer-valued apps (BFS), within a small relative tolerance for
// float-valued ones (PageRank — the parallel scatter makes float reduction
// order run-dependent even without faults).
//
//   mlvc_crashtest --profile torn-page --seed 303 --crash-after 25
//   mlvc_crashtest --sweep --crash-points 8
//
// --sweep runs, per CI fault profile: an in-process equivalence check
// (faulted run vs clean run, no crash) and, for the tearing profiles, a
// crash-point sweep of full victim/recover cycles. Exit 0 = no silent
// divergence; any injected-fault run either matched the clean values or
// failed with a typed IoError.
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "apps/bfs.hpp"
#include "apps/pagerank.hpp"
#include "common/args.hpp"
#include "common/env.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "ssd/fault_injector.hpp"

namespace {

using namespace mlvc;

constexpr const env::Var* kFaultVars[] = {
    &env::kFaultProfile, &env::kFaultRate, &env::kFaultSeed,
    &env::kFaultCrashAfter};

// The fixed crashtest workload: a small power-law graph, budget tight
// enough that logs and values live on storage.
graph::CsrGraph make_graph() {
  graph::RmatParams p;
  p.scale = 9;
  p.edge_factor = 5;
  p.seed = 7;
  return graph::CsrGraph::from_edge_list(graph::generate_rmat(p));
}

/// Set once in main from --schedule and forwarded to every child spawn, so
/// one clean/victim/recover cycle runs entirely under one interval schedule.
/// Non-bsp also flips the children to the asynchronous model — that is the
/// schedule's intended pairing and the path the torn-log profiles must
/// cover (same-wave redelivery appends to the log generations the crash
/// tears).
SchedulePolicy g_schedule = SchedulePolicy::kBsp;

/// The driver's --schedule, forwarded to every child only when the user
/// gave it: without it the children keep the inherited MLVC_SCHEDULE (the
/// CI hub-degree leg) and the synchronous model.
std::vector<std::string> g_child_flags;

core::EngineOptions crashtest_options() {
  core::EngineOptions opts;
  opts.memory_budget_bytes = 4_MiB;
  opts.max_supersteps = 40;
  opts.seed = 5;
  opts.schedule_policy = g_schedule;
  if (g_schedule != SchedulePolicy::kBsp) {
    opts.model = core::ComputationModel::kAsynchronous;
  }
  return opts;
}

template <typename Value>
bool values_match(const std::vector<Value>& a, const std::vector<Value>& b,
                  std::string& why) {
  if (a.size() != b.size()) {
    why = "size mismatch: " + std::to_string(a.size()) + " vs " +
          std::to_string(b.size());
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    bool ok;
    if constexpr (std::is_floating_point_v<Value>) {
      const double denom = std::max(1e-12, static_cast<double>(
                                               std::abs(a[i]) + std::abs(b[i])));
      ok = std::abs(a[i] - b[i]) / denom < 1e-3;
    } else {
      ok = a[i] == b[i];
    }
    if (!ok) {
      why = "vertex " + std::to_string(i) + ": " + std::to_string(a[i]) +
            " vs " + std::to_string(b[i]);
      return false;
    }
  }
  return true;
}

template <typename Value>
std::vector<Value> read_values_file(const std::filesystem::path& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  MLVC_CHECK_MSG(f.good(), "cannot open values file " << path);
  const auto bytes = static_cast<std::size_t>(f.tellg());
  MLVC_CHECK_MSG(bytes % sizeof(Value) == 0, "values file size not a whole "
                                             "number of values");
  std::vector<Value> out(bytes / sizeof(Value));
  f.seekg(0);
  f.read(reinterpret_cast<char*>(out.data()), bytes);
  return out;
}

// ---- child modes ----------------------------------------------------------

template <core::VertexApp App>
int run_mode(const std::string& mode, const std::filesystem::path& workdir,
             App app, const std::string& out_path) {
  const auto csr = make_graph();
  const auto opts = crashtest_options();
  ssd::Storage storage(workdir);
  graph::StoredCsrGraph stored(storage, "g", csr,
                               core::partition_for_app<App>(csr, opts),
                               {.with_weights = App::kNeedsWeights});
  core::MultiLogVCEngine<App> engine(stored, app, opts);

  if (mode == "victim") {
    engine.run_with_callback([&](const core::SuperstepStats&) {
      engine.save_checkpoint("latest");
      return true;
    });
    // Reaching here means the armed crash point was past the end of the run.
    return 0;
  }
  if (mode == "recover") {
    try {
      engine.load_checkpoint("latest");
    } catch (const InvalidArgument&) {
      // Crashed before the first checkpoint — re-run from scratch.
    }
  }
  engine.run();
  const auto values = engine.values();
  std::ofstream f(out_path, std::ios::binary);
  f.write(reinterpret_cast<const char*>(values.data()),
          static_cast<std::streamsize>(values.size() *
                                       sizeof(typename App::Value)));
  return f.good() ? 0 : 1;
}

int run_child_mode(const std::string& mode, const std::string& app,
                   const std::filesystem::path& workdir,
                   const std::string& out_path) {
  if (app == "bfs") {
    return run_mode(mode, workdir, apps::Bfs{.source = 0}, out_path);
  }
  if (app == "pagerank") {
    return run_mode(mode, workdir, apps::PageRank{}, out_path);
  }
  std::cerr << "unknown --app '" << app << "'\n";
  return 2;
}

// ---- driver ---------------------------------------------------------------

struct ChildEnv {
  std::string profile;
  std::uint64_t seed = 1;
  double rate = 0.02;
  std::uint64_t crash_after = 0;
};

/// fork + execv this binary with `args` plus g_child_flags; victim children
/// additionally get the MLVC_FAULT_* environment, other modes run with it
/// scrubbed.
int spawn(std::vector<std::string> args, const ChildEnv* faults) {
  args.insert(args.end(), g_child_flags.begin(), g_child_flags.end());
  const pid_t pid = ::fork();
  if (pid < 0) throw IoError("fork", "mlvc_crashtest", errno);
  if (pid == 0) {
    for (const env::Var* var : kFaultVars) env::set(*var, nullptr);
    if (faults != nullptr) {
      env::set(env::kFaultProfile, faults->profile.c_str());
      env::set(env::kFaultSeed, std::to_string(faults->seed).c_str());
      env::set(env::kFaultRate, std::to_string(faults->rate).c_str());
      env::set(env::kFaultCrashAfter,
               std::to_string(faults->crash_after).c_str());
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    ::execv("/proc/self/exe", argv.data());
    std::_Exit(127);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
}

/// Run the workload in-process, optionally under an injector, and return
/// the final vertex values.
template <core::VertexApp App>
std::vector<typename App::Value> run_values(
    App app, std::shared_ptr<ssd::FaultInjector> injector) {
  const auto csr = make_graph();
  const auto opts = crashtest_options();
  ssd::TempDir dir("mlvc_crash");
  ssd::Storage storage(dir.path());
  storage.set_fault_injector(std::move(injector));
  graph::StoredCsrGraph stored(storage, "g", csr,
                               core::partition_for_app<App>(csr, opts),
                               {.with_weights = App::kNeedsWeights});
  core::MultiLogVCEngine<App> engine(stored, app, opts);
  engine.run();
  return engine.values();
}

/// Faulted-but-uncrashed run vs clean run, both in-process. Every profile
/// must converge to the clean values: the injector's consecutive-transient
/// cap keeps all faults inside the retry budget.
template <core::VertexApp App>
bool equivalence_check(const std::string& label, App app,
                       const std::string& profile, std::uint64_t seed,
                       double rate) {
  const auto clean = run_values(app, nullptr);
  auto injector = std::make_shared<ssd::FaultInjector>(
      ssd::FaultInjector::named_profile(profile, rate), seed);
  std::vector<typename App::Value> faulted;
  try {
    faulted = run_values(app, injector);
  } catch (const IoError& e) {
    // A typed failure is an acceptable outcome; silent divergence is not.
    std::cout << "  [ok] " << label << ": typed IoError (" << e.what()
              << ")\n";
    return true;
  }
  std::string why;
  if (!values_match(clean, faulted, why)) {
    std::cout << "  [FAIL] " << label << ": values diverged — " << why
              << " (injected transient=" << injector->injected_transient()
              << " short=" << injector->injected_short() << ")\n";
    return false;
  }
  std::cout << "  [ok] " << label << ": values match clean run (transient="
            << injector->injected_transient()
            << " short=" << injector->injected_short() << ")\n";
  return true;
}

struct CycleResult {
  bool passed = false;
  int victim_exit = -1;
};

/// One full victim/recover cycle at a fixed crash point; the recovered
/// values must match the clean child's.
CycleResult crash_cycle(const std::string& app, const std::string& profile,
                        std::uint64_t seed, std::uint64_t crash_after,
                        const std::filesystem::path& clean_values) {
  ssd::TempDir workdir("mlvc_crashcycle");
  const std::string label = app + "/" + profile + " seed=" +
                            std::to_string(seed) +
                            " crash-after=" + std::to_string(crash_after);

  const ChildEnv faults{profile, seed, 0.02, crash_after};
  const int victim = spawn({"mlvc_crashtest", "--mode", "victim", "--app", app,
                            "--workdir", workdir.path().string()},
                           &faults);
  if (victim != ssd::kCrashExitCode && victim != 0 && victim != 3) {
    std::cout << "  [FAIL] " << label << ": victim exit " << victim
              << " (expected crash " << ssd::kCrashExitCode
              << ", clean 0, or typed-error 3)\n";
    return {false, victim};
  }

  const auto recovered_path = workdir.path() / "recovered.bin";
  const int recover = spawn({"mlvc_crashtest", "--mode", "recover", "--app",
                             app, "--workdir", workdir.path().string(),
                             "--out", recovered_path.string()},
                            nullptr);
  if (recover != 0) {
    std::cout << "  [FAIL] " << label << ": recover exit " << recover << "\n";
    return {false, victim};
  }

  bool match;
  std::string why;
  if (app == "pagerank") {
    match = values_match(read_values_file<float>(clean_values),
                         read_values_file<float>(recovered_path), why);
  } else {
    match = values_match(read_values_file<std::uint32_t>(clean_values),
                         read_values_file<std::uint32_t>(recovered_path), why);
  }
  if (!match) {
    std::cout << "  [FAIL] " << label << ": recovered values diverged — "
              << why << "\n";
    return {false, victim};
  }
  std::cout << "  [ok] " << label << " (victim exit " << victim << ")\n";
  return {true, victim};
}

int run_sweep(std::uint64_t base_seed, unsigned crash_points) {
  const struct {
    const char* profile;
    std::uint64_t seed_offset;
  } kProfiles[] = {
      {"transient", 100}, {"short-io", 200}, {"torn-page", 300}, {"mixed", 400}};

  bool ok = true;
  std::cout << "== completion equivalence (no crash) ==\n";
  for (const auto& p : kProfiles) {
    const std::uint64_t seed = base_seed + p.seed_offset;
    ok &= equivalence_check(std::string("bfs/") + p.profile, apps::Bfs{},
                            p.profile, seed, 0.05);
    ok &= equivalence_check(std::string("pagerank/") + p.profile,
                            apps::PageRank{}, p.profile, seed, 0.05);
  }

  std::cout << "== crash/recover sweep ==\n";
  ssd::TempDir clean_dir("mlvc_crashclean");
  const auto clean_bfs = clean_dir.path() / "bfs.bin";
  const auto clean_pr = clean_dir.path() / "pagerank.bin";
  ssd::TempDir bfs_work("mlvc_crashwork_bfs");
  ssd::TempDir pr_work("mlvc_crashwork_pr");
  if (spawn({"mlvc_crashtest", "--mode", "clean", "--app", "bfs", "--workdir",
             bfs_work.path().string(), "--out", clean_bfs.string()},
            nullptr) != 0 ||
      spawn({"mlvc_crashtest", "--mode", "clean", "--app", "pagerank",
             "--workdir", pr_work.path().string(), "--out", clean_pr.string()},
            nullptr) != 0) {
    std::cout << "  [FAIL] clean reference runs\n";
    return 1;
  }
  // Crash points start inside graph construction (~10 write decisions) and
  // grow geometrically; once a victim outlives its failpoint the run has no
  // later writes to kill, so the remaining points are skipped. Long
  // (nightly) sweeps use denser spacing to land more failpoints before the
  // ceiling. At least one cycle per app × profile must genuinely crash
  // (exit 37) or the sweep is vacuous and fails.
  const bool dense = crash_points >= 8;
  for (const std::string app : {"bfs", "pagerank"}) {
    const auto& clean = app == "pagerank" ? clean_pr : clean_bfs;
    for (const char* profile : {"torn-page", "mixed"}) {
      unsigned crashed = 0;
      std::uint64_t crash_after = 10;
      for (unsigned k = 0; k < crash_points; ++k) {
        const auto r = crash_cycle(app, profile, base_seed + 300 + k,
                                   crash_after, clean);
        ok &= r.passed;
        if (r.victim_exit == ssd::kCrashExitCode) ++crashed;
        if (r.passed && r.victim_exit == 0) break;  // past end of run
        crash_after = dense ? crash_after * 3 / 2    // ~1.5x spread
                            : crash_after * 5 / 2;   // ~2.5x spread
      }
      if (crashed == 0) {
        std::cout << "  [FAIL] " << app << "/" << profile
                  << ": no cycle reached the crash failpoint — sweep "
                     "exercised nothing\n";
        ok = false;
      }
    }
  }

  std::cout << (ok ? "SWEEP PASS\n" : "SWEEP FAIL\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("mlvc_crashtest",
                 "crash/recover harness for the fault-injection substrate");
  args.option("mode", "driver | clean | victim | recover", "driver")
      .option("app", "bfs | pagerank", "bfs")
      .option("workdir", "shared state directory (child modes)", "-")
      .option("out", "values output file (clean/recover modes)", "-")
      .option("profile", "fault profile for the single-cycle driver",
              "torn-page")
      .option("seed", "fault schedule seed", "1")
      .option("crash-after", "kill the victim after this many write decisions",
              "25")
      .option("sweep", "run the full profile × crash-point sweep", "false")
      .option("crash-points", "crash points per tearing profile in --sweep",
              "4")
      .option("schedule",
              "interval schedule for all runs (bsp | fifo | hub-degree | "
              "log-bytes); non-bsp also uses the asynchronous model",
              "bsp")
      .option("devices",
              "striped backing devices for every run's store (children "
              "inherit via MLVC_DEVICES; crash recovery must re-open the "
              "stripe set)",
              "-");
  try {
    args.parse(argc, argv);
  } catch (const Error& e) {
    std::cerr << e.what() << "\n" << args.usage();
    return 2;
  }

  try {
    // Flag beats env: --schedule and --devices become MLVC_SCHEDULE and
    // MLVC_DEVICES for this process and, through the inherited environment,
    // every forked child. Under --devices the victim's manifest makes the
    // stripe layout durable, so the recover child re-opens the same stripe
    // set even where a torn write left one device's file short.
    env::pin_flags(args);
    const std::string sched_arg = args.get_string("schedule", "bsp");
    if (!parse_schedule_policy(sched_arg.c_str(), &g_schedule)) {
      std::cerr << "unknown --schedule '" << sched_arg
                << "' (bsp | fifo | hub-degree | log-bytes)\n";
      return 2;
    }
    if (args.has("schedule")) g_child_flags = {"--schedule", sched_arg};
    const std::string mode = args.get_string("mode", "driver");
    if (mode != "driver") {
      return run_child_mode(mode, args.get_string("app", "bfs"),
                            args.get_string("workdir"),
                            args.get_string("out", "-"));
    }
    // The driver controls the fault schedule per child; ambient MLVC_FAULT_*
    // (e.g. from a CI fault-matrix job) must not leak into clean runs.
    for (const env::Var* var : kFaultVars) env::set(*var, nullptr);
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    if (args.get_flag("sweep")) {
      return run_sweep(seed,
                       static_cast<unsigned>(args.get_int("crash-points", 4)));
    }
    ssd::TempDir clean_dir("mlvc_crashclean");
    ssd::TempDir work("mlvc_crashwork");
    const std::string app = args.get_string("app", "bfs");
    const auto clean_values = clean_dir.path() / "clean.bin";
    if (spawn({"mlvc_crashtest", "--mode", "clean", "--app", app, "--workdir",
               work.path().string(), "--out", clean_values.string()},
              nullptr) != 0) {
      std::cerr << "clean reference run failed\n";
      return 1;
    }
    const auto result = crash_cycle(
        app, args.get_string("profile", "torn-page"), seed,
        static_cast<std::uint64_t>(args.get_int("crash-after", 25)),
        clean_values);
    return result.passed ? 0 : 1;
  } catch (const IoError& e) {
    std::cerr << "I/O error: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
