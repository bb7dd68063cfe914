// End-to-end integration test of the CLI tools: generate → inspect →
// convert → run, exercising the same binaries a user would.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "graph/generators.hpp"
#include "graph/stored_csr.hpp"
#include "ssd/storage.hpp"
#include "tests/test_util.hpp"

namespace mlvc {
namespace {

int run_tool(const std::string& command) {
  return std::system((command + " > /dev/null 2>&1").c_str());
}

TEST(Tools, GenerateInspectRunPipeline) {
  ssd::TempDir dir;
  const std::string graph = (dir.path() / "g.mlvc").string();

  ASSERT_EQ(run_tool(std::string(MLVC_TOOL_GEN) +
                     " --type chain --vertices 500 --out " + graph),
            0);
  EXPECT_EQ(run_tool(std::string(MLVC_TOOL_INFO) + " --graph " + graph), 0);

  const std::string json = (dir.path() / "stats.json").string();
  ASSERT_EQ(run_tool(std::string(MLVC_TOOL_RUN) + " --graph " + graph +
                     " --app bfs --source 0 --budget 1M --page-size 4K" +
                     " --supersteps 600 --json " + json),
            0);
  std::ifstream in(json);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"engine\":\"MultiLogVC\""), std::string::npos);
  EXPECT_NE(buf.str().find("\"app\":\"bfs\""), std::string::npos);
}

TEST(Tools, ConvertSnapToBinary) {
  ssd::TempDir dir;
  const std::string snap = (dir.path() / "edges.txt").string();
  {
    std::ofstream out(snap);
    out << "# tiny graph\n0 1\n1 2\n2 3\n";
  }
  const std::string graph = (dir.path() / "g.mlvc").string();
  ASSERT_EQ(run_tool(std::string(MLVC_TOOL_CONVERT) + " --in " + snap +
                     " --out " + graph),
            0);
  EXPECT_EQ(run_tool(std::string(MLVC_TOOL_RUN) + " --graph " + graph +
                     " --app wcc --budget 1M --page-size 4K"),
            0);
}

TEST(Tools, ConvertStoreBetweenFormats) {
  // Build a v2 stored graph, then drive mlvc_convert over the directory:
  // --stats must report the format, and a v2 -> v1 -> v2 conversion chain
  // must preserve the adjacency exactly.
  ssd::TempDir dir("convert_store");
  graph::RmatParams params;
  params.scale = 9;
  params.edge_factor = 4;
  const auto csr = graph::CsrGraph::from_edge_list(generate_rmat(params));
  const auto intervals = graph::VertexIntervals::uniform(csr.num_vertices(), 128);
  const std::string src_dir = (dir.path() / "v2").string();
  {
    ssd::Storage storage(src_dir);
    graph::StoredCsrGraph stored(storage, "g", csr, intervals,
                                 {.format = OnDiskFormat::kV2});
  }

  const std::string stats_log = (dir.path() / "stats.log").string();
  ASSERT_EQ(std::system((std::string(MLVC_TOOL_CONVERT) + " --store " +
                         src_dir + " --stats > " + stats_log + " 2>&1")
                            .c_str()),
            0);
  {
    std::ifstream in(stats_log);
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_NE(buf.str().find("format v2"), std::string::npos) << buf.str();
  }

  const std::string v1_dir = (dir.path() / "v1").string();
  ASSERT_EQ(run_tool(std::string(MLVC_TOOL_CONVERT) + " --store " + src_dir +
                     " --out-store " + v1_dir + " --format v1"),
            0);
  const std::string v2_dir = (dir.path() / "v2_again").string();
  ASSERT_EQ(run_tool(std::string(MLVC_TOOL_CONVERT) + " --store " + v1_dir +
                     " --out-store " + v2_dir + " --format v2"),
            0);

  for (const auto& [path, format] :
       {std::pair{v1_dir, OnDiskFormat::kV1}, {v2_dir, OnDiskFormat::kV2}}) {
    ssd::Storage storage(path);
    auto reopened = graph::StoredCsrGraph::open(storage, "g");
    ASSERT_EQ(reopened->format(), format);
    ASSERT_EQ(reopened->num_edges(), csr.num_edges());
    for (IntervalId i = 0; i < intervals.count(); ++i) {
      const EdgeIndex edges = reopened->interval_edge_count(i);
      std::vector<VertexId> got(edges);
      if (edges > 0) reopened->read_adjacency(i, 0, edges, got);
      std::vector<VertexId> want;
      for (VertexId v = intervals.begin(i); v < intervals.end(i); ++v) {
        const auto nbrs = csr.neighbors(v);
        want.insert(want.end(), nbrs.begin(), nbrs.end());
      }
      ASSERT_EQ(got, want) << "interval " << i << " of " << path;
    }
  }

  // A bogus store directory must fail cleanly.
  EXPECT_NE(run_tool(std::string(MLVC_TOOL_CONVERT) + " --store " +
                     (dir.path() / "nope").string() + " --stats"),
            0);
}

TEST(Tools, BadInvocationsFailCleanly) {
  // Unknown option, missing required arg, unknown app: nonzero exit, no
  // crash.
  EXPECT_NE(run_tool(std::string(MLVC_TOOL_GEN) + " --bogus 1"), 0);
  EXPECT_NE(run_tool(std::string(MLVC_TOOL_INFO)), 0);
  EXPECT_NE(run_tool(std::string(MLVC_TOOL_RUN) +
                     " --graph /nonexistent --app bfs"),
            0);
}

TEST(Tools, CrashtestSingleCycleRecoversBfs) {
  // One victim/recover cycle: the child is killed at an injected write with
  // a torn trailing page, recovery resumes from the atomic checkpoint, and
  // the recovered vertex values must equal a clean run's.
  EXPECT_EQ(run_tool(std::string(MLVC_TOOL_CRASHTEST) +
                     " --profile torn-page --seed 11 --crash-after 25"),
            0);
}

TEST(Tools, ServeMixedWorkloadVerifies) {
  // Daemon smoke test: many concurrent mixed queries over one shared graph,
  // with the deterministic ones re-run serially and hash-compared.
  ssd::TempDir dir;
  const std::string graph = (dir.path() / "g.mlvc").string();
  ASSERT_EQ(run_tool(std::string(MLVC_TOOL_GEN) +
                     " --type rmat --scale 9 --edge-factor 6 --out " + graph),
            0);
  const std::string log = (dir.path() / "serve.log").string();
  ASSERT_EQ(std::system((std::string(MLVC_TOOL_SERVE) + " --graph " + graph +
                         " --random 40 --concurrency 8 --verify 1" +
                         " --budget 4M --pool 64M --cache 256K" +
                         " --page-size 4K > " + log + " 2>&1")
                            .c_str()),
            0);
  std::ifstream in(log);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("(0 failed"), std::string::npos) << buf.str();
  EXPECT_NE(buf.str().find("0 mismatches"), std::string::npos) << buf.str();
}

TEST(Tools, ServeScriptModeAndBadSpecs) {
  ssd::TempDir dir;
  const std::string graph = (dir.path() / "g.mlvc").string();
  ASSERT_EQ(run_tool(std::string(MLVC_TOOL_GEN) +
                     " --type chain --vertices 300 --out " + graph),
            0);
  const std::string script = (dir.path() / "queries.txt").string();
  {
    std::ofstream out(script);
    out << "# mixed hand-written workload\n"
        << "bfs 0\nbfs 123\nwcc\npagerank\nrw 7\n";
  }
  EXPECT_EQ(run_tool(std::string(MLVC_TOOL_SERVE) + " --graph " + graph +
                     " --script " + script +
                     " --concurrency 4 --verify 1 --budget 4M --page-size 4K"),
            0);
  // Unknown app name and out-of-range source must fail cleanly, not crash.
  {
    std::ofstream out(script);
    out << "zork 1\n";
  }
  EXPECT_NE(run_tool(std::string(MLVC_TOOL_SERVE) + " --graph " + graph +
                     " --script " + script),
            0);
  {
    std::ofstream out(script);
    out << "bfs 99999999\n";
  }
  EXPECT_NE(run_tool(std::string(MLVC_TOOL_SERVE) + " --graph " + graph +
                     " --script " + script),
            0);
}

TEST(Tools, RunScheduledPrdeltaReportsPolicy) {
  // mlvc_run end-to-end over the scheduled async path: delta-PageRank under
  // hub-degree ordering, with the resolved policy surfaced in the JSON.
  ssd::TempDir dir;
  const std::string graph = (dir.path() / "g.mlvc").string();
  ASSERT_EQ(run_tool(std::string(MLVC_TOOL_GEN) +
                     " --type rmat --scale 9 --edge-factor 6 --out " + graph),
            0);
  const std::string json = (dir.path() / "stats.json").string();
  ASSERT_EQ(run_tool(std::string(MLVC_TOOL_RUN) + " --graph " + graph +
                     " --app prdelta --model async --schedule hub-degree" +
                     " --budget 1M --page-size 4K --supersteps 100 --json " +
                     json),
            0);
  std::ifstream in(json);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"app\":\"pagerank_delta\""), std::string::npos);
  EXPECT_NE(buf.str().find("\"schedule_policy\":\"hub-degree\""),
            std::string::npos);
  // An unknown policy must fail cleanly, not fall back silently.
  EXPECT_NE(run_tool(std::string(MLVC_TOOL_RUN) + " --graph " + graph +
                     " --app prdelta --schedule zork"),
            0);
}

TEST(Tools, ServeMixedSchedulePolicies) {
  // One shared RuntimeContext serving BSP queries next to async scheduled
  // ones: the schedule= suffix is per-query, and the deterministic BSP
  // queries still verify against their serial re-runs.
  ssd::TempDir dir;
  const std::string graph = (dir.path() / "g.mlvc").string();
  ASSERT_EQ(run_tool(std::string(MLVC_TOOL_GEN) +
                     " --type rmat --scale 9 --edge-factor 6 --out " + graph),
            0);
  const std::string script = (dir.path() / "queries.txt").string();
  {
    std::ofstream out(script);
    out << "bfs 0\n"
        << "prdelta\n"
        << "prdelta schedule=hub-degree\n"
        << "wcc schedule=fifo\n"
        << "sssp 3 schedule=log-bytes\n"
        << "pagerank\n";
  }
  const std::string log = (dir.path() / "serve.log").string();
  ASSERT_EQ(std::system((std::string(MLVC_TOOL_SERVE) + " --graph " + graph +
                         " --script " + script +
                         " --concurrency 4 --verify 1 --budget 4M" +
                         " --page-size 4K > " + log + " 2>&1")
                            .c_str()),
            0);
  std::ifstream in(log);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("(0 failed"), std::string::npos) << buf.str();
  EXPECT_NE(buf.str().find("0 mismatches"), std::string::npos) << buf.str();
  // A malformed suffix must be rejected at parse time, not at run time.
  {
    std::ofstream out(script);
    out << "bfs 0 schedule=zork\n";
  }
  EXPECT_NE(run_tool(std::string(MLVC_TOOL_SERVE) + " --graph " + graph +
                     " --script " + script),
            0);
}

TEST(Tools, RunFlagsBeatEnv) {
  // One precedence for every table flag: the flag the user gives beats its
  // MLVC_* variable, which beats the code default.
  ssd::TempDir dir;
  const std::string graph = (dir.path() / "g.mlvc").string();
  ASSERT_EQ(run_tool(std::string(MLVC_TOOL_GEN) +
                     " --type rmat --scale 9 --edge-factor 6 --out " + graph),
            0);
  const bool uring = ssd::shared_io_backend_probe().uring_available;
  ScopedEnv backend("MLVC_IO_BACKEND", "threadpool");
  ScopedEnv schedule("MLVC_SCHEDULE", "log-bytes");
  // The run would throw on this value if it read it instead of --io-depth.
  ScopedEnv depth("MLVC_URING_DEPTH", "junk");
  const std::string json = (dir.path() / "stats.json").string();
  ASSERT_EQ(run_tool(std::string(MLVC_TOOL_RUN) + " --graph " + graph +
                     " --app bfs --budget 1M --page-size 4K" +
                     " --schedule hub-degree --io-depth 8" +
                     (uring ? " --io-backend uring" : "") + " --json " + json),
            0);
  std::ifstream in(json);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string out = buf.str();
  // The run reports the policy it used: the flag's, not the variable's.
  EXPECT_NE(out.find("\"schedule_policy\":\"hub-degree\""), std::string::npos)
      << out;
  if (uring) {
    EXPECT_NE(out.find("\"io_backend\":\"uring\""), std::string::npos) << out;
  }
}

TEST(Tools, EveryAppRunsOnEveryEngine) {
  ssd::TempDir dir;
  const std::string graph = (dir.path() / "g.mlvc").string();
  ASSERT_EQ(run_tool(std::string(MLVC_TOOL_GEN) +
                     " --type rmat --scale 8 --edge-factor 4 --out " + graph),
            0);
  for (const char* engine : {"mlvc", "graphchi", "grafboost"}) {
    for (const char* app : {"bfs", "pagerank", "cdlp", "coloring", "mis",
                            "rw", "kcore", "wcc", "sssp"}) {
      // GraphChi cannot run weight-requiring apps (sssp) by design.
      if (std::string(engine) == "graphchi" && std::string(app) == "sssp") {
        continue;
      }
      EXPECT_EQ(run_tool(std::string(MLVC_TOOL_RUN) + " --graph " + graph +
                         " --app " + app + " --engine " + engine +
                         " --budget 1M --page-size 4K --supersteps 10"),
                0)
          << engine << "/" << app;
    }
  }
}

}  // namespace
}  // namespace mlvc
