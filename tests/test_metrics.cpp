// Tests for the metrics layer: tables, CSV emission, summaries, speedup
// math, and JSON export.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "metrics/json_export.hpp"
#include "metrics/report.hpp"
#include "ssd/storage.hpp"

namespace mlvc::metrics {
namespace {

core::RunStats sample_stats() {
  core::RunStats stats;
  stats.engine = "MultiLogVC";
  stats.app = "bfs";
  for (Superstep s = 0; s < 3; ++s) {
    core::SuperstepStats step;
    step.superstep = s;
    step.active_vertices = 100 >> s;
    step.messages_consumed = s == 0 ? 0 : 50;
    step.messages_produced = 50;
    step.modeled_storage_seconds = 0.010;
    step.compute_wall_seconds = 0.005;
    step.io[ssd::IoCategory::kCsrColIdx].pages_read = 10;
    step.io[ssd::IoCategory::kMessageLog].pages_written = 4;
    step.io[ssd::IoCategory::kMessageLog].bytes_written = 4096;
    stats.supersteps.push_back(step);
  }
  return stats;
}

TEST(Metrics, SummaryContainsKeyNumbers) {
  const auto s = summarize(sample_stats());
  EXPECT_NE(s.find("MultiLogVC/bfs"), std::string::npos);
  EXPECT_NE(s.find("3 supersteps"), std::string::npos);
  EXPECT_NE(s.find("30 pages read"), std::string::npos);
}

TEST(Metrics, SpeedupAndPageRatio) {
  auto fast = sample_stats();
  auto slow = sample_stats();
  for (auto& s : slow.supersteps) {
    s.modeled_storage_seconds *= 4;
    s.compute_wall_seconds *= 4;
    s.io[ssd::IoCategory::kCsrColIdx].pages_read *= 3;
  }
  EXPECT_NEAR(speedup(slow, fast), 4.0, 1e-9);
  EXPECT_GT(page_ratio(slow, fast), 2.0);
}

TEST(Metrics, CsvWrittenWhenDirSet) {
  ssd::TempDir dir;
  Table t({"a", "b"});
  t.add_row({"1", "x"});
  t.add_row({"2", "y"});
  t.write_csv(dir.path().string(), "unit");
  std::ifstream in(dir.path() / "unit.csv");
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,x");
}

TEST(Metrics, CsvSkippedWhenDirEmpty) {
  Table t({"a"});
  t.add_row({"1"});
  EXPECT_NO_THROW(t.write_csv("", "unit"));
}

TEST(Metrics, TableRejectsRaggedRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

// A minimal JSON object walker (no JSON parser in the dependency set): the
// ordered members of one object, each value kept as its raw text. Scanning
// stops at the end of the input, so malformed JSON fails the comparison
// instead of reading out of bounds.
using Members = std::vector<std::pair<std::string, std::string_view>>;

std::size_t skip_string(std::string_view s, std::size_t i) {
  for (++i; i < s.size() && s[i] != '"'; ++i) {
    if (s[i] == '\\') ++i;
  }
  return i + 1;
}

std::size_t skip_value(std::string_view s, std::size_t i) {
  if (i < s.size() && s[i] == '"') return skip_string(s, i);
  int depth = 0;
  while (i < s.size()) {
    const char c = s[i];
    if (c == '"') {
      i = skip_string(s, i);
      continue;
    }
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']' || c == ',') {
      if (depth == 0) break;
      if (c != ',' && --depth == 0) return i + 1;
    }
    ++i;
  }
  return i;
}

Members members(std::string_view obj) {
  Members out;
  std::size_t i = 1;  // past '{'
  while (i < obj.size() && obj[i] == '"') {
    const std::size_t key_end = skip_string(obj, i);
    const std::size_t value_end = skip_value(obj, key_end + 1);
    if (value_end > obj.size()) break;
    out.emplace_back(std::string(obj.substr(i + 1, key_end - i - 2)),
                     obj.substr(key_end + 1, value_end - key_end - 1));
    i = value_end + 1;  // past ',' or the closing '}'
  }
  return out;
}

std::vector<std::string> keys(const Members& m) {
  std::vector<std::string> out;
  for (const auto& [key, value] : m) out.push_back(key);
  return out;
}

std::string_view value_of(const Members& m, std::string_view key) {
  for (const auto& [k, value] : m) {
    if (k == key) return value;
  }
  return {};
}

TEST(JsonExport, WellFormedAndComplete) {
  auto stats = sample_stats();
  stats.has_values_hash = true;  // the one optional key, pinned below too
  const auto json = to_json(stats);
  // Structural spot checks (no JSON parser in the dependency set).
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"engine\":\"MultiLogVC\""), std::string::npos);
  EXPECT_NE(json.find("\"app\":\"bfs\""), std::string::npos);
  EXPECT_NE(json.find("\"supersteps\":3"), std::string::npos);
  EXPECT_NE(json.find("\"pages_read\":30"), std::string::npos);
  EXPECT_NE(json.find("\"message_log\""), std::string::npos);
  EXPECT_NE(json.find("\"bytes_written\":4096"), std::string::npos);
  // Balanced braces and brackets.
  long braces = 0, brackets = 0;
  for (char c : json) {
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);

  // The schema, pinned key by key and in order: the top-level object,
  // totals, one superstep and its io object.
  const auto top = members(json);
  EXPECT_EQ(keys(top),
            (std::vector<std::string>{
                "engine", "app", "io_backend", "schedule_policy",
                "combine_placement", "num_devices", "direction",
                "direction_fallback", "values_hash", "query", "totals",
                "supersteps"}));
  EXPECT_EQ(keys(members(value_of(top, "totals"))),
            (std::vector<std::string>{
                "supersteps", "pages_read", "pages_written",
                "physical_bytes_read", "physical_bytes_written",
                "logical_bytes_read", "logical_bytes_written", "messages",
                "modeled_storage_seconds", "compute_seconds",
                "sort_group_seconds", "groups_scatter", "groups_comparison",
                "scatter_flush_count", "scatter_stall_seconds",
                "log_records_folded", "fold_seconds", "fold_wide_intervals",
                "io_wait_seconds", "io_retries", "io_giveups",
                "io_submit_batches", "sqe_coalesced_ops",
                "max_inflight_depth", "torn_bytes_dropped",
                "intervals_pulled", "log_bytes_avoided", "effective_rounds",
                "intervals_scheduled", "schedule_reorder_depth",
                "ready_latency_seconds", "total_wall_seconds",
                "modeled_total_seconds", "offthread_sort_seconds",
                "modeled_work_seconds", "build_seconds"}));
  const std::string_view steps = value_of(top, "supersteps");
  ASSERT_GT(steps.size(), 2u);
  const auto step = members(steps.substr(1, skip_value(steps, 1) - 1));
  EXPECT_EQ(keys(step),
            (std::vector<std::string>{
                "superstep", "active_vertices", "messages_consumed",
                "messages_produced", "edges_activated",
                "modeled_storage_seconds", "compute_wall_seconds",
                "sort_group_seconds", "offthread_sort_seconds",
                "groups_scatter", "groups_comparison",
                "scatter_flush_count", "scatter_stall_seconds",
                "log_records_folded", "fold_seconds", "io_wall_seconds",
                "total_wall_seconds", "torn_bytes_dropped",
                "intervals_scheduled", "schedule_reorder_depth",
                "ready_latency_seconds", "intervals_pulled",
                "log_bytes_avoided", "pages_touched", "pages_inefficient",
                "pages_inefficient_predicted", "edge_log_hits", "io"}));
  EXPECT_EQ(keys(members(value_of(step, "io"))),
            (std::vector<std::string>{
                "pages_read", "pages_written", "cache_hit_pages",
                "cache_miss_pages", "cache_evictions", "cache_bypass_pages",
                "cache_bytes_high_water", "io_retries", "io_giveups",
                "submit_batches", "sqe_coalesced_ops", "max_inflight_depth",
                "by_category"}));
}

TEST(RunStats, TotalsCombineEveryField) {
  // Two supersteps with a distinct value in every listed field (and in one
  // io counter and one io gauge).
  using Combine = core::SuperstepStats::Combine;
  core::RunStats stats;
  stats.supersteps.resize(2);
  auto& a = stats.supersteps[0];
  auto& b = stats.supersteps[1];
  int next = 1;
  core::SuperstepStats::for_each_field(
      [&](std::string_view, Combine, auto& x, auto& y) {
        x = next++;
        y = 100 * next++;
      },
      a, b);
  a.io[ssd::IoCategory::kMessageLog].pages_read = 3;
  b.io[ssd::IoCategory::kMessageLog].pages_read = 4;
  a.io.max_inflight_depth = 9;
  b.io.max_inflight_depth = 2;

  // totals() adds every field except schedule_reorder_depth, its one max.
  const core::SuperstepStats t = stats.totals();
  std::size_t fields = 0;
  core::SuperstepStats::for_each_field(
      [&](std::string_view key, Combine how, const auto& total,
          const auto& x, const auto& y) {
        ++fields;
        EXPECT_EQ(how == Combine::kMax, key == "schedule_reorder_depth")
            << key;
        EXPECT_EQ(total, how == Combine::kMax ? std::max(x, y) : x + y)
            << key;
      },
      t, a, b);
  EXPECT_EQ(fields, 26u);
  EXPECT_EQ(t.schedule_reorder_depth, b.schedule_reorder_depth);
  EXPECT_EQ(t.io[ssd::IoCategory::kMessageLog].pages_read, 7u);
  EXPECT_EQ(t.io.max_inflight_depth, 9u);

  // Every named view reads its totals() field.
  EXPECT_EQ(stats.total_pages_read(), t.io.total_pages_read());
  EXPECT_EQ(stats.total_pages_written(), t.io.total_pages_written());
  EXPECT_EQ(stats.total_pages(), t.io.total_pages());
  EXPECT_EQ(stats.modeled_storage_seconds(), t.modeled_storage_seconds);
  EXPECT_EQ(stats.compute_seconds(), t.compute_wall_seconds);
  EXPECT_EQ(stats.sort_group_seconds(), t.sort_group_seconds);
  EXPECT_EQ(stats.groups_scatter(), t.groups_scatter);
  EXPECT_EQ(stats.groups_comparison(), t.groups_comparison);
  EXPECT_EQ(stats.scatter_flush_count(), t.scatter_flush_count);
  EXPECT_EQ(stats.scatter_stall_seconds(), t.scatter_stall_seconds);
  EXPECT_EQ(stats.log_records_folded(), t.log_records_folded);
  EXPECT_EQ(stats.fold_seconds(), t.fold_seconds);
  EXPECT_EQ(stats.io_wait_seconds(), t.io_wall_seconds);
  EXPECT_EQ(stats.total_wall_seconds(), t.total_wall_seconds);
  EXPECT_EQ(stats.modeled_total_seconds(),
            a.modeled_total_seconds() + b.modeled_total_seconds());
  EXPECT_EQ(stats.offthread_sort_seconds(), t.offthread_sort_seconds);
  EXPECT_EQ(stats.modeled_work_seconds(),
            a.modeled_work_seconds() + b.modeled_work_seconds());
  EXPECT_EQ(stats.total_messages(), t.messages_produced);
  EXPECT_EQ(stats.torn_bytes_dropped(), t.torn_bytes_dropped);
  EXPECT_EQ(stats.effective_rounds(), 2u);
  EXPECT_EQ(stats.intervals_scheduled(), t.intervals_scheduled);
  EXPECT_EQ(stats.schedule_reorder_depth(), t.schedule_reorder_depth);
  EXPECT_EQ(stats.ready_latency_seconds(), t.ready_latency_seconds);
  EXPECT_EQ(stats.intervals_pulled(), t.intervals_pulled);
  EXPECT_EQ(stats.log_bytes_avoided(), t.log_bytes_avoided);
  EXPECT_EQ(stats.io_retries(), t.io.io_retry_count);
  EXPECT_EQ(stats.io_giveups(), t.io.io_giveup_count);
  EXPECT_EQ(stats.category_bytes(ssd::IoCategory::kMessageLog).pages_read,
            7u);
}

TEST(JsonExport, EscapesStrings) {
  core::RunStats stats;
  stats.engine = "weird\"name\\with\nnewline";
  stats.app = "x";
  const auto json = to_json(stats);
  EXPECT_NE(json.find("weird\\\"name\\\\with\\nnewline"), std::string::npos);
}

}  // namespace
}  // namespace mlvc::metrics
