#include "metrics/json_export.hpp"

#include <iomanip>
#include <ostream>
#include <sstream>
#include <string_view>

namespace mlvc::metrics {

namespace {

void write_escaped(std::ostream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out << "\\u" << std::hex << std::setw(4) << std::setfill('0')
              << static_cast<int>(c) << std::dec << std::setfill(' ');
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

void write_io(std::ostream& out, const ssd::IoStatsSnapshot& io) {
  out << "{\"pages_read\":" << io.total_pages_read()
      << ",\"pages_written\":" << io.total_pages_written();
  for (const auto& f : ssd::kIoScalarFields) {
    out << ",\"" << f.key << "\":" << io.*f.member;
  }
  out << ",\"by_category\":{";
  bool first = true;
  for (unsigned c = 0; c < ssd::kNumIoCategories; ++c) {
    const auto& cat = io.categories[c];
    if (cat.pages_read + cat.pages_written == 0) continue;
    if (!first) out << ',';
    first = false;
    out << '"' << ssd::to_string(static_cast<ssd::IoCategory>(c)) << "\":";
    char sep = '{';
    for (const auto& f : ssd::kIoCategoryFields) {
      out << sep << '"' << f.key << "\":" << cat.*f.member;
      sep = ',';
    }
    out << '}';
  }
  out << "}}";
}

}  // namespace

std::uint64_t fnv1a_append(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

void write_json(const core::RunStats& stats, std::ostream& out) {
  out << std::setprecision(9);
  out << "{\"engine\":";
  write_escaped(out, stats.engine);
  out << ",\"app\":";
  write_escaped(out, stats.app);
  out << ",\"io_backend\":";
  write_escaped(out, stats.io_backend);
  out << ",\"schedule_policy\":";
  write_escaped(out, stats.schedule_policy);
  out << ",\"combine_placement\":";
  write_escaped(out, stats.combine_placement);
  out << ",\"num_devices\":" << stats.num_devices;
  out << ",\"direction\":";
  write_escaped(out, stats.direction);
  out << ",\"direction_fallback\":";
  write_escaped(out, stats.direction_fallback);
  if (stats.has_values_hash) {
    // Hex string: 64-bit values do not survive JSON number parsers.
    out << ",\"values_hash\":\"0x" << std::hex << stats.values_hash
        << std::dec << '"';
  }
  out << ",\"query\":{"
      << "\"id\":" << stats.query_id
      << ",\"cache_hit_pages\":" << stats.query_cache_hit_pages
      << ",\"cache_miss_pages\":" << stats.query_cache_miss_pages
      << ",\"cache_bypass_pages\":" << stats.query_cache_bypass_pages << '}';
  const core::SuperstepStats t = stats.totals();
  out << ",\"totals\":{"
      << "\"supersteps\":" << stats.supersteps.size()
      << ",\"pages_read\":" << t.io.total_pages_read()
      << ",\"pages_written\":" << t.io.total_pages_written()
      << ",\"physical_bytes_read\":" << t.io.total_bytes_read()
      << ",\"physical_bytes_written\":" << t.io.total_bytes_written()
      << ",\"logical_bytes_read\":" << t.io.total_logical_bytes_read()
      << ",\"logical_bytes_written\":" << t.io.total_logical_bytes_written()
      << ",\"messages\":" << t.messages_produced
      << ",\"modeled_storage_seconds\":" << t.modeled_storage_seconds
      << ",\"compute_seconds\":" << t.compute_wall_seconds
      << ",\"sort_group_seconds\":" << t.sort_group_seconds
      << ",\"groups_scatter\":" << t.groups_scatter
      << ",\"groups_comparison\":" << t.groups_comparison
      << ",\"scatter_flush_count\":" << t.scatter_flush_count
      << ",\"scatter_stall_seconds\":" << t.scatter_stall_seconds
      << ",\"log_records_folded\":" << t.log_records_folded
      << ",\"fold_seconds\":" << t.fold_seconds
      << ",\"fold_wide_intervals\":" << stats.fold_wide_intervals
      << ",\"io_wait_seconds\":" << t.io_wall_seconds
      << ",\"io_retries\":" << t.io.io_retry_count
      << ",\"io_giveups\":" << t.io.io_giveup_count
      << ",\"io_submit_batches\":" << t.io.submit_batches
      << ",\"sqe_coalesced_ops\":" << t.io.sqe_coalesced_ops
      << ",\"max_inflight_depth\":" << t.io.max_inflight_depth
      << ",\"torn_bytes_dropped\":" << t.torn_bytes_dropped
      << ",\"intervals_pulled\":" << t.intervals_pulled
      << ",\"log_bytes_avoided\":" << t.log_bytes_avoided
      << ",\"effective_rounds\":" << stats.effective_rounds()
      << ",\"intervals_scheduled\":" << t.intervals_scheduled
      << ",\"schedule_reorder_depth\":" << t.schedule_reorder_depth
      << ",\"ready_latency_seconds\":" << t.ready_latency_seconds
      << ",\"total_wall_seconds\":" << t.total_wall_seconds
      << ",\"modeled_total_seconds\":" << stats.modeled_total_seconds()
      << ",\"offthread_sort_seconds\":" << t.offthread_sort_seconds
      << ",\"modeled_work_seconds\":" << stats.modeled_work_seconds()
      << ",\"build_seconds\":" << stats.build_seconds << '}'
      << ",\"supersteps\":[";
  for (std::size_t i = 0; i < stats.supersteps.size(); ++i) {
    const auto& s = stats.supersteps[i];
    if (i) out << ',';
    out << "{\"superstep\":" << s.superstep;
    core::SuperstepStats::for_each_field(
        [&](std::string_view key, auto, const auto& v) {
          out << ",\"" << key << "\":" << v;
        },
        s);
    out << ",\"io\":";
    write_io(out, s.io);
    out << '}';
  }
  out << "]}";
}

std::string to_json(const core::RunStats& stats) {
  std::ostringstream os;
  write_json(stats, os);
  return os.str();
}

}  // namespace mlvc::metrics
