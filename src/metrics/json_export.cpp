#include "metrics/json_export.hpp"

#include <iomanip>
#include <ostream>
#include <sstream>

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
      << ",\"pages_written\":" << io.total_pages_written()
      << ",\"cache_hit_pages\":" << io.cache_hit_pages
      << ",\"cache_miss_pages\":" << io.cache_miss_pages
      << ",\"cache_evictions\":" << io.cache_evictions
      << ",\"cache_bypass_pages\":" << io.cache_bypass_pages
      << ",\"cache_bytes_high_water\":" << io.cache_bytes_high_water
      << ",\"io_retries\":" << io.io_retry_count
      << ",\"io_giveups\":" << io.io_giveup_count
      << ",\"submit_batches\":" << io.submit_batches
      << ",\"sqe_coalesced_ops\":" << io.sqe_coalesced_ops
      << ",\"max_inflight_depth\":" << io.max_inflight_depth
      << ",\"by_category\":{";
  bool first = true;
  for (unsigned c = 0; c < ssd::kNumIoCategories; ++c) {
    const auto& cat = io.categories[c];
    if (cat.pages_read + cat.pages_written == 0) continue;
    if (!first) out << ',';
    first = false;
    out << '"' << ssd::to_string(static_cast<ssd::IoCategory>(c))
        << "\":{\"pages_read\":" << cat.pages_read
        << ",\"pages_written\":" << cat.pages_written
        << ",\"bytes_read\":" << cat.bytes_read
        << ",\"bytes_written\":" << cat.bytes_written
        << ",\"logical_bytes_read\":" << cat.logical_bytes_read
        << ",\"logical_bytes_written\":" << cat.logical_bytes_written << '}';
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
  out << ",\"totals\":{"
      << "\"supersteps\":" << stats.supersteps.size()
      << ",\"pages_read\":" << stats.total_pages_read()
      << ",\"pages_written\":" << stats.total_pages_written()
      << ",\"physical_bytes_read\":" << stats.physical_bytes_read()
      << ",\"physical_bytes_written\":" << stats.physical_bytes_written()
      << ",\"logical_bytes_read\":" << stats.logical_bytes_read()
      << ",\"logical_bytes_written\":" << stats.logical_bytes_written()
      << ",\"messages\":" << stats.total_messages()
      << ",\"modeled_storage_seconds\":" << stats.modeled_storage_seconds()
      << ",\"compute_seconds\":" << stats.compute_seconds()
      << ",\"sort_group_seconds\":" << stats.sort_group_seconds()
      << ",\"groups_scatter\":" << stats.groups_scatter()
      << ",\"groups_comparison\":" << stats.groups_comparison()
      << ",\"scatter_flush_count\":" << stats.scatter_flush_count()
      << ",\"scatter_stall_seconds\":" << stats.scatter_stall_seconds()
      << ",\"log_records_folded\":" << stats.log_records_folded()
      << ",\"fold_seconds\":" << stats.fold_seconds()
      << ",\"fold_wide_intervals\":" << stats.fold_wide_intervals
      << ",\"io_wait_seconds\":" << stats.io_wait_seconds()
      << ",\"io_retries\":" << stats.io_retries()
      << ",\"io_giveups\":" << stats.io_giveups()
      << ",\"io_submit_batches\":" << stats.io_submit_batches()
      << ",\"sqe_coalesced_ops\":" << stats.sqe_coalesced_ops()
      << ",\"max_inflight_depth\":" << stats.max_inflight_depth()
      << ",\"torn_bytes_dropped\":" << stats.torn_bytes_dropped()
      << ",\"intervals_pulled\":" << stats.intervals_pulled()
      << ",\"log_bytes_avoided\":" << stats.log_bytes_avoided()
      << ",\"effective_rounds\":" << stats.effective_rounds()
      << ",\"intervals_scheduled\":" << stats.intervals_scheduled()
      << ",\"schedule_reorder_depth\":" << stats.schedule_reorder_depth()
      << ",\"ready_latency_seconds\":" << stats.ready_latency_seconds()
      << ",\"total_wall_seconds\":" << stats.total_wall_seconds()
      << ",\"modeled_total_seconds\":" << stats.modeled_total_seconds()
      << ",\"offthread_sort_seconds\":" << stats.offthread_sort_seconds()
      << ",\"modeled_work_seconds\":" << stats.modeled_work_seconds()
      << ",\"build_seconds\":" << stats.build_seconds << '}'
      << ",\"supersteps\":[";
  for (std::size_t i = 0; i < stats.supersteps.size(); ++i) {
    const auto& s = stats.supersteps[i];
    if (i) out << ',';
    out << "{\"superstep\":" << s.superstep
        << ",\"active_vertices\":" << s.active_vertices
        << ",\"messages_consumed\":" << s.messages_consumed
        << ",\"messages_produced\":" << s.messages_produced
        << ",\"edges_activated\":" << s.edges_activated
        << ",\"modeled_storage_seconds\":" << s.modeled_storage_seconds
        << ",\"compute_wall_seconds\":" << s.compute_wall_seconds
        << ",\"sort_group_seconds\":" << s.sort_group_seconds
        << ",\"groups_scatter\":" << s.groups_scatter
        << ",\"groups_comparison\":" << s.groups_comparison
        << ",\"scatter_flush_count\":" << s.scatter_flush_count
        << ",\"scatter_stall_seconds\":" << s.scatter_stall_seconds
        << ",\"log_records_folded\":" << s.log_records_folded
        << ",\"fold_seconds\":" << s.fold_seconds
        << ",\"io_wall_seconds\":" << s.io_wall_seconds
        << ",\"total_wall_seconds\":" << s.total_wall_seconds
        << ",\"torn_bytes_dropped\":" << s.torn_bytes_dropped
        << ",\"intervals_scheduled\":" << s.intervals_scheduled
        << ",\"schedule_reorder_depth\":" << s.schedule_reorder_depth
        << ",\"ready_latency_seconds\":" << s.ready_latency_seconds
        << ",\"intervals_pulled\":" << s.intervals_pulled
        << ",\"log_bytes_avoided\":" << s.log_bytes_avoided
        << ",\"pages_touched\":" << s.pages_touched
        << ",\"pages_inefficient\":" << s.pages_inefficient
        << ",\"pages_inefficient_predicted\":"
        << s.pages_inefficient_predicted
        << ",\"edge_log_hits\":" << s.edge_log_hits << ",\"io\":";
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
