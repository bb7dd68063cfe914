#include "metrics/report.hpp"

#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/format.hpp"

namespace mlvc::metrics {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  MLVC_CHECK_MSG(cells.size() == headers_.size(),
                 "row width " << cells.size() << " != header width "
                              << headers_.size());
  rows_.push_back(std::move(cells));
}

void Table::print() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) widths[c] = std::max(widths[c], row[c].size());
  }
  const auto line = [&](const std::vector<std::string>& cells) {
    std::cout << "| ";
    for (std::size_t c = 0; c < cells.size(); ++c) {
      std::cout << std::left << std::setw(static_cast<int>(widths[c]))
                << cells[c] << " | ";
    }
    std::cout << "\n";
  };
  line(headers_);
  std::cout << "|";
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    std::cout << std::string(widths[c] + 2, '-') << "|";
  }
  std::cout << "\n";
  for (const auto& row : rows_) line(row);
  std::cout.flush();
}

void Table::write_csv(const std::string& dir, const std::string& name) const {
  if (dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::ofstream out(std::filesystem::path(dir) / (name + ".csv"));
  const auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c) out << ',';
      out << cells[c];
    }
    out << '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
}

std::string csv_dir_from_env() {
  return env::get_string(env::kCsvDir).value_or(std::string{});
}

std::string summarize(const core::RunStats& stats) {
  const core::SuperstepStats t = stats.totals();
  std::ostringstream os;
  os << stats.engine << "/" << stats.app << ": "
     << stats.supersteps.size() << " supersteps, "
     << format_count(t.io.total_pages_read()) << " pages read, "
     << format_count(t.io.total_pages_written()) << " pages written, "
     << format_fixed(t.modeled_storage_seconds, 3) << "s storage + "
     << format_fixed(t.compute_wall_seconds, 3) << "s compute = "
     << format_fixed(stats.modeled_total_seconds(), 3) << "s";
  if (!stats.schedule_policy.empty() && stats.schedule_policy != "bsp") {
    os << " [schedule=" << stats.schedule_policy << ", "
       << format_count(t.intervals_scheduled) << " chains, reorder "
       << t.schedule_reorder_depth << "]";
  }
  if (!stats.io_backend.empty()) {
    os << " [io=" << stats.io_backend;
    if (stats.io_backend == "uring") {
      os << ", " << format_count(t.io.submit_batches) << " batches, "
         << format_count(t.io.sqe_coalesced_ops) << " coalesced, depth "
         << t.io.max_inflight_depth;
    }
    os << "]";
  }
  const std::uint64_t physical =
      t.io.total_bytes_read() + t.io.total_bytes_written();
  const std::uint64_t logical =
      t.io.total_logical_bytes_read() + t.io.total_logical_bytes_written();
  if (physical > 0 && logical > 0) {
    os << " [bytes: " << format_count(physical) << " on-disk / "
       << format_count(logical) << " logical, "
       << format_fixed(static_cast<double>(logical) /
                           static_cast<double>(physical),
                       2)
       << "x]";
  }
  return os.str();
}

double speedup(const core::RunStats& baseline,
               const core::RunStats& candidate) {
  const double c = candidate.modeled_total_seconds();
  return c <= 0 ? 0.0 : baseline.modeled_total_seconds() / c;
}

double page_ratio(const core::RunStats& baseline,
                  const core::RunStats& candidate) {
  const double c = static_cast<double>(candidate.total_pages());
  return c <= 0 ? 0.0 : static_cast<double>(baseline.total_pages()) / c;
}

void print_superstep_table(const core::RunStats& stats) {
  Table t({"superstep", "active", "msgs_in", "msgs_out", "pages_r", "pages_w",
           "storage_s", "compute_s"});
  for (const auto& s : stats.supersteps) {
    t.add_row({std::to_string(s.superstep), std::to_string(s.active_vertices),
               std::to_string(s.messages_consumed),
               std::to_string(s.messages_produced),
               std::to_string(s.io.total_pages_read()),
               std::to_string(s.io.total_pages_written()),
               format_fixed(s.modeled_storage_seconds, 4),
               format_fixed(s.compute_wall_seconds, 4)});
  }
  t.print();
}

}  // namespace mlvc::metrics
