#include "trace/export.hpp"

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>

#include "trace/json_util.hpp"
#include "trace/log.hpp"

namespace lassm::trace {

namespace {

void write_args(std::ostream& os, const std::vector<Arg>& args) {
  os << "{";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i != 0) os << ",";
    json_escape(os, args[i].key);
    os << ":";
    if (args[i].is_num) {
      json_number(os, args[i].num);
    } else {
      json_escape(os, args[i].str);
    }
  }
  os << "}";
}

}  // namespace

void write_chrome_trace(std::ostream& os, const Tracer& tracer) {
  const std::vector<TrackInfo> tracks = tracer.tracks();
  const std::vector<Event> events = tracer.events();

  // pid per distinct process (first-seen order), tid per track within it.
  std::map<std::string, int> pids;
  std::vector<int> track_pid(tracks.size());
  std::vector<int> track_tid(tracks.size());
  std::map<std::string, int> next_tid;
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    auto [it, fresh] =
        pids.emplace(tracks[i].process, static_cast<int>(pids.size()) + 1);
    (void)fresh;
    track_pid[i] = it->second;
    track_tid[i] = next_tid[tracks[i].process]++;
  }

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };

  for (const auto& [process, pid] : pids) {
    sep();
    os << "{\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":";
    json_escape(os, process);
    os << "}}";
  }
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    sep();
    os << "{\"ph\":\"M\",\"pid\":" << track_pid[i] << ",\"tid\":"
       << track_tid[i] << ",\"name\":\"thread_name\",\"args\":{\"name\":";
    json_escape(os, tracks[i].thread);
    os << "}}";
    sep();
    os << "{\"ph\":\"M\",\"pid\":" << track_pid[i] << ",\"tid\":"
       << track_tid[i]
       << ",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":"
       << track_tid[i] << "}}";
  }

  for (const Event& e : events) {
    if (e.track >= tracks.size()) continue;  // defensively skip bad ids
    sep();
    os << "{\"ph\":\"" << (e.kind == Event::Kind::kComplete ? "X" : "i")
       << "\",\"pid\":" << track_pid[e.track] << ",\"tid\":"
       << track_tid[e.track] << ",\"name\":";
    json_escape(os, e.name);
    os << ",\"cat\":\"" << e.cat << "\",\"ts\":";
    json_number(os, e.ts_us);
    if (e.kind == Event::Kind::kComplete) {
      os << ",\"dur\":";
      json_number(os, e.dur_us);
    } else {
      os << ",\"s\":\"t\"";
    }
    if (!e.args.empty()) {
      os << ",\"args\":";
      write_args(os, e.args);
    }
    os << "}";
  }
  os << "\n]}\n";
}

namespace {

// The trace path may point into a results directory no writer has created
// yet (a traced bench exports before its CSV writer runs).
std::ofstream open_for_write(const std::string& path) {
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
  }
  return std::ofstream(path);
}

/// Shared tail of the file writers: flush, then report any accumulated
/// stream failure (open succeeded but a write or the flush did not) as a
/// typed error naming the path.
Status finish_write(std::ofstream& out, const std::string& path) {
  out.flush();
  if (!out) {
    return Status(ErrorCode::kIoError, "write failed (disk full?)",
                  SourceContext{path});
  }
  return Status::ok();
}

}  // namespace

Status write_chrome_trace_file(const std::string& path,
                               const Tracer& tracer) {
  std::ofstream out = open_for_write(path);
  if (!out) {
    return Status(ErrorCode::kIoError, "cannot open for writing",
                  SourceContext{path});
  }
  write_chrome_trace(out, tracer);
  return finish_write(out, path);
}

void write_metrics_json(std::ostream& os, const MetricsSnapshot& snapshot) {
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : snapshot.counters) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    json_escape(os, name);
    os << ": " << v;
  }
  os << "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : snapshot.gauges) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    json_escape(os, name);
    os << ": ";
    json_number(os, v);
  }
  os << "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snapshot.histograms) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    json_escape(os, name);
    os << ": {\"bounds\": [";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      os << (i ? "," : "") << h.bounds[i];
    }
    os << "], \"counts\": [";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      os << (i ? "," : "") << h.counts[i];
    }
    os << "], \"count\": " << h.count << ", \"sum\": " << h.sum
       << ", \"mean\": ";
    json_number(os, h.mean());
    os << ", \"p50\": " << h.quantile_bound(0.5)
       << ", \"p90\": " << h.quantile_bound(0.9)
       << ", \"p99\": " << h.quantile_bound(0.99) << "}";
  }
  os << "\n  }\n}\n";
}

Status write_metrics_json_file(const std::string& path,
                               const MetricsSnapshot& snapshot) {
  std::ofstream out = open_for_write(path);
  if (!out) {
    return Status(ErrorCode::kIoError, "cannot open for writing",
                  SourceContext{path});
  }
  write_metrics_json(out, snapshot);
  return finish_write(out, path);
}

TraceCli parse_trace_cli(int& argc, char** argv) {
  TraceCli cli;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    std::string* dest = nullptr;
    if (std::strcmp(argv[i], "--trace") == 0) {
      dest = &cli.trace_path;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      dest = &cli.metrics_path;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      dest = &cli.profile_path;
    } else if (std::strcmp(argv[i], "--log-level") == 0) {
      dest = &cli.log_level;
    } else if (std::strcmp(argv[i], "--flight-dir") == 0) {
      dest = &cli.flight_dir;
    }
    if (dest != nullptr && i + 1 < argc) {
      *dest = argv[i + 1];
      ++i;
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
  if (cli.trace_path.empty()) {
    if (const char* env = std::getenv("LASSM_TRACE"); env != nullptr &&
        *env != '\0') {
      cli.trace_path = env;
    }
  }

  // Apply the logging half here so every example/bench gets consistent
  // behaviour: env first (LASSM_LOG / LASSM_FLIGHT_DIR), explicit flags
  // win over env.
  log::Logger& logger = log::Logger::instance();
  logger.configure_from_env();
  if (!cli.log_level.empty()) {
    logger.set_level(log::parse_level(cli.log_level, logger.level()));
  }
  if (!cli.flight_dir.empty()) {
    logger.set_flight_dir(cli.flight_dir);
  }
  return cli;
}

}  // namespace lassm::trace
