#pragma once

#include <iosfwd>
#include <string>

#include "resilience/status.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

/// Exporters for the observability subsystem.
namespace lassm::trace {

/// Writes the tracer's contents as Chrome trace-event JSON (the
/// "traceEvents" object format): metadata events naming every process/
/// thread track, then one "X" (complete) or "i" (instant) event per
/// recorded span. The output opens directly in ui.perfetto.dev and in
/// chrome://tracing.
void write_chrome_trace(std::ostream& os, const Tracer& tracer);

/// write_chrome_trace to `path`. Returns kIoError (never throws) when the
/// file cannot be opened or the write/flush fails — a full disk is
/// reported, not swallowed. Status converts to bool (true == ok), so
/// `if (write_chrome_trace_file(...))` call sites read unchanged.
Status write_chrome_trace_file(const std::string& path,
                               const Tracer& tracer);

/// Writes a metrics snapshot as JSON: {"counters": {...}, "gauges": {...},
/// "histograms": {name: {"bounds": [...], "counts": [...], "count": n,
/// "sum": n, "mean": x, "p50": b, "p90": b, "p99": b}}}.
void write_metrics_json(std::ostream& os, const MetricsSnapshot& snapshot);
/// Same I/O contract as write_chrome_trace_file.
Status write_metrics_json_file(const std::string& path,
                               const MetricsSnapshot& snapshot);

/// Standard observability CLI of the example binaries: strips
/// `--trace <path>`, `--metrics <path>`, `--profile <path>`,
/// `--log-level <level>` and `--flight-dir <dir>` from argv (compacting it
/// and adjusting argc so positional arguments keep working). Fallbacks:
/// LASSM_TRACE for the trace path, LASSM_LOG for the log level,
/// LASSM_FLIGHT_DIR for the flight-recorder dump directory.
///
/// parse_trace_cli also APPLIES the logging options: it configures the
/// process logger's level (default warn) and flight directory, so callers
/// only act on the path fields.
struct TraceCli {
  std::string trace_path;    ///< Chrome trace JSON destination ("" = off)
  std::string metrics_path;  ///< metrics snapshot destination ("" = off)
  std::string profile_path;  ///< attribution profile_report stem ("" = off)
  std::string log_level;     ///< level name as given ("" = default warn)
  std::string flight_dir;    ///< flight-recorder dump directory ("" = off)
  bool enabled() const noexcept {
    return !trace_path.empty() || !metrics_path.empty() ||
           !profile_path.empty();
  }
};
TraceCli parse_trace_cli(int& argc, char** argv);

}  // namespace lassm::trace
