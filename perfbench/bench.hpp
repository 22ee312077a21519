#pragma once

// Shared pieces of the host wall-time benchmark: run settings, the report
// it prints, output digests, order statistics and the span log that the
// traced runs record around every call into a layer's public functions.

#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Set-ups per run. setup_s is their median, so work moved into set-up
/// shows without one slow start deciding the number.
inline constexpr std::size_t kSetups = 15;

/// One benchmark run's settings, from the command line.
struct Settings {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured wall time per run
  bool trace = false;     ///< the traced per-layer run instead of end to end
  unsigned threads = 1;   ///< pool workers: the host's hardware threads
  bool tiny = false;      ///< self-check sizes
  /// Recorded output digest for (workload, seed); without one, outputs are
  /// compared against a 1-thread pass of the same inputs.
  std::optional<std::uint64_t> golden;
  std::string trace_out;  ///< Chrome trace path of a traced run ("" = none)
  /// Host, build and input facts stamped on every result and trace.
  std::vector<std::pair<std::string, std::string>> provenance;
};

/// What one run prints: operations attempted and failed, and its metrics.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> metrics;
  /// Facts about the run that are not metrics (digests, sample counts,
  /// per-layer self-time shares); printed on the provenance line.
  std::vector<std::pair<std::string, std::string>> notes;

  void metric(std::string name, double value) {
    metrics.emplace_back(std::move(name), value);
  }
  void note(std::string key, std::string value) {
    notes.emplace_back(std::move(key), std::move(value));
  }
  /// Counts one operation, failed when its output digest is wrong.
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  bool correct() const { return attempted > 0 && failed == 0; }
};

/// FNV-1a over the fields of an output; two runs agree exactly when every
/// digested field agrees bit for bit.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (char c : s) byte(static_cast<unsigned char>(c));
  }
  std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string hex(std::uint64_t v);

/// Linear-interpolated quantile (0 for an empty sample).
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Peak resident set of this process in MiB.
double peak_rss_mb();

/// Spans recorded by the benchmark's own code: a name, start, end, parent
/// and timeline row each. Kept in memory and written once, at exit, as a
/// Chrome trace. Thread-safe: the service's client threads record into it.
class SpanLog {
 public:
  SpanLog();

  /// Opens a span under `parent` (-1 = a root) on timeline row `track`.
  int begin(std::string name, int parent, std::uint32_t track = 0);
  void end(int id);

  double seconds(int id) const;
  /// Seconds of `id` not covered by any of its child spans.
  double self_seconds(int id) const;
  /// Per span name, summed duration of every span below `root`.
  std::map<std::string, double> totals_under(int root) const;
  /// Per span name, summed self time of `root` and every span below it.
  std::map<std::string, double> self_under(int root) const;

  /// Writes every span in the repository's Chrome trace format, with
  /// `meta` attached to a provenance instant event.
  bool write_chrome(
      const std::string& path,
      const std::vector<std::pair<std::string, std::string>>& meta) const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    std::uint32_t track = 0;
    double t0 = 0.0;  ///< seconds since the log's epoch
    double t1 = -1.0;
  };
  std::vector<int> descendants(int root) const;

  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Closes its span on scope exit.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, int parent,
             std::uint32_t track = 0)
      : log_(log), id_(log.begin(std::move(name), parent, track)) {}
  ~ScopedSpan() { log_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

/// Deterministic layer counts a traced job adds up (keyed by metric name).
using Counts = std::map<std::string, double>;

/// A workload made of whole jobs: the read pipelines and the kernel grid.
class BatchWorkload {
 public:
  virtual ~BatchWorkload() = default;

  /// Generates the inputs from the seed and starts any pool the jobs
  /// share. With `spans`, records each part under `parent`.
  virtual void setup(SpanLog* spans, int parent) = 0;

  struct Output {
    std::uint64_t result = 0;  ///< contigs, extensions, modelled results
    /// Entry-point-only modelled accounting (message traffic); the traced
    /// composition does not reproduce it.
    std::uint64_t extra = 0;
  };
  /// One job through the public entry point, untraced.
  virtual Output run(unsigned threads) = 0;
  /// The same job composed from the layers' public calls, each wrapped in
  /// a span below `parent`; returns the result digest, which must equal
  /// run()'s.
  virtual std::uint64_t run_traced(SpanLog& spans, int parent,
                                   unsigned threads, Counts& counts) = 0;
};

std::unique_ptr<BatchWorkload> make_reads_workload(const Settings& s,
                                                   unsigned ranks);
std::unique_ptr<BatchWorkload> make_grid_workload(const Settings& s);

/// The end-to-end run of `w`; set-ups are timed on `probe`, a second
/// instance of the same workload.
Report run_batch(BatchWorkload& w, BatchWorkload& probe, const Settings& s);
Report run_batch_traced(BatchWorkload& w, const Settings& s);
Report run_service(const Settings& s);

}  // namespace perfbench
