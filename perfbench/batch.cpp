// Run loops for the batch workloads: the untraced end-to-end run and the
// traced per-layer run.

#include <cstdio>
#include <string>

#include "bench.hpp"

namespace perfbench {
namespace {

std::uint64_t full_digest(const BatchWorkload::Output& o) {
  Digest d;
  d.add(o.result);
  d.add(o.extra);
  return d.value();
}

/// Span names whose 1-thread over pool-thread time is reported as
/// `<name>_speedup_4t`.
constexpr const char* kScaled[] = {"pipeline.count", "pipeline.dbg",
                                   "pipeline.align", "core.run",
                                   "dist.count",     "dist.dbg"};

/// A JSON object of name -> number, for the provenance line.
std::string json_object(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.4f", v);
    out += (out.size() > 1 ? ", \"" : "\"") + k + "\": " + buf;
  }
  return out + "}";
}

}  // namespace

Report run_batch(BatchWorkload& w, BatchWorkload& probe, const Settings& s) {
  Report r;
  w.setup(nullptr, -1);
  // The reference: the recorded digest for this seed, else a 1-thread
  // pass over the same inputs.
  const std::uint64_t expected =
      s.golden ? *s.golden : full_digest(w.run(1));
  r.check(full_digest(w.run(s.threads)) == expected);  // warm-up, untimed

  // Set-ups of a second instance run between the jobs, spread evenly over
  // the loop, so they sample the host over the whole run as the jobs do,
  // and the measured jobs keep their warm inputs and pools.
  std::vector<double> setups;
  const auto time_setup = [&] {
    const auto t0 = Clock::now();
    probe.setup(nullptr, -1);
    setups.push_back(seconds_since(t0));
  };
  std::vector<double> jobs;
  const auto loop_t0 = Clock::now();
  while (jobs.empty() || seconds_since(loop_t0) < s.seconds) {
    const auto t0 = Clock::now();
    const BatchWorkload::Output out = w.run(s.threads);
    jobs.push_back(seconds_since(t0));
    r.check(full_digest(out) == expected);
    const double due =
        s.seconds * static_cast<double>(setups.size()) / kSetups;
    if (setups.size() < kSetups && seconds_since(loop_t0) >= due) {
      time_setup();
    }
  }
  while (setups.size() < kSetups) time_setup();

  r.metric("setup_s", median(setups));
  r.metric("job_s", median(jobs));
  // One caller in a closed loop completes a job per job time; the median
  // job, not the loop's mean, so one stalled job does not move the rate.
  r.metric("jobs_per_s", 1.0 / median(jobs));
  r.note("jobs", std::to_string(jobs.size()));
  r.note("digest", hex(expected));
  return r;
}

Report run_batch_traced(BatchWorkload& w, const Settings& s) {
  Report r;
  SpanLog spans;

  std::map<std::string, double> setup_parts;  // median over set-ups
  {
    std::map<std::string, std::vector<double>> per;
    for (std::size_t i = 0; i < kSetups; ++i) {
      int root = -1;
      {
        ScopedSpan setup(spans, "setup", -1);
        root = setup.id();
        w.setup(&spans, root);
      }
      for (const auto& [name, sec] : spans.totals_under(root)) {
        per[name].push_back(sec);
      }
    }
    for (const auto& [name, v] : per) setup_parts[name] = median(v);
  }

  // Untraced jobs through the entry point: the tracing-overhead base and
  // the digest every composition must reproduce.
  const BatchWorkload::Output entry = w.run(s.threads);
  r.check(!s.golden || full_digest(entry) == *s.golden);
  std::vector<double> untraced;
  const auto t_phase = Clock::now();
  while (untraced.size() < 2 || seconds_since(t_phase) < 0.3 * s.seconds) {
    const auto t0 = Clock::now();
    const BatchWorkload::Output out = w.run(s.threads);
    untraced.push_back(seconds_since(t0));
    r.check(full_digest(out) == full_digest(entry));
  }

  struct Pass {
    std::vector<double> job_s;
    std::vector<double> unattributed;
    std::map<std::string, std::vector<double>> layer_s;  // span totals
    std::map<std::string, std::vector<double>> self_frac;
    std::map<std::string, std::vector<double>> counts;
  };
  const auto traced_pass = [&](unsigned threads, double budget_s,
                               std::size_t min_jobs) {
    Pass p;
    const auto t0 = Clock::now();
    while (p.job_s.size() < min_jobs || seconds_since(t0) < budget_s) {
      Counts counts;
      int root = -1;
      std::uint64_t digest = 0;
      {
        ScopedSpan job(spans, threads == 1 ? "job.1t" : "job", -1);
        root = job.id();
        digest = w.run_traced(spans, root, threads, counts);
      }
      r.check(digest == entry.result);
      const double job_s = spans.seconds(root);
      p.job_s.push_back(job_s);
      p.unattributed.push_back(spans.self_seconds(root) / job_s);
      for (const auto& [name, sec] : spans.totals_under(root)) {
        p.layer_s[name].push_back(sec);
      }
      for (const auto& [name, sec] : spans.self_under(root)) {
        p.self_frac[name].push_back(sec / job_s);
      }
      for (const auto& [name, v] : counts) p.counts[name].push_back(v);
    }
    return p;
  };
  const Pass pooled = traced_pass(s.threads, 0.45 * s.seconds, 2);
  const Pass serial = traced_pass(1, 0.0, 1);

  const auto med = [](const std::map<std::string, std::vector<double>>& m,
                      const std::string& name) {
    const auto it = m.find(name);
    return it == m.end() ? 0.0 : median(it->second);
  };
  for (const auto& [name, v] : pooled.layer_s) {
    if (name != "core.pool_start") r.metric(name + "_s", median(v));
  }
  r.metric("core.pool_start_s", med(pooled.layer_s, "core.pool_start") +
                                    setup_parts["core.pool_start"]);
  r.metric("workload.generate_s", setup_parts["workload.generate"]);
  for (const auto& [name, v] : pooled.counts) r.metric(name, median(v));
  const double run_s = med(pooled.layer_s, "core.run");
  const double tasks = med(pooled.counts, "core.warp_tasks");
  if (run_s > 0.0 && tasks > 0.0) {
    r.metric("core.mtasks_per_s", tasks / run_s / 1e6);
    r.metric("memsim.mlines_per_s",
             med(pooled.counts, "memsim.lines_touched") / run_s / 1e6);
  }
  for (const char* name : kScaled) {
    const double t4 = med(pooled.layer_s, name);
    const double t1 = med(serial.layer_s, name);
    if (t4 > 0.0 && t1 > 0.0) {
      r.metric(std::string(name) + "_speedup_4t", t1 / t4);
    }
  }
  r.metric("trace.overhead", median(pooled.job_s) / median(untraced) - 1.0);
  r.metric("unattributed_frac", median(pooled.unattributed));
  r.metric("process.peak_rss_mb", peak_rss_mb());

  std::map<std::string, double> shares;
  for (const auto& [name, v] : pooled.self_frac) shares[name] = median(v);
  r.note("self_share", json_object(shares));
  r.note("traced_jobs", std::to_string(pooled.job_s.size()) + "+" +
                            std::to_string(serial.job_s.size()) + " at 1t");
  r.note("digest", hex(full_digest(entry)));
  if (!s.trace_out.empty() &&
      !spans.write_chrome(s.trace_out, s.provenance)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", s.trace_out.c_str());
  }
  return r;
}

}  // namespace perfbench
