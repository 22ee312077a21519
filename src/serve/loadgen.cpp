#include "serve/loadgen.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <thread>

#include "workload/dataset.hpp"

namespace lassm::serve {
namespace {

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Tiny deterministic per-thread RNG (splitmix64 stream).
struct Rng {
  std::uint64_t state;
  std::uint64_t next() noexcept { return mix64(state++); }
  double next_unit() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
};

struct Tally {
  std::mutex mutex;
  std::vector<double> latencies_ms;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t retried_jobs = 0;

  void record(const JobOutcome& out) {
    std::lock_guard<std::mutex> lock(mutex);
    latencies_ms.push_back(out.stats.total_ms);
    switch (out.state) {
      case JobState::kCompleted: ++completed; break;
      case JobState::kShed: ++shed; break;
      case JobState::kFailed: ++failed; break;
      case JobState::kQueued: break;  // unreachable: wait() is terminal
    }
    if (out.stats.cache_hit) ++cache_hits;
    if (out.stats.retries > 0) ++retried_jobs;
  }
};

double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

/// Picks this tenant's next pool index: repeat the previous with
/// probability repeat_fraction (cache traffic), else a fresh draw.
std::size_t pick_dataset(Rng& rng, const LoadGenConfig& cfg, unsigned job,
                         std::size_t prev) {
  if (job > 0 && rng.next_unit() < cfg.repeat_fraction) return prev;
  return static_cast<std::size_t>(rng.next() %
                                  std::max(1u, cfg.distinct_datasets));
}

LoadGenReport finalize(Tally& tally, const AssemblyService& service,
                       std::uint64_t submitted, double wall_s) {
  LoadGenReport rep;
  rep.submitted = submitted;
  rep.completed = tally.completed;
  rep.shed = tally.shed;
  rep.failed = tally.failed;
  rep.cache_hits = tally.cache_hits;
  rep.retried_jobs = tally.retried_jobs;
  rep.wall_s = wall_s;
  rep.throughput_jobs_per_s =
      wall_s > 0.0 ? static_cast<double>(submitted) / wall_s : 0.0;
  std::vector<double>& lat = tally.latencies_ms;
  std::sort(lat.begin(), lat.end());
  if (!lat.empty()) {
    double sum = 0.0;
    for (double v : lat) sum += v;
    rep.mean_ms = sum / static_cast<double>(lat.size());
    rep.p50_ms = percentile(lat, 0.50);
    rep.p99_ms = percentile(lat, 0.99);
    rep.max_ms = lat.back();
  }
  const ServiceCounters counters = service.counters();
  rep.accounted =
      (rep.completed + rep.shed + rep.failed == rep.submitted) &&
      counters.accounted();
  return rep;
}

template <typename TenantBody>
double run_tenants(const LoadGenConfig& cfg, TenantBody&& body) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(cfg.tenants);
  for (unsigned t = 0; t < cfg.tenants; ++t) {
    threads.emplace_back([&, t] { body(t); });
  }
  for (std::thread& th : threads) th.join();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

std::vector<core::AssemblyInput> make_job_pool(const LoadGenConfig& cfg) {
  std::vector<core::AssemblyInput> pool;
  pool.reserve(cfg.distinct_datasets);
  for (unsigned d = 0; d < cfg.distinct_datasets; ++d) {
    workload::DatasetParams p;
    p.kmer_len = cfg.kmer_len;
    p.num_contigs = cfg.contigs_per_job;
    p.num_reads = cfg.reads_per_job;
    p.read_len = cfg.read_len;
    core::AssemblyInput in = workload::generate_dataset(p, cfg.seed + d);
    // Globally unique contig ids across the pool: per-contig fault keys
    // (and therefore injected fault sets) stay disjoint between jobs.
    for (bio::Contig& c : in.contigs) {
      c.id += static_cast<std::uint64_t>(d) * 1000000ULL;
    }
    pool.push_back(std::move(in));
  }
  return pool;
}

LoadGenReport run_closed_loop(AssemblyService& service,
                              const LoadGenConfig& cfg) {
  const std::vector<core::AssemblyInput> pool = make_job_pool(cfg);
  Tally tally;
  const double wall_s = run_tenants(cfg, [&](unsigned t) {
    Rng rng{mix64(cfg.seed ^ (0x7e43a1ULL + t))};
    std::size_t prev = 0;
    for (unsigned j = 0; j < cfg.jobs_per_tenant; ++j) {
      prev = pick_dataset(rng, cfg, j, prev);
      TicketPtr ticket = service.submit("tenant" + std::to_string(t),
                                        pool[prev], cfg.deadline_ms);
      tally.record(ticket->wait());
    }
  });
  service.drain();
  return finalize(tally, service,
                  static_cast<std::uint64_t>(cfg.tenants) *
                      cfg.jobs_per_tenant,
                  wall_s);
}

LoadGenReport run_open_loop(AssemblyService& service,
                            const LoadGenConfig& cfg) {
  const std::vector<core::AssemblyInput> pool = make_job_pool(cfg);
  Tally tally;
  const double wall_s = run_tenants(cfg, [&](unsigned t) {
    Rng rng{mix64(cfg.seed ^ (0x7e43a1ULL + t))};
    std::vector<TicketPtr> tickets;
    tickets.reserve(cfg.jobs_per_tenant);
    std::size_t prev = 0;
    for (unsigned j = 0; j < cfg.jobs_per_tenant; ++j) {
      prev = pick_dataset(rng, cfg, j, prev);
      tickets.push_back(service.submit("tenant" + std::to_string(t),
                                       pool[prev], cfg.deadline_ms));
    }
    for (const TicketPtr& ticket : tickets) tally.record(ticket->wait());
  });
  service.drain();
  return finalize(tally, service,
                  static_cast<std::uint64_t>(cfg.tenants) *
                      cfg.jobs_per_tenant,
                  wall_s);
}

}  // namespace lassm::serve
