// service_mix: serve::AssemblyService under a closed loop of client
// threads. Each client submits a small Table-II-shaped job and waits for
// it before sending the next. Half of a client's jobs repeat its previous
// dataset, which the result cache answers. The other half take the next
// dataset of a pool four times the cache's size, so they miss and run the
// kernel. Hits and misses both carry weight.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <map>
#include <thread>

#include "bench.hpp"
#include "core/assembler.hpp"
#include "serve/service.hpp"
#include "simt/device.hpp"
#include "workload/dataset.hpp"

namespace perfbench {
namespace {

using namespace lassm;

constexpr std::size_t kCacheEntries = 256;
constexpr std::size_t kPoolSize = 4 * kCacheEntries;
constexpr double kRepeatFraction = 0.5;
/// Pool datasets whose reference outputs make the recorded digest.
constexpr std::size_t kGoldenDatasets = 32;

/// 8 contigs and 48 reads each, with k, read length and extension length
/// of a Table II dataset (k cycles 21/33/55/77 through the pool).
std::vector<core::AssemblyInput> make_pool(std::uint64_t seed,
                                           std::size_t n) {
  std::vector<core::AssemblyInput> pool;
  pool.reserve(n);
  for (std::size_t d = 0; d < n; ++d) {
    workload::DatasetParams p =
        workload::table2_params(workload::kTable2Ks[d % 4]);
    p.num_contigs = 8;
    p.num_reads = 48;
    core::AssemblyInput in = workload::generate_dataset(p, seed * 100003 + d);
    // Contig ids stay unique across the pool, as the service's fault keys
    // assume.
    for (bio::Contig& c : in.contigs) c.id += d * 1000000ULL;
    pool.push_back(std::move(in));
  }
  return pool;
}

std::uint64_t extensions_digest(const std::vector<bio::ContigExtension>& ex) {
  Digest d;
  for (const bio::ContigExtension& e : ex) {
    d.add(e.contig_id);
    d.add(e.left);
    d.add(e.right);
    d.add(std::uint64_t{e.left_mer_len} << 32 | e.right_mer_len);
  }
  return d.value();
}

/// One closed-loop caller. Its dataset sequence is a pure function of the
/// seed and its index, so its outcome sequence repeats run to run.
struct Client {
  std::uint64_t rng = 0;
  std::size_t pool_size = 1;
  std::size_t next_fresh = 0;
  std::size_t prev = 0;
  bool started = false;

  std::size_t pick() {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    const double u = static_cast<double>(rng >> 11) * 0x1.0p-53;
    if (!started || u >= kRepeatFraction) {
      prev = next_fresh;
      next_fresh = (next_fresh + 1) % pool_size;
      started = true;
    }
    return prev;
  }
};

struct JobRecord {
  std::size_t dataset = 0;
  serve::JobState state = serve::JobState::kQueued;
  std::uint64_t digest = 0;
  bool hit = false;
  double queue_ms = 0.0;
  double service_ms = 0.0;  ///< submit -> terminal, as the service saw it
  double latency_ms = 0.0;  ///< submit -> wait returned, at the client
};

struct LoopResult {
  std::vector<std::vector<JobRecord>> per_client;
  std::vector<int> loop_spans;  ///< each client's loop span, when traced
  double wall_s = 0.0;
  bool threw = false;
};

/// Runs every client's closed loop for `seconds`. With `spans`, each
/// client's loop and each submit -> wait is a span on the client's row.
LoopResult closed_loop(serve::AssemblyService& svc,
                       const std::vector<core::AssemblyInput>& pool,
                       std::vector<Client>& clients, double seconds,
                       SpanLog* spans) {
  LoopResult out;
  out.per_client.resize(clients.size());
  out.loop_spans.assign(clients.size(), -1);
  std::vector<char> threw(clients.size(), 0);
  const auto t0 = Clock::now();
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < clients.size(); ++c) {
      threads.emplace_back([&, c] {
        try {
          const auto track = static_cast<std::uint32_t>(c + 1);
          const int loop =
              spans != nullptr ? spans->begin("serve.client", -1, track) : -1;
          out.loop_spans[c] = loop;
          std::vector<JobRecord>& jobs = out.per_client[c];
          while (jobs.empty() || seconds_since(t0) < seconds) {
            JobRecord rec;
            rec.dataset = clients[c].pick();
            core::AssemblyInput input = pool[rec.dataset];
            const int span =
                spans != nullptr
                    ? spans->begin("serve.submit_wait", loop, track)
                    : -1;
            const auto sent = Clock::now();
            const serve::JobOutcome o =
                svc.submit("client" + std::to_string(c), std::move(input))
                    ->wait();
            rec.latency_ms = seconds_since(sent) * 1e3;
            if (spans != nullptr) spans->end(span);
            rec.state = o.state;
            rec.digest = extensions_digest(o.extensions);
            rec.hit = o.stats.cache_hit;
            rec.queue_ms = o.stats.queue_ms;
            rec.service_ms = o.stats.total_ms;
            jobs.push_back(rec);
          }
          if (spans != nullptr) spans->end(loop);
        } catch (const std::exception&) {
          threw[c] = 1;
        }
      });
    }
  }
  out.wall_s = seconds_since(t0);
  out.threw = std::find(threw.begin(), threw.end(), 1) != threw.end();
  return out;
}

class ServiceMix {
 public:
  explicit ServiceMix(const Settings& s)
      : s_(s), pool_size_(s.tiny ? 64 : kPoolSize) {}

  /// Generates the dataset pool and starts a fresh service.
  void setup(SpanLog* spans, int parent) {
    svc_.reset();
    pool_.clear();
    {
      const int id =
          spans != nullptr ? spans->begin("workload.generate", parent) : -1;
      pool_ = make_pool(s_.seed, pool_size_);
      if (spans != nullptr) spans->end(id);
    }
    const int id =
        spans != nullptr ? spans->begin("core.pool_start", parent) : -1;
    serve::ServiceConfig cfg;
    cfg.device = simt::DeviceSpec::a100();
    cfg.pm = cfg.device.native_model;
    cfg.assembly.n_threads = s_.threads;
    cfg.cache_capacity = kCacheEntries;
    svc_ = std::make_unique<serve::AssemblyService>(cfg);
    if (spans != nullptr) spans->end(id);

    const unsigned n_clients = std::min(4u, s_.threads);
    clients_.assign(n_clients, Client{});
    for (unsigned c = 0; c < n_clients; ++c) {
      clients_[c].rng = s_.seed * 0x9e3779b97f4a7c15ULL + c;
      clients_[c].pool_size = pool_size_;
      clients_[c].next_fresh = c * pool_size_ / n_clients;
    }
  }

  LoopResult loop(double seconds, SpanLog* spans) {
    return closed_loop(*svc_, pool_, clients_, seconds, spans);
  }

  /// Checks every job: completed, with the extensions a direct 1-thread
  /// LocalAssembler::run gives on its dataset. Then checks the service's
  /// accounting and, for a recorded seed, the reference outputs.
  void check(const std::vector<const LoopResult*>& results, Report& r) {
    std::map<std::size_t, std::uint64_t> expected;
    for (const LoopResult* res : results) {
      for (const auto& jobs : res->per_client) {
        for (const JobRecord& j : jobs) expected.emplace(j.dataset, 0);
      }
    }
    for (std::size_t d = 0; d < std::min(kGoldenDatasets, pool_size_); ++d) {
      expected.emplace(d, 0);
    }
    core::AssemblyOptions opts;
    opts.n_threads = 1;
    const core::LocalAssembler oracle(svc_->config().device,
                                      svc_->config().pm, opts);
    // The 1-thread reference per dataset, with datasets spread over
    // threads so the check stays short next to the measured loop. A
    // reference that throws leaves digest 0, which fails its jobs.
    std::vector<std::pair<const std::size_t, std::uint64_t>*> todo;
    for (auto& entry : expected) todo.push_back(&entry);
    {
      std::vector<std::jthread> workers;
      for (unsigned w = 0; w < s_.threads; ++w) {
        workers.emplace_back([&, w] {
          for (std::size_t i = w; i < todo.size(); i += s_.threads) {
            try {
              const core::AssemblyResult ref =
                  oracle.run(pool_[todo[i]->first]);
              todo[i]->second = extensions_digest(ref.extensions);
            } catch (const std::exception&) {
            }
          }
        });
      }
    }
    Digest sequence;  // the per-client outcome sequence
    bool threw = false;
    for (const LoopResult* res : results) {
      threw = threw || res->threw;
      for (const auto& jobs : res->per_client) {
        for (const JobRecord& j : jobs) {
          r.check(j.state == serve::JobState::kCompleted &&
                  j.digest == expected.at(j.dataset));
          sequence.add(static_cast<std::uint64_t>(j.dataset));
          sequence.add(static_cast<std::uint64_t>(j.state));
          sequence.add(j.digest);
        }
      }
    }
    svc_->drain();
    const serve::ServiceCounters n = svc_->counters();
    r.check(!threw && n.accounted() &&
            n.submitted == n.completed + n.failed + n.shed_total());
    Digest golden;
    for (std::size_t d = 0; d < std::min(kGoldenDatasets, pool_size_); ++d) {
      golden.add(expected.at(d));
    }
    if (s_.golden) r.check(golden.value() == *s_.golden);
    r.note("digest", hex(golden.value()));
    r.note("outcome_sequence", hex(sequence.value()));
  }

  serve::ServiceCounters counters() const { return svc_->counters(); }

 private:
  const Settings& s_;
  std::size_t pool_size_;
  std::vector<core::AssemblyInput> pool_;
  std::unique_ptr<serve::AssemblyService> svc_;
  std::vector<Client> clients_;
};

std::vector<JobRecord> flatten(const LoopResult& res) {
  std::vector<JobRecord> all;
  for (const auto& jobs : res.per_client) {
    all.insert(all.end(), jobs.begin(), jobs.end());
  }
  return all;
}

std::vector<double> latencies(const std::vector<JobRecord>& jobs) {
  std::vector<double> v;
  for (const JobRecord& j : jobs) v.push_back(j.latency_ms);
  return v;
}

Report run_untraced(const Settings& s) {
  Report r;
  ServiceMix mix(s);
  mix.setup(nullptr, -1);
  // The loop runs in kSetups stretches. After each, a second instance is
  // set up and timed, so set-ups sample the host over the whole run as the
  // jobs do, and the measured service keeps its queue, cache and pool.
  ServiceMix probe(s);
  std::vector<LoopResult> parts;
  std::vector<double> setups;
  for (std::size_t i = 0; i < kSetups; ++i) {
    parts.push_back(mix.loop(s.seconds / kSetups, nullptr));
    const auto t0 = Clock::now();
    probe.setup(nullptr, -1);
    setups.push_back(seconds_since(t0));
  }
  std::vector<const LoopResult*> checked;
  std::vector<JobRecord> jobs;
  std::vector<double> rates;  // completions per second of each stretch
  for (const LoopResult& part : parts) {
    checked.push_back(&part);
    const std::vector<JobRecord> done = flatten(part);
    rates.push_back(static_cast<double>(std::count_if(
                        done.begin(), done.end(),
                        [](const JobRecord& j) {
                          return j.state == serve::JobState::kCompleted;
                        })) /
                    part.wall_s);
    jobs.insert(jobs.end(), done.begin(), done.end());
  }
  mix.check(checked, r);
  r.metric("setup_s", median(setups));
  r.metric("job_s", median(latencies(jobs)) / 1e3);
  r.metric("jobs_per_s", median(rates));
  r.note("jobs", std::to_string(jobs.size()));
  return r;
}

Report run_traced(const Settings& s) {
  Report r;
  ServiceMix mix(s);
  SpanLog spans;
  std::map<std::string, std::vector<double>> setup_parts;
  for (std::size_t i = 0; i < kSetups; ++i) {
    int root = -1;
    {
      ScopedSpan setup(spans, "setup", -1);
      root = setup.id();
      mix.setup(&spans, root);
    }
    for (const auto& [name, sec] : spans.totals_under(root)) {
      setup_parts[name].push_back(sec);
    }
  }
  // Half the time untraced (the tracing-overhead base), half traced.
  const LoopResult plain = mix.loop(0.5 * s.seconds, nullptr);
  const serve::ServiceCounters before = mix.counters();
  const LoopResult traced = mix.loop(0.5 * s.seconds, &spans);
  const serve::ServiceCounters after = mix.counters();
  mix.check({&plain, &traced}, r);

  const std::vector<JobRecord> jobs = flatten(traced);
  std::vector<double> queue, run, hit_latency;
  std::size_t hits = 0;
  std::size_t ran = 0;
  for (const JobRecord& j : jobs) {
    queue.push_back(j.queue_ms);
    if (j.hit) {
      ++hits;
      hit_latency.push_back(j.latency_ms);
    } else {
      ++ran;
      run.push_back(j.service_ms - j.queue_ms);
    }
  }
  const std::uint64_t engine_runs = after.engine_runs - before.engine_runs;
  r.metric("serve.queue_ms_p50", median(queue));
  r.metric("serve.run_ms_p50", median(run));
  r.metric("serve.hit_latency_ms_p50", median(hit_latency));
  r.metric("serve.cache_hit_ratio",
           static_cast<double>(hits) / static_cast<double>(jobs.size()));
  r.metric("serve.jobs_per_engine_run",
           engine_runs == 0 ? 0.0
                            : static_cast<double>(ran) /
                                  static_cast<double>(engine_runs));
  r.metric("serve.shed",
           static_cast<double>(after.shed_total() - before.shed_total()));
  r.metric("core.pool_start_s", median(setup_parts["core.pool_start"]));
  r.metric("workload.generate_s", median(setup_parts["workload.generate"]));
  // Latency from the untraced half, whose jobs carry no span overhead.
  const std::vector<double> plain_lat = latencies(flatten(plain));
  const double p99 = quantile(plain_lat, 0.99);
  r.metric("serve.latency_ms_p99", p99);
  r.metric("trace.overhead",
           median(latencies(jobs)) / median(plain_lat) - 1.0);
  r.metric("process.peak_rss_mb", peak_rss_mb());
  r.note("beyond_p99", std::to_string(std::count_if(
                           plain_lat.begin(), plain_lat.end(),
                           [&](double v) { return v > p99; })));

  // Client time outside submit -> wait: picking and copying the input.
  double loop_s = 0.0;
  double self_s = 0.0;
  for (const int id : traced.loop_spans) {
    loop_s += spans.seconds(id);
    self_s += spans.self_seconds(id);
  }
  r.metric("unattributed_frac", self_s / loop_s);
  r.note("traced_jobs", std::to_string(jobs.size()));
  if (!s.trace_out.empty() &&
      !spans.write_chrome(s.trace_out, s.provenance)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", s.trace_out.c_str());
  }
  return r;
}

}  // namespace

Report run_service(const Settings& s) {
  return s.trace ? run_traced(s) : run_untraced(s);
}

}  // namespace perfbench
