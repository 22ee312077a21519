#include "serve/service.hpp"

#include <algorithm>
#include <cassert>

#include "pipeline/multi_gpu.hpp"
#include "trace/log.hpp"

namespace lassm::serve {
namespace {

using Clock = std::chrono::steady_clock;

/// Exponential backoff base and per-wait cap for job-level retries.
constexpr std::uint32_t kBackoffBaseMs = 1;
constexpr std::uint32_t kBackoffMaxMs = 32;

/// Small-job coalescing: one engine run serves up to this many queued
/// jobs / combined contigs of the same mer size.
constexpr std::size_t kCoalesceMaxJobs = 8;
constexpr std::size_t kCoalesceMaxContigs = 512;

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a_str(const std::string& s) noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

double ms_since(Clock::time_point since, Clock::time_point now) noexcept {
  return std::chrono::duration<double, std::milli>(now - since).count();
}

}  // namespace

std::uint64_t make_job_key(const std::string& tenant,
                           std::uint64_t seq) noexcept {
  // Full-avalanche mix keeps job keys statistically disjoint from the
  // small-integer contig fault keys, so job-level seam draws never
  // correlate with task-level ones.
  return mix64(fnv1a_str(tenant) ^ mix64(seq ^ 0x5e27e5e27e5e27e5ULL));
}

// ---------------------------------------------------------------------------
// JobTicket

JobOutcome JobTicket::wait() const {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return done_; });
  return outcome_;
}

bool JobTicket::done() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return done_;
}

void JobTicket::resolve(JobOutcome outcome) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    assert(!done_ && "a job must reach exactly one terminal state");
    outcome_ = std::move(outcome);
    done_ = true;
  }
  cv_.notify_all();
}

// ---------------------------------------------------------------------------
// AssemblyService

namespace {

core::AssemblyOptions armed_options(const ServiceConfig& cfg,
                                    const resilience::FaultPlan* plan,
                                    std::uint32_t fault_rank) {
  core::AssemblyOptions opts = cfg.assembly;
  opts.fault_plan = plan;  // always armed: jobs ride the isolated path
  opts.fault_rank = fault_rank;
  return opts;
}

}  // namespace

AssemblyService::AssemblyService(ServiceConfig cfg)
    : cfg_(std::move(cfg)),
      plan_(cfg_.assembly.fault_plan != nullptr ? cfg_.assembly.fault_plan
                                                : &empty_plan_),
      assembler_(cfg_.device, cfg_.pm,
                 armed_options(cfg_, plan_, cfg_.assembly.fault_rank)),
      options_fp_(
          fingerprint_options(assembler_.options(), cfg_.device, cfg_.pm)),
      cache_(cfg_.cache_capacity),
      paused_(cfg_.start_paused) {
  // Engine pool-start failure (armed kPoolStart seam, or a real spawn
  // failure) degrades to fewer workers — in the worst case serial on the
  // dispatcher thread — and the service keeps running (degraded()).
  engine_ = assembler_.make_engine();
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

AssemblyService::~AssemblyService() { stop(); }

bool AssemblyService::degraded() const { return engine_->degraded(); }

double AssemblyService::elapsed_ms(Clock::time_point since) const {
  return ms_since(since, Clock::now());
}

TicketPtr AssemblyService::submit(const std::string& tenant,
                                  core::AssemblyInput input,
                                  double deadline_ms) {
  Job job;
  job.tenant = tenant;
  job.input = std::move(input);
  job.ticket = std::make_shared<JobTicket>();
  job.submit_time = Clock::now();
  job.not_before = job.submit_time;
  job.deadline_ms = deadline_ms;
  job.cache_key.dataset_fp = fingerprint_input(job.input);
  job.cache_key.options_fp = options_fp_;
  TicketPtr ticket = job.ticket;
  const bool valid = job.input.validate();

  std::unique_lock<std::mutex> lock(mutex_);
  ++counters_.submitted;
  // A structurally invalid input can never run: typed failure, accounted
  // once, and it counts against the tenant's breaker (malformed traffic
  // is exactly the repeat-offender signal the breaker quarantines). It
  // takes no tenant sequence number.
  if (!valid) {
    lock.unlock();
    finish_failed(job, Error(ErrorCode::kInvalidArgument,
                             "AssemblyInput failed validation"));
    return ticket;
  }
  TenantState& tenant_state = tenants_[tenant];
  job.job_key = make_job_key(tenant, tenant_state.next_seq++);

  if (stopped_) {
    lock.unlock();
    finish_shed(job, ErrorCode::kUnavailable, "service stopped",
                &ServiceCounters::shed_stopped);
    return ticket;
  }

  // Circuit breaker: a quarantined tenant is rejected outright until the
  // cooldown passes; the first job after cooldown probes half-open (one
  // more failure reopens, a success closes).
  if (tenant_state.breaker_open) {
    if (elapsed_ms(tenant_state.breaker_opened) >=
        static_cast<double>(kBreakerCooldownMs)) {
      tenant_state.breaker_open = false;
      tenant_state.consecutive_failures = kBreakerThreshold - 1;
    } else {
      lock.unlock();
      finish_shed(job, ErrorCode::kUnavailable,
                  "tenant circuit breaker open",
                  &ServiceCounters::shed_breaker);
      return ticket;
    }
  }

  // Injected admission rejection: the queue_overflow seam sheds
  // deterministically selected jobs as if the queue were full, making
  // overload behaviour fault-injectable and bit-reproducible.
  if (plan_->fires(resilience::Seam::kQueueOverflow, job.job_key)) {
    lock.unlock();
    finish_shed(job, ErrorCode::kResourceExhausted,
                "injected queue overflow", &ServiceCounters::shed_overflow);
    return ticket;
  }

  if (queue_.size() >= cfg_.queue_capacity) {
    lock.unlock();
    finish_shed(job, ErrorCode::kResourceExhausted, "admission queue full",
                &ServiceCounters::shed_overflow);
    return ticket;
  }

  // Admitted. A cache hit is answered here, on the client's thread, and
  // never queues behind misses. A job the job_timeout seam selects, or one
  // already past its deadline, skips the probe and queues, so preflight
  // sheds it exactly as it would without the cache. The probe runs under
  // mutex_, so no stop() can slip between these checks and a miss's
  // enqueue.
  std::optional<CachedResult> hit;
  if (cache_.capacity() > 0 &&
      !plan_->fires(resilience::Seam::kJobTimeout, job.job_key) &&
      !past_deadline(job, Clock::now())) {
    hit = probe_cache(job);
  }
  ++counters_.admitted;
  if (hit) {
    lock.unlock();
    finish_completed(job, std::move(hit->extensions), hit->modelled_time_s,
                     resilience::FailureReport{}, /*coalesced=*/false,
                     /*cache_hit=*/true, /*recovered=*/false);
    return ticket;
  }
  counters_.queue_depth_peak = std::max<std::uint64_t>(
      counters_.queue_depth_peak, queue_.size() + 1);
  queue_.push_back(std::move(job));
  lock.unlock();
  cv_.notify_all();
  return ticket;
}

std::optional<AssemblyService::Job> AssemblyService::pop_ready_locked(
    Clock::time_point now) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->not_before <= now) {
      Job job = std::move(*it);
      queue_.erase(it);
      return job;
    }
  }
  return std::nullopt;
}

void AssemblyService::dispatcher_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (stopped_) {
      // Drain by shedding: queued jobs are cancelled with a typed
      // status, never half-run or silently dropped.
      while (!queue_.empty()) {
        Job job = std::move(queue_.front());
        queue_.pop_front();
        lock.unlock();
        finish_shed(job, ErrorCode::kUnavailable, "service stopped",
                    &ServiceCounters::shed_stopped);
        lock.lock();
      }
      idle_ = true;
      drain_cv_.notify_all();
      return;
    }
    const Clock::time_point now = Clock::now();
    std::optional<Job> first;
    if (!paused_) first = pop_ready_locked(now);

    if (!first) {
      idle_ = true;
      drain_cv_.notify_all();
      // Sleep until the earliest backoff gate (or a submit/stop wakeup).
      Clock::time_point wake = Clock::time_point::max();
      if (!paused_) {
        for (const Job& j : queue_) wake = std::min(wake, j.not_before);
      }
      if (wake == Clock::time_point::max()) {
        cv_.wait(lock);
      } else {
        cv_.wait_until(lock, wake);
      }
      continue;
    }

    idle_ = false;
    // Coalesce: greedily take more ready jobs of the same mer size while
    // the batch fits the coalescing caps. Admission order is preserved.
    std::vector<Job> picked;
    std::size_t contigs = first->input.num_contigs();
    picked.push_back(std::move(*first));
    for (auto it = queue_.begin();
         it != queue_.end() && picked.size() < kCoalesceMaxJobs;) {
      if (it->not_before <= now &&
          it->input.kmer_len == picked.front().input.kmer_len &&
          contigs + it->input.num_contigs() <= kCoalesceMaxContigs) {
        contigs += it->input.num_contigs();
        picked.push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
    lock.unlock();

    std::vector<Job> batch;
    for (Job& job : picked) preflight(std::move(job), batch);
    if (!batch.empty()) run_batch(batch);

    lock.lock();
    if (queue_.empty()) {
      idle_ = true;
      drain_cv_.notify_all();
    }
  }
}

bool AssemblyService::preflight(Job&& job, std::vector<Job>& batch) {
  ++job.attempt;
  const Clock::time_point now = Clock::now();
  if (!job.first_dispatch_set) {
    job.first_dispatch = now;
    job.first_dispatch_set = true;
  }

  // Real deadline first: a job past its deadline is shed with a typed
  // status — never silently half-run.
  if (past_deadline(job, now)) {
    finish_shed(job, ErrorCode::kDeadlineExceeded,
                "deadline exceeded before dispatch",
                &ServiceCounters::shed_deadline);
    return true;
  }
  // Injected deadline: the job_timeout seam forces the shed path for
  // deterministically selected jobs regardless of wall clock.
  if (plan_->fires(resilience::Seam::kJobTimeout, job.job_key)) {
    finish_shed(job, ErrorCode::kDeadlineExceeded, "injected job timeout",
                &ServiceCounters::shed_deadline);
    return true;
  }

  // Probed again: a repeat that missed at submit, queued behind its first
  // copy, hits once that copy has landed.
  if (cache_.capacity() > 0) {
    if (std::optional<CachedResult> hit = probe_cache(job)) {
      finish_completed(job, std::move(hit->extensions), hit->modelled_time_s,
                       resilience::FailureReport{}, /*coalesced=*/false,
                       /*cache_hit=*/true, /*recovered=*/false);
      return true;
    }
  }

  // Injected transient dispatch fault at the job key: retried with
  // exponential backoff + deterministic jitter; the transient seam fires
  // only at attempt 0, so the retry succeeds.
  if (plan_->fires(resilience::Seam::kTaskException, job.job_key,
                   job.attempt - 1)) {
    retry_or_fail(job, Error(ErrorCode::kTaskFailed,
                             "injected transient dispatch fault"));
    return true;
  }

  batch.push_back(std::move(job));
  return false;
}

bool AssemblyService::past_deadline(const Job& job,
                                    Clock::time_point now) const {
  return job.deadline_ms > 0.0 &&
         ms_since(job.submit_time, now) > job.deadline_ms;
}

std::optional<CachedResult> AssemblyService::probe_cache(const Job& job) {
  // Corruption-checked read-back: the lookup itself says whether it found
  // corruption, so concurrent probes never claim each other's.
  ResultCache::Lookup got = cache_.get(job.cache_key, plan_);
  if (got.corrupted) {
    (void)log::Logger::instance().incident(
        "cache_corrupt",
        {trace::Arg::n("dataset_fp",
                       static_cast<double>(job.cache_key.dataset_fp)),
         trace::Arg::n("job_key", static_cast<double>(job.job_key))});
  }
  return std::move(got.hit);
}

void AssemblyService::retry_or_fail(Job& job, Error error) {
  if (job.retries >= kMaxJobRetries) {
    finish_failed(job, std::move(error));
    return;
  }
  ++job.retries;
  // Exponential backoff with deterministic jitter: the jitter draw is a
  // pure function of (job key, retry ordinal), so backoff schedules are
  // reproducible run to run.
  std::uint64_t wait_ms = std::uint64_t{kBackoffBaseMs}
                          << std::min<unsigned>(job.retries - 1, 16);
  wait_ms = std::min<std::uint64_t>(wait_ms, kBackoffMaxMs);
  wait_ms += mix64(job.job_key ^ (0x1717ULL * job.retries)) % kBackoffBaseMs;
  job.backoff_ms += static_cast<double>(wait_ms);
  job.not_before =
      Clock::now() + std::chrono::milliseconds(wait_ms);
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.retries;
  queue_.push_back(std::move(job));
  cv_.notify_all();
}

void AssemblyService::run_batch(std::vector<Job>& batch) {
  assert(!batch.empty());
  // One combined input: contig order is job order, contig *ids* are
  // preserved — per-contig fault keys and extensions are independent of
  // batch composition, which is what keeps coalesced results
  // bit-identical to the single-job oracle.
  core::AssemblyInput combined;
  combined.kmer_len = batch.front().input.kmer_len;
  std::vector<std::size_t> contig_offset(batch.size(), 0);
  std::uint64_t total_bases = 0;
  std::size_t total_contigs = 0;
  for (const Job& job : batch) {
    total_bases += job.input.reads.total_bases();
    total_contigs += job.input.num_contigs();
  }
  combined.contigs.reserve(total_contigs);
  combined.reads.reserve_bases(total_bases);
  combined.left_reads.reserve(total_contigs);
  combined.right_reads.reserve(total_contigs);
  for (std::size_t b = 0; b < batch.size(); ++b) {
    const core::AssemblyInput& in = batch[b].input;
    contig_offset[b] = combined.contigs.size();
    const std::uint32_t read_base =
        static_cast<std::uint32_t>(combined.reads.size());
    for (const bio::Contig& c : in.contigs) combined.contigs.push_back(c);
    for (std::size_t r = 0; r < in.reads.size(); ++r) {
      combined.reads.append(in.reads.seq(r), in.reads.qual(r));
    }
    const auto offset_side =
        [&](const std::vector<std::vector<std::uint32_t>>& side,
            std::vector<std::vector<std::uint32_t>>& out) {
          for (const auto& v : side) {
            std::vector<std::uint32_t> shifted;
            shifted.reserve(v.size());
            for (std::uint32_t r : v) shifted.push_back(r + read_base);
            out.push_back(std::move(shifted));
          }
        };
    offset_side(in.left_reads, combined.left_reads);
    offset_side(in.right_reads, combined.right_reads);
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.engine_runs;
    if (batch.size() > 1) ++counters_.coalesced_batches;
  }

  core::AssemblyResult result;
  try {
    result = assembler_.run(combined, engine_.get());
  } catch (const StatusError& e) {
    for (Job& job : batch) retry_or_fail(job, e.error());
    return;
  } catch (const std::exception& e) {
    for (Job& job : batch) {
      retry_or_fail(job, Error(ErrorCode::kInternal, e.what()));
    }
    return;
  }

  // Device loss mid-batch: rerun the unfinished slice under the recovery
  // rank (pipeline::recover_on_device, the pipeline drivers' recovery,
  // immune to further scheduled losses) and splice the recovered
  // extensions back in. Fault keys are content-derived, so the rerun is
  // bit-identical to an undisturbed run.
  if (result.device_lost) {
    (void)log::Logger::instance().incident(
        "serve_device_lost",
        {trace::Arg::n("completed_batches", result.completed_batches),
         trace::Arg::n("unfinished_contigs",
                       static_cast<double>(result.unfinished_contigs.size())),
         trace::Arg::n("batch_jobs", static_cast<double>(batch.size()))});
    try {
      pipeline::recover_on_device(assembler_, combined, result,
                                  engine_.get());
    } catch (const StatusError& e) {
      // The recovery rank cannot be scheduled for loss by parse()d plans;
      // a hand-built plan targeting it fails the whole batch, typed.
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++counters_.devices_lost;
      }
      for (Job& job : batch) finish_failed(job, e.error());
      return;
    }
  }
  // Surface a recovered device loss in the counters and job reports.
  const bool recovered = !result.failures.rebalances.empty();
  resilience::RebalanceEvent rebalance;
  if (recovered) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      counters_.devices_lost += result.failures.devices_lost;
    }
    rebalance = result.failures.rebalances.front();
  }

  // Split extensions back out per job and attribute quarantined faults by
  // contig fault key: a job fails iff one of *its* contigs was
  // quarantined; everyone else completes, bit-identical to their oracle.
  for (std::size_t b = 0; b < batch.size(); ++b) {
    Job& job = batch[b];
    const std::size_t off = contig_offset[b];
    const std::size_t n = job.input.num_contigs();
    std::vector<bio::ContigExtension> ext(
        result.extensions.begin() + static_cast<std::ptrdiff_t>(off),
        result.extensions.begin() + static_cast<std::ptrdiff_t>(off + n));

    resilience::FailureReport job_report;
    bool quarantined = false;
    for (const resilience::TaskFault& f : result.failures.faults) {
      bool mine = false;
      for (const bio::Contig& c : job.input.contigs) {
        if (f.fault_key == resilience::contig_fault_key(c.id, true) ||
            f.fault_key == resilience::contig_fault_key(c.id, false)) {
          mine = true;
          break;
        }
      }
      if (mine) {
        job_report.faults.push_back(f);
        if (f.quarantined) {
          quarantined = true;
          ++job_report.tasks_quarantined;
        } else {
          ++job_report.tasks_retried;
        }
      }
    }
    if (recovered) {
      job_report.rebalances.push_back(rebalance);
      ++job_report.devices_lost;
    }

    if (quarantined) {
      Error err(ErrorCode::kTaskFailed,
                std::to_string(job_report.tasks_quarantined) +
                    " task(s) quarantined");
      job.ticket_report = std::move(job_report);
      finish_failed(job, std::move(err));
      continue;
    }
    if (cache_.capacity() > 0) {
      cache_.put(job.cache_key, CachedResult{ext, result.total_time_s});
    }
    finish_completed(job, std::move(ext), result.total_time_s,
                     std::move(job_report), batch.size() > 1,
                     /*cache_hit=*/false, recovered);
  }
}

void AssemblyService::fill_stats(Job& job, JobOutcome& out) const {
  out.job_key = job.job_key;
  out.stats.attempts = job.attempt;
  out.stats.retries = job.retries;
  out.stats.backoff_ms = job.backoff_ms;
  const Clock::time_point now = Clock::now();
  out.stats.total_ms = ms_since(job.submit_time, now);
  out.stats.queue_ms =
      job.first_dispatch_set
          ? ms_since(job.submit_time, job.first_dispatch)
          : out.stats.total_ms;
}

void AssemblyService::finish_shed(Job& job, ErrorCode code,
                                  const std::string& why,
                                  std::uint64_t ServiceCounters::*slot) {
  JobOutcome out;
  out.state = JobState::kShed;
  out.status = Status(code, why);
  fill_stats(job, out);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++(counters_.*slot);
  }
  job.ticket->resolve(std::move(out));
  drain_cv_.notify_all();
}

void AssemblyService::finish_failed(Job& job, Error error) {
  JobOutcome out;
  out.state = JobState::kFailed;
  out.status = Status(std::move(error));
  out.report = std::move(job.ticket_report);
  fill_stats(job, out);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.failed;
    // Breaker accounting: consecutive failures quarantine the tenant.
    TenantState& tenant_state = tenants_[job.tenant];
    ++tenant_state.consecutive_failures;
    if (!tenant_state.breaker_open &&
        tenant_state.consecutive_failures >= kBreakerThreshold) {
      tenant_state.breaker_open = true;
      tenant_state.breaker_opened = Clock::now();
      (void)log::Logger::instance().incident(
          "circuit_open",
          {trace::Arg::s("tenant", job.tenant),
           trace::Arg::n("consecutive_failures",
                         tenant_state.consecutive_failures)});
    }
  }
  job.ticket->resolve(std::move(out));
  drain_cv_.notify_all();
}

void AssemblyService::finish_completed(Job& job,
                                       std::vector<bio::ContigExtension> ext,
                                       double modelled_s,
                                       resilience::FailureReport report,
                                       bool coalesced, bool cache_hit,
                                       bool recovered) {
  JobOutcome out;
  out.state = JobState::kCompleted;
  out.status = Status::ok();
  out.extensions = std::move(ext);
  out.modelled_time_s = modelled_s;
  out.report = std::move(report);
  fill_stats(job, out);
  // attempt 0: a hit answered in submit, which never queued.
  if (job.attempt == 0) out.stats.queue_ms = 0.0;
  out.stats.cache_hit = cache_hit;
  out.stats.coalesced = coalesced;
  out.stats.device_lost_recovered = recovered;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.completed;
    TenantState& tenant_state = tenants_[job.tenant];
    tenant_state.consecutive_failures = 0;
    tenant_state.breaker_open = false;
  }
  job.ticket->resolve(std::move(out));
  drain_cv_.notify_all();
}

void AssemblyService::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drain_cv_.wait(lock, [&] {
    return queue_.empty() && idle_ && counters_.accounted();
  });
}

void AssemblyService::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopped_ = true;
    paused_ = false;
  }
  cv_.notify_all();
  std::lock_guard<std::mutex> join_lock(join_mutex_);
  if (dispatcher_.joinable()) dispatcher_.join();
}

void AssemblyService::resume() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  cv_.notify_all();
}

ServiceCounters AssemblyService::counters() const {
  ServiceCounters c;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    c = counters_;
  }
  const ResultCache::Stats cs = cache_.stats();
  c.cache_hits = cs.hits;
  c.cache_misses = cs.misses;
  c.cache_corrupt = cs.corruptions;
  return c;
}

}  // namespace lassm::serve
