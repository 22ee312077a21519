#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/assembler.hpp"
#include "core/exec.hpp"
#include "resilience/fault_plan.hpp"
#include "resilience/report.hpp"
#include "resilience/status.hpp"
#include "serve/result_cache.hpp"

/// Assembly-as-a-service: a persistent multi-tenant front door over one
/// `WarpExecutionEngine`. Jobs enter through a bounded admission queue
/// (per-tenant circuit breaker, overflow shedding),
/// are coalesced into warp-pool batches, retried with exponential backoff
/// + deterministic jitter on transient faults, and shed — never silently
/// half-run — when past their deadline. A job whose bytes were assembled
/// before is served from the content-addressed ResultCache: `submit`
/// probes it once admission has passed and answers a hit on the caller's
/// thread, so hits never queue behind misses; a submit-time miss is
/// probed again at dispatch, where a copy that landed meanwhile still
/// hits. Every job ends in exactly one of {completed, shed, failed}
/// with a typed Status: submitted == completed + shed + failed is the
/// accounting invariant the soak gate enforces.
///
/// Determinism contract: per-job *results* are bit-identical to a direct
/// single-job `LocalAssembler::run` oracle at every worker-thread count
/// and under any coalescing, because per-contig extensions are
/// independent of batch composition and fault keys are content-derived
/// (contig ids / job keys), never timing-derived. Which jobs are shed by
/// deadline or queue capacity is wall-clock dependent by nature; which
/// jobs are shed by an armed `queue_overflow` / `job_timeout` seam is a
/// pure function of (plan seed, job key).
namespace lassm::serve {

/// Tuning of one AssemblyService instance.
struct ServiceConfig {
  simt::DeviceSpec device = simt::DeviceSpec::a100();
  simt::ProgrammingModel pm = simt::ProgrammingModel::kCuda;
  /// Engine/kernel options. `fault_plan` here arms the whole stack: the
  /// service seams (queue_overflow, job_timeout, cache_corrupt), the
  /// per-task isolation seams, and device loss. When null the service
  /// arms an owned empty plan so jobs always ride the isolated path.
  core::AssemblyOptions assembly;

  std::size_t queue_capacity = 64;   ///< admission bound; overflow sheds
  std::size_t cache_capacity = 256;  ///< ResultCache entries; 0 disables

  /// Tests only: construct with the dispatcher parked so admission
  /// behaviour (overflow, deadline expiry while queued) can be exercised
  /// deterministically; resume() starts dispatch.
  bool start_paused = false;
};

/// Terminal states a job can reach (exactly one, exactly once). The
/// numbering is stable: perfbench's outcome digest hashes it.
enum class JobState : std::uint8_t {
  kQueued = 0,  ///< JobOutcome's default; wait() never returns it
  /// Extensions delivered, status ok.
  kCompleted = 2,
  /// Rejected by admission or deadline; the typed status says why.
  kShed = 3,
  /// Ran and failed (quarantined tasks / retries exhausted).
  kFailed = 4,
};

/// Per-job observability riding along the outcome.
struct JobStats {
  /// Dispatch attempts: 1 = first try ran; 0 = never dispatched (shed at
  /// admission, or a cache hit answered in submit).
  unsigned attempts = 0;
  unsigned retries = 0;       ///< requeues after transient faults
  double backoff_ms = 0.0;    ///< total backoff this job waited
  bool cache_hit = false;
  bool coalesced = false;     ///< ran in a batch with other jobs
  bool device_lost_recovered = false;
  /// submit -> first dispatch; 0 for a cache hit answered in submit,
  /// which never queued.
  double queue_ms = 0.0;
  double total_ms = 0.0;      ///< submit -> terminal state
};

/// The one record a client gets back per job.
struct JobOutcome {
  JobState state = JobState::kQueued;
  Status status;  ///< ok iff state == kCompleted
  /// Per input contig (same order), bit-identical to the single-job
  /// oracle. Empty unless completed.
  std::vector<bio::ContigExtension> extensions;
  double modelled_time_s = 0.0;
  JobStats stats;
  /// Faults attributed to this job's contigs (quarantines, rebalances
  /// from device-loss recovery). Shed/retried work is accounted in
  /// `stats` and the service counters, never silently lost.
  resilience::FailureReport report;
  std::uint64_t job_key = 0;
};

/// Future-like handle: resolved exactly once by the service.
class JobTicket {
 public:
  /// Blocks until the job reaches a terminal state. Returns a copy so the
  /// idiom `service.submit(...)->wait()` is safe even though the
  /// temporary TicketPtr may be the outcome's last owner.
  JobOutcome wait() const;
  bool done() const;

 private:
  friend class AssemblyService;
  void resolve(JobOutcome outcome);

  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  JobOutcome outcome_;
  bool done_ = false;
};

using TicketPtr = std::shared_ptr<JobTicket>;

/// Exact service-lifetime accounting: the service's only count. It is
/// updated under the service mutex, so a counters() snapshot is
/// consistent and the invariant check race-free and exact.
struct ServiceCounters {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed_deadline = 0;
  std::uint64_t shed_overflow = 0;
  std::uint64_t shed_breaker = 0;
  std::uint64_t shed_stopped = 0;
  std::uint64_t retries = 0;
  std::uint64_t coalesced_batches = 0;
  std::uint64_t engine_runs = 0;
  std::uint64_t devices_lost = 0;
  /// The cache's own stats, counted per lookup (ResultCache::Stats): a
  /// job that misses at submit and again at dispatch counts two misses.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_corrupt = 0;
  std::uint64_t queue_depth_peak = 0;

  std::uint64_t shed_total() const noexcept {
    return shed_deadline + shed_overflow + shed_breaker + shed_stopped;
  }
  /// The invariant: every submitted job reached exactly one terminal
  /// state. Only meaningful once the service is drained/stopped.
  bool accounted() const noexcept {
    return submitted == completed + failed + shed_total();
  }
};

/// The service. One dispatcher thread owns the engine; submit() is safe
/// from any number of client threads.
class AssemblyService {
 public:
  /// Job-level retry budget for transient dispatch faults (injected
  /// task_exception at the job key, or run() throwing).
  static constexpr unsigned kMaxJobRetries = 2;
  /// Circuit breaker: this many consecutive job failures quarantine the
  /// tenant (submissions shed kUnavailable) until the cooldown passes;
  /// the first post-cooldown job probes half-open.
  static constexpr unsigned kBreakerThreshold = 4;
  static constexpr std::uint32_t kBreakerCooldownMs = 50;

  explicit AssemblyService(ServiceConfig cfg);
  ~AssemblyService();

  AssemblyService(const AssemblyService&) = delete;
  AssemblyService& operator=(const AssemblyService&) = delete;

  /// Submits one job. `deadline_ms` (0 = none) is wall-clock from now:
  /// a job still queued past its deadline is shed with
  /// kDeadlineExceeded at dispatch — never silently half-run. The
  /// returned ticket resolves exactly once; an admitted cache hit has
  /// resolved it before submit returns.
  TicketPtr submit(const std::string& tenant, core::AssemblyInput input,
                   double deadline_ms = 0.0);

  /// Blocks until every submitted job has reached a terminal state.
  void drain();

  /// Stops accepting work, sheds everything still queued (kUnavailable)
  /// and joins the dispatcher. Idempotent; the destructor calls it.
  void stop();

  /// start_paused escape hatch (tests): begin dispatching.
  void resume();

  ServiceCounters counters() const;
  ResultCache::Stats cache_stats() const { return cache_.stats(); }
  /// True when the engine fell back to fewer workers than requested
  /// (e.g. an armed pool_start seam): degraded, still correct.
  bool degraded() const;
  const ServiceConfig& config() const noexcept { return cfg_; }

 private:
  struct Job {
    std::uint64_t job_key = 0;
    std::string tenant;
    core::AssemblyInput input;
    TicketPtr ticket;
    std::chrono::steady_clock::time_point submit_time;
    std::chrono::steady_clock::time_point not_before;  ///< backoff gate
    std::chrono::steady_clock::time_point first_dispatch;
    bool first_dispatch_set = false;
    double deadline_ms = 0.0;
    unsigned attempt = 0;
    unsigned retries = 0;
    double backoff_ms = 0.0;
    CacheKey cache_key;
    resilience::FailureReport ticket_report;  ///< staged for the outcome
  };

  void dispatcher_loop();
  /// Pops the first ready job (not_before passed); nullopt when the
  /// queue has none ready. Caller holds `mutex_`.
  std::optional<Job> pop_ready_locked(
      std::chrono::steady_clock::time_point now);
  /// Terminal-state helpers: bump the counters, resolve the ticket.
  void finish_shed(Job& job, ErrorCode code, const std::string& why,
                   std::uint64_t ServiceCounters::*slot);
  void finish_failed(Job& job, Error error);
  void finish_completed(Job& job, std::vector<bio::ContigExtension> ext,
                        double modelled_s, resilience::FailureReport report,
                        bool coalesced, bool cache_hit, bool recovered);
  /// Requeues the job with exponential backoff + deterministic jitter, or
  /// fails it typed once the retry budget is spent.
  void retry_or_fail(Job& job, Error error);
  /// Runs one coalesced batch of jobs on the engine (with device-loss
  /// recovery) and resolves every member.
  void run_batch(std::vector<Job>& batch);
  /// True when the job was resolved (deadline/seam/cache) or requeued for
  /// backoff; false when it was pushed into `batch` for dispatch.
  bool preflight(Job&& job, std::vector<Job>& batch);
  /// The one cache probe, shared by submit and preflight: looks the job's
  /// key up and reports a corruption this lookup found as a
  /// `cache_corrupt` incident naming the job.
  std::optional<CachedResult> probe_cache(const Job& job);

  bool past_deadline(const Job& job,
                     std::chrono::steady_clock::time_point now) const;
  void fill_stats(Job& job, JobOutcome& out) const;
  double elapsed_ms(std::chrono::steady_clock::time_point since) const;

  ServiceConfig cfg_;
  resilience::FaultPlan empty_plan_;  ///< armed when cfg has no plan
  const resilience::FaultPlan* plan_ = nullptr;  ///< never null after ctor
  core::LocalAssembler assembler_;
  std::uint64_t options_fp_ = 0;  ///< fixed for the service's lifetime
  std::unique_ptr<core::WarpExecutionEngine> engine_;
  ResultCache cache_;

  /// Guards the queue, the flags, the tenants and the counters.
  mutable std::mutex mutex_;
  std::condition_variable cv_;        ///< dispatcher wakeups
  std::condition_variable drain_cv_;  ///< drain() wakeups
  std::deque<Job> queue_;
  bool stopped_ = false;
  bool paused_ = false;
  bool idle_ = true;  ///< dispatcher not holding any popped job

  struct TenantState {
    unsigned consecutive_failures = 0;
    bool breaker_open = false;
    std::chrono::steady_clock::time_point breaker_opened;
    std::uint64_t next_seq = 0;
  };
  std::unordered_map<std::string, TenantState> tenants_;
  ServiceCounters counters_;

  std::mutex join_mutex_;  ///< serialises concurrent stop() joins
  std::thread dispatcher_;
};

/// The job-key space is disjoint from contig fault keys by construction:
/// a full-avalanche mix of (tenant hash, per-tenant sequence number).
/// Stable across runs when each tenant submits in a stable order.
std::uint64_t make_job_key(const std::string& tenant,
                           std::uint64_t seq) noexcept;

}  // namespace lassm::serve
