#include "core/exec.hpp"

#include <algorithm>

#include "trace/log.hpp"

namespace lassm::core {

unsigned resolve_threads(unsigned n_threads) noexcept {
  if (n_threads != 0) return n_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

WarpExecutionEngine::WarpExecutionEngine(const simt::DeviceSpec& dev,
                                         simt::ProgrammingModel pm,
                                         const AssemblyOptions& opts,
                                         unsigned n_threads)
    : dev_(dev), pm_(pm), opts_(opts),
      n_threads_(resolve_threads(n_threads)), tracer_(opts.trace) {
  // Injected pool-start failure (kPoolStart seam): behave exactly as if no
  // worker thread could be created — run caller-only, degraded.
  const resilience::FaultPlan* plan = opts.fault_plan;
  if (plan != nullptr && n_threads_ > 1 &&
      plan->fires(resilience::Seam::kPoolStart, 0)) {
    n_threads_ = 1;
    degraded_ = true;
  }
  // Serial-fallback degradation: a thread the OS refuses to create shrinks
  // the pool to whatever started (worst case just the caller) instead of
  // failing the run — results are bit-identical at any worker count.
  pool_.reserve(n_threads_ - 1);
  for (unsigned wid = 1; wid < n_threads_; ++wid) {
    try {
      pool_.emplace_back([this, wid] { worker_loop(wid); });
    } catch (const std::system_error&) {
      n_threads_ = static_cast<unsigned>(pool_.size()) + 1;
      degraded_ = true;
      break;
    }
  }
  contexts_.resize(n_threads_);
  context_concurrency_.assign(n_threads_, 0);
  if (tracer_ != nullptr) {
    // Register every worker's host track (and the claim/steal counters) up
    // front so nothing in the hot loop has to take the tracer mutex. Pool
    // threads idle until run_batch publishes a job, so filling these after
    // the spawn is safe.
    worker_tracks_.reserve(n_threads_);
    for (unsigned wid = 0; wid < n_threads_; ++wid) {
      worker_tracks_.push_back(
          tracer_->track("host", "worker " + std::to_string(wid)));
    }
    worker_buffers_.resize(n_threads_);
    claims_metric_ = &tracer_->metrics().counter(trace::names::kExecClaims);
    steals_metric_ = &tracer_->metrics().counter(trace::names::kExecSteals);
  }
}

WarpExecutionEngine::~WarpExecutionEngine() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : pool_) t.join();
}

WarpKernelContext& WarpExecutionEngine::context_for(
    unsigned wid, std::uint64_t concurrency) {
  std::unique_ptr<WarpKernelContext>& ctx = contexts_[wid];
  if (ctx == nullptr) {
    ctx = std::make_unique<WarpKernelContext>(dev_, pm_, opts_, concurrency);
  } else if (context_concurrency_[wid] != concurrency) {
    ctx->reconfigure(concurrency);
  }
  context_concurrency_[wid] = concurrency;
  return *ctx;
}

void WarpExecutionEngine::work_on(Job& job, unsigned wid) {
  // Host jobs never touch the simulator: no context is created, so a pool
  // used only by the pipeline front-end stays allocation-free.
  WarpKernelContext* const ctx =
      job.body != nullptr ? &context_for(wid, job.concurrency) : nullptr;
  const auto run_range = [&](std::size_t begin, std::size_t end) {
    if (job.body != nullptr) {
      for (std::size_t i = begin; i < end; ++i) (*job.body)(i, *ctx);
    } else {
      for (std::size_t i = begin; i < end; ++i) (*job.host_body)(i, wid);
    }
  };
  try {
    // Own segment first, then sweep the others for chunks to steal. The
    // sweep repeats until a full pass over every segment finds nothing
    // claimable; claimed chunks always run to completion on their claimer,
    // so once every worker's sweep comes up dry the batch is fully
    // assigned, and the barrier below waits out the in-flight tasks.
    for (unsigned round = 0; round < job.participants; ++round) {
      const unsigned owner = (wid + round) % job.participants;
      Segment& seg = job.segments[owner];
      for (;;) {
        const std::size_t begin = seg.next.fetch_add(
            job.chunk, std::memory_order_relaxed);
        if (begin >= seg.end) break;
        const std::size_t end = std::min(seg.end, begin + job.chunk);
        if (tracer_ == nullptr) {
          run_range(begin, end);
        } else {
          const bool stolen = owner != wid;
          const double t0 = tracer_->host_now_us();
          // The chunk span closes whether the range returns or throws: a
          // task exception escaping the body must not leak an unbalanced
          // span or lose the steal record, because this worker's buffer is
          // absorbed (in worker-id order) even when the job fails.
          const auto record_chunk = [&](bool failed) {
            const double t1 = tracer_->host_now_us();
            trace::Tracer::Buffer& buf = worker_buffers_[wid];
            if (stolen) {
              buf.instant(worker_tracks_[wid], "steal", "host", t0,
                          {trace::Arg::n("from", owner)});
              steals_metric_->add();
            }
            std::vector<trace::Arg> args = {
                trace::Arg::n("first", static_cast<double>(begin)),
                trace::Arg::n("count", static_cast<double>(end - begin)),
                trace::Arg::n("segment", owner)};
            if (failed) args.push_back(trace::Arg::s("error", "thrown"));
            buf.complete(worker_tracks_[wid], "chunk", "host", t0, t1 - t0,
                         std::move(args));
            claims_metric_->add();
          };
          try {
            run_range(begin, end);
          } catch (...) {
            record_chunk(/*failed=*/true);
            throw;
          }
          record_chunk(/*failed=*/false);
        }
      }
    }
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!job.error) job.error = std::current_exception();
  }
}

void WarpExecutionEngine::worker_loop(unsigned wid) {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_.wait(lock, [&] { return stopping_ || epoch_ != seen; });
    if (stopping_) return;
    seen = epoch_;
    Job* job = job_;
    // `job` lives on the caller's stack and dies once `execute` observes
    // finished == participants. A worker outside the job is not waited
    // for, so it may read `participants` only under the lock that
    // published the job; a participant's fetch_add below is its last
    // access.
    const unsigned participants = job != nullptr ? job->participants : 0;
    lock.unlock();
    if (wid < participants) {
      work_on(*job, wid);
      const unsigned before =
          job->finished.fetch_add(1, std::memory_order_acq_rel);
      if (before + 1 == participants) {
        // Re-acquire before notifying so the caller cannot miss the wake
        // between its predicate check and its wait.
        std::lock_guard<std::mutex> done_lock(mutex_);
        done_.notify_all();
      }
    }
    lock.lock();
  }
}

void WarpExecutionEngine::run_batch(
    std::size_t n, std::uint64_t concurrency,
    const std::function<void(std::size_t, WarpKernelContext&)>& body) {
  if (n == 0) return;
  Job job;
  job.n = n;
  job.concurrency = concurrency;
  job.body = &body;
  execute(job);
}

void WarpExecutionEngine::run_host_batch(
    std::size_t n, const std::function<void(std::size_t, unsigned)>& body) {
  if (n == 0) return;
  Job job;
  job.n = n;
  job.host_body = &body;
  execute(job);
}

void WarpExecutionEngine::execute(Job& job) {
  const std::size_t n = job.n;
  job.participants =
      static_cast<unsigned>(std::min<std::size_t>(n_threads_, n));
  // Chunked self-scheduling: ~4 chunks per worker amortises the claim
  // atomics while leaving enough pieces for stealing to even out the
  // straggler tail; capped so huge batches still interleave finely.
  job.chunk = std::clamp<std::size_t>(n / (4 * job.participants), 1, 32);
  job.segments = std::make_unique<Segment[]>(job.participants);
  const std::size_t per_worker =
      (n + job.participants - 1) / job.participants;
  for (unsigned w = 0; w < job.participants; ++w) {
    const std::size_t begin = std::min<std::size_t>(n, w * per_worker);
    job.segments[w].next.store(begin, std::memory_order_relaxed);
    job.segments[w].end = std::min<std::size_t>(n, begin + per_worker);
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &job;
    ++epoch_;
  }
  wake_.notify_all();

  // The caller is worker 0.
  work_on(job, 0);
  job.finished.fetch_add(1, std::memory_order_acq_rel);

  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [&] {
      return job.finished.load(std::memory_order_acquire) ==
             job.participants;
    });
    job_ = nullptr;
  }
  if (tracer_ != nullptr) {
    // Deterministic merge: thread-local span buffers drain in worker-id
    // order once the launch barrier has passed.
    for (unsigned w = 0; w < job.participants; ++w) {
      tracer_->absorb(worker_buffers_[w]);
    }
  }
  if (job.error) std::rethrow_exception(job.error);
}

void WarpExecutionEngine::run_batch_isolated(
    std::size_t n, std::uint64_t concurrency,
    const std::function<void(std::size_t, WarpKernelContext&, unsigned)>&
        body,
    const std::function<std::uint64_t(std::size_t)>& key_of,
    const resilience::FaultPlan* plan, unsigned max_retries,
    std::uint64_t batch_ordinal, resilience::FailureReport& report) {
  if (n == 0) return;
  using resilience::Seam;

  // Per-task failure slots: disjoint, so workers record their own tasks'
  // exceptions without any lock, and a thrown task can never poison a
  // sibling or take down the launch.
  std::vector<std::exception_ptr> errors(n);

  const auto attempt_once = [&](std::size_t i, WarpKernelContext& ctx,
                                unsigned attempt) {
    try {
      if (plan != nullptr &&
          plan->fires(Seam::kTaskException, key_of(i), attempt)) {
        // Ring-only at the default level; the flight recorder still
        // captures it, so an incident dump names the seam that fired.
        log::debug("exec", "seam_fired",
                   {trace::Arg::s("seam",
                                  resilience::seam_name(
                                      Seam::kTaskException)),
                    trace::Arg::n("fault_key",
                                  static_cast<double>(key_of(i))),
                    trace::Arg::n("index", static_cast<double>(i)),
                    trace::Arg::n("attempt", attempt)});
        throw StatusError(
            Error(ErrorCode::kTaskFailed, "injected worker-task exception",
                  SourceContext{"task", 0, key_of(i)}));
      }
      body(i, ctx, attempt);
      errors[i] = nullptr;
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };

  run_batch(n, concurrency,
            [&](std::size_t i, WarpKernelContext& ctx) {
              attempt_once(i, ctx, 0);
            });

  // Retry pass: driver-side, ascending task order, on worker 0's context —
  // one deterministic serial schedule regardless of which worker failed
  // the task or how many threads the pool has.
  for (std::size_t i = 0; i < n; ++i) {
    if (!errors[i]) continue;
    unsigned attempts = 1;
    for (unsigned retry = 1; retry <= max_retries && errors[i]; ++retry) {
      ++report.tasks_retried;
      log::debug("exec", "task_retry",
                 {trace::Arg::n("fault_key", static_cast<double>(key_of(i))),
                  trace::Arg::n("index", static_cast<double>(i)),
                  trace::Arg::n("retry", retry)});
      attempt_once(i, context_for(0, concurrency), retry);
      ++attempts;
    }

    resilience::TaskFault fault;
    fault.fault_key = key_of(i);
    fault.batch = batch_ordinal;
    fault.index = i;
    fault.attempts = attempts;
    fault.quarantined = static_cast<bool>(errors[i]);
    if (errors[i]) {
      ++report.tasks_quarantined;
      try {
        std::rethrow_exception(errors[i]);
      } catch (const StatusError& e) {
        fault.code = e.code();
        fault.message = e.error().message();
      } catch (const std::exception& e) {
        fault.code = ErrorCode::kTaskFailed;
        fault.message = e.what();
      } catch (...) {
        fault.code = ErrorCode::kTaskFailed;
        fault.message = "unknown exception";
      }
      // The incident record carries the work-item identity; the dump it
      // triggers appends the flight ring (seam fires, retries) behind it.
      (void)log::Logger::instance().incident(
          "task_quarantined",
          {trace::Arg::n("fault_key", static_cast<double>(fault.fault_key)),
           trace::Arg::n("batch", static_cast<double>(fault.batch)),
           trace::Arg::n("index", static_cast<double>(fault.index)),
           trace::Arg::n("attempts", fault.attempts),
           trace::Arg::s("code", error_code_name(fault.code)),
           trace::Arg::s("message", fault.message)});
    } else {
      // Retried to success: transient fault absorbed.
      fault.code = ErrorCode::kTaskFailed;
      fault.message = "transient failure, recovered by retry";
      log::info("exec", "task_recovered",
                {trace::Arg::n("fault_key",
                               static_cast<double>(fault.fault_key)),
                 trace::Arg::n("index", static_cast<double>(fault.index)),
                 trace::Arg::n("attempts", fault.attempts)});
    }
    report.faults.push_back(std::move(fault));
  }
}

}  // namespace lassm::core
