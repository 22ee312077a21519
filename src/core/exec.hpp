#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/kernel.hpp"
#include "core/options.hpp"
#include "resilience/fault_plan.hpp"
#include "resilience/report.hpp"
#include "simt/device.hpp"
#include "trace/trace.hpp"

namespace lassm::core {

/// Resolves an AssemblyOptions::n_threads value: 0 means one thread per
/// hardware thread (at least 1).
unsigned resolve_threads(unsigned n_threads) noexcept;

/// Parallel execution engine for simulated warps: a persistent pool of
/// host threads that drains batches of `WarpTask`s, mirroring how the GPU
/// driver launches thousands of independent single-warp mer-walks
/// concurrently (the contig independence the paper's whole offload rests
/// on).
///
/// Scheduling: the batch's index range is split into one contiguous
/// segment per worker; workers self-schedule chunks from their own segment
/// and steal chunks from other segments once theirs drains, so the
/// straggler tail of a batch (binning makes batches homogeneous, but not
/// perfectly) is shared instead of serialised.
///
/// Determinism: every task writes only its own pre-assigned result slot
/// and each WarpKernelContext::run is a pure function of (configuration,
/// task) — see the context's reset contract — so results are bit-identical
/// for every thread count and every steal interleaving. Stats merging is
/// the caller's job and happens in task order after run_batch returns;
/// nothing about host threading feeds the performance model, so modelled
/// kernel time is unchanged by this engine.
///
/// Worker state: each worker owns one lazily created WarpKernelContext
/// (hash-table slab, lane array, walk buffer, tiered-cache hierarchy) that
/// is reset — never reallocated — between tasks, and reconfigured in place
/// when a batch's warp concurrency changes the fair-share cache slices.
///
/// Observability: when AssemblyOptions::trace is set, each worker records
/// wall-clock chunk spans and steal instants into its own span buffer (one
/// host track per worker); buffers are absorbed into the tracer in
/// worker-id order after the launch barrier, so the merge is
/// deterministic. Claim/steal totals land on the tracer's metrics
/// registry. With tracing off the only cost is one pointer check per
/// chunk.
class WarpExecutionEngine {
 public:
  /// Spawns `resolve_threads(n_threads) - 1` pool threads; the thread
  /// calling run_batch participates as worker 0.
  ///
  /// Pool-start failure (a std::thread that cannot be created, or the
  /// injected kPoolStart seam of an armed fault plan) degrades instead of
  /// throwing: the engine keeps whatever workers it managed to start — in
  /// the worst case only the caller — and reports degraded(). Results are
  /// unaffected by construction (bit-identical at every worker count).
  WarpExecutionEngine(const simt::DeviceSpec& dev, simt::ProgrammingModel pm,
                      const AssemblyOptions& opts, unsigned n_threads = 0);
  ~WarpExecutionEngine();

  WarpExecutionEngine(const WarpExecutionEngine&) = delete;
  WarpExecutionEngine& operator=(const WarpExecutionEngine&) = delete;

  unsigned n_threads() const noexcept { return n_threads_; }

  /// True when the constructor could not start the requested pool and the
  /// engine is running with fewer workers than asked for.
  bool degraded() const noexcept { return degraded_; }

  /// Runs `body(i, ctx)` for every i in [0, n) across the pool and blocks
  /// until all calls completed (the launch barrier). `concurrency` is the
  /// batch's modelled resident-warp count, forwarded to each worker's
  /// context for the warp-effective cache slicing — the same value the
  /// serial path passes to its per-batch context. `body` must be safe to
  /// invoke concurrently for distinct i (warp tasks are: disjoint result
  /// slots, shared read-only input). The first exception thrown by `body`
  /// is rethrown here after the barrier.
  void run_batch(std::size_t n, std::uint64_t concurrency,
                 const std::function<void(std::size_t, WarpKernelContext&)>&
                     body);

  /// Runs `body(i, worker_id)` for every i in [0, n) across the pool — the
  /// host-task variant of run_batch for work that is not a simulated warp
  /// (the pipeline front-end's counting/graph/alignment stages). Same
  /// scheduling (segments, chunk claiming, stealing), same launch barrier,
  /// same chunk-span/steal tracing and first-exception rethrow; the only
  /// difference is that no WarpKernelContext is created or passed — pure
  /// host jobs on a pool that never ran a warp batch allocate no simulator
  /// state at all. `worker_id` (in [0, n_threads())) lets the body index
  /// per-worker scratch; `body` must be safe to invoke concurrently for
  /// distinct i.
  ///
  /// Memory-ordering contract: the return is a full barrier — every write
  /// made by any body invocation happens-before the caller's subsequent
  /// reads, and no body code runs after the return. Callers may therefore
  /// read batch results plainly (no atomics) between batches; this is the
  /// quiescence point the concurrent k-mer table's reserve/export steps
  /// build on.
  void run_host_batch(std::size_t n,
                      const std::function<void(std::size_t, unsigned)>& body);

  /// The hardened variant of run_batch: per-task exception isolation with
  /// bounded deterministic retry and quarantine instead of run_batch's
  /// fail-the-launch rethrow.
  ///
  /// `body(i, ctx, attempt)` runs every task; a task that throws is
  /// recorded in its own slot (slots are disjoint — no worker blocks or
  /// poisons another) and, after the launch barrier, retried by the
  /// calling thread in ascending task order on worker 0's context, up to
  /// `max_retries` more attempts. A task that still fails is quarantined:
  /// its result slot keeps whatever the body left (for warp tasks,
  /// nothing), and a TaskFault lands in `report`. `key_of(i)` supplies the
  /// task's stable fault key, used both for reporting and for the engine's
  /// own kTaskException injection seam when `plan` is armed (transient:
  /// fires only at attempt 0, so the first retry clears it).
  ///
  /// Determinism: injection is a pure function of (plan, key, attempt),
  /// retries run serially in ascending order on one context, and isolation
  /// only observes exceptions — with no armed seam firing, results are
  /// byte-identical to run_batch at every thread count.
  void run_batch_isolated(
      std::size_t n, std::uint64_t concurrency,
      const std::function<void(std::size_t, WarpKernelContext&, unsigned)>&
          body,
      const std::function<std::uint64_t(std::size_t)>& key_of,
      const resilience::FaultPlan* plan, unsigned max_retries,
      std::uint64_t batch_ordinal, resilience::FailureReport& report);

 private:
  /// One worker's slice of the batch: [next, end) items not yet claimed.
  /// Chunks are claimed with fetch_add, by the owner and by thieves alike,
  /// so a chunk is processed exactly once.
  struct Segment {
    std::atomic<std::size_t> next{0};
    std::size_t end = 0;
  };

  /// One parallel region (one simulated kernel launch, or one host-task
  /// batch — exactly one of `body` / `host_body` is set).
  struct Job {
    std::size_t n = 0;
    std::size_t chunk = 1;
    std::uint64_t concurrency = 0;
    unsigned participants = 0;
    const std::function<void(std::size_t, WarpKernelContext&)>* body =
        nullptr;
    const std::function<void(std::size_t, unsigned)>* host_body = nullptr;
    std::unique_ptr<Segment[]> segments;
    std::atomic<unsigned> finished{0};
    std::exception_ptr error;  ///< first failure, guarded by engine mutex
  };

  void worker_loop(unsigned wid);
  void work_on(Job& job, unsigned wid);
  /// Shared scheduling core of run_batch/run_host_batch: chunks and
  /// publishes the prepared job, participates as worker 0, waits out the
  /// barrier, absorbs trace buffers and rethrows the first error.
  void execute(Job& job);
  WarpKernelContext& context_for(unsigned wid, std::uint64_t concurrency);

  const simt::DeviceSpec& dev_;
  simt::ProgrammingModel pm_;
  AssemblyOptions opts_;
  unsigned n_threads_;

  /// Observability (all null/empty when opts_.trace is unset).
  trace::Tracer* tracer_ = nullptr;
  std::vector<std::uint32_t> worker_tracks_;     ///< host track per worker
  std::vector<trace::Tracer::Buffer> worker_buffers_;
  trace::Counter* claims_metric_ = nullptr;
  trace::Counter* steals_metric_ = nullptr;

  /// Per-worker contexts (index = worker id); each is touched only by its
  /// owning thread while a job runs.
  std::vector<std::unique_ptr<WarpKernelContext>> contexts_;
  std::vector<std::uint64_t> context_concurrency_;

  std::mutex mutex_;
  std::condition_variable wake_;   ///< pool threads wait for a new job
  std::condition_variable done_;   ///< caller waits for the barrier
  Job* job_ = nullptr;
  std::uint64_t epoch_ = 0;        ///< bumped once per published job
  bool stopping_ = false;
  bool degraded_ = false;          ///< pool start failed; fewer workers
  std::vector<std::thread> pool_;
};

}  // namespace lassm::core
