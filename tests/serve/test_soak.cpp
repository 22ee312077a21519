#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "serve/loadgen.hpp"
#include "serve/service.hpp"
#include "serve_test_util.hpp"

/// Fault-storm soak: every admission seam armed at once, open-loop 4x
/// overload, many tenants — and the accounting invariant must hold
/// exactly: shed + completed + failed == submitted, with every ticket
/// resolved exactly once. The overload job count defaults small for
/// ctest; check.sh raises it to 10k via LASSM_SOAK_JOBS for the
/// sanitizer gates.
namespace lassm::serve {
namespace {

unsigned soak_jobs() {
  const char* env = std::getenv("LASSM_SOAK_JOBS");
  if (env != nullptr && *env != '\0') {
    const long v = std::atol(env);
    if (v > 0) return static_cast<unsigned>(v);
  }
  return 160;
}

resilience::FaultPlan storm_plan() {
  Result<resilience::FaultPlan> parsed = resilience::FaultPlan::parse(
      "seed=11 task_exception=0.10 bad_input=0.02 mem_stall=0.05 "
      "walk_hang=0.02 queue_overflow=0.05 job_timeout=0.05 "
      "cache_corrupt=0.30");
  EXPECT_TRUE(parsed.is_ok());
  return std::move(parsed).take();
}

// Closed loop with the cache off: no real overflow (queue depth stays at
// the tenant count) and no cache interception, so the set of jobs that
// reaches each seam is a pure function of (plan seed, job keys) — the
// retry/shed counts below are deterministic, not timing-lucky.
TEST(ServeSoak, ClosedLoopStormIsDeterministicallyAccounted) {
  const resilience::FaultPlan storm = storm_plan();
  ServiceConfig cfg;
  cfg.assembly.fault_plan = &storm;
  cfg.cache_capacity = 0;
  AssemblyService service(cfg);

  LoadGenConfig lg;
  lg.tenants = 4;
  lg.jobs_per_tenant = 40;
  lg.distinct_datasets = 8;
  lg.contigs_per_job = 3;
  lg.reads_per_job = 18;
  const LoadGenReport report = run_closed_loop(service, lg);

  EXPECT_EQ(report.submitted, 160U);
  EXPECT_TRUE(report.accounted);
  testutil::expect_accounted(service);

  const ServiceCounters c = service.counters();
  // The seams really fired, deterministically: injected queue overflows
  // and job timeouts shed, injected transient faults retried and then
  // completed (transient seams never fire on the retry attempt).
  EXPECT_GT(c.shed_overflow + c.shed_deadline, 0U);
  // No tenant fails kBreakerThreshold jobs in a row at this seed; the
  // count is a pure function of the job keys.
  EXPECT_EQ(c.shed_breaker, 0U);
  EXPECT_GT(c.retries, 0U);
  EXPECT_GT(report.retried_jobs, 0U);
  EXPECT_GT(report.completed, 0U);
}

TEST(ServeSoak, FaultStormOverloadAccountsEveryJobExactlyOnce) {
  const resilience::FaultPlan storm = storm_plan();
  ServiceConfig cfg;
  cfg.assembly.fault_plan = &storm;
  cfg.queue_capacity = 24;  // the open loop pushes ~4x this depth
  AssemblyService service(cfg);

  LoadGenConfig lg;
  lg.tenants = 4;
  lg.jobs_per_tenant = (soak_jobs() + lg.tenants - 1) / lg.tenants;
  lg.distinct_datasets = 8;
  lg.contigs_per_job = 3;
  lg.reads_per_job = 18;
  lg.repeat_fraction = 0.6;
  const LoadGenReport report = run_open_loop(service, lg);

  EXPECT_EQ(report.submitted,
            static_cast<std::uint64_t>(lg.tenants) * lg.jobs_per_tenant);
  EXPECT_TRUE(report.accounted)
      << "submitted=" << report.submitted
      << " completed=" << report.completed << " shed=" << report.shed
      << " failed=" << report.failed;
  testutil::expect_accounted(service);

  const ServiceCounters c = service.counters();
  EXPECT_GT(c.shed_total(), 0U);
  EXPECT_GT(report.completed, 0U);
  // Overload relief came from coalescing and the cache.
  EXPECT_GT(c.coalesced_batches, 0U);
  EXPECT_GT(c.cache_hits, 0U);

  // The armed corruption seam is caught (corrupt entries recompute, never
  // serve). Under the open-loop storm, whether a selected entry is stored
  // and then read again depends on the wall clock, so the check runs on a
  // closed phase after the drain: one fresh tenant submits and waits on
  // every pool dataset twice. Its job keys, and so every seam draw, are a
  // pure function of the plan: a selected dataset whose first job completes
  // and whose second reaches the probe corrupts the entry the first stored.
  const std::uint64_t corrupt_before = c.cache_corrupt;
  for (const core::AssemblyInput& in : make_job_pool(lg)) {
    for (int rep = 0; rep < 2; ++rep) {
      (void)service.submit("probe", in)->wait();
    }
  }
  EXPECT_GT(service.counters().cache_corrupt, corrupt_before);
  testutil::expect_accounted(service);

  service.stop();
  // Post-stop submissions still resolve, typed and accounted.
  const JobOutcome late =
      service.submit("tenant0", testutil::small_dataset(50, 2))->wait();
  EXPECT_EQ(late.state, JobState::kShed);
  EXPECT_EQ(late.status.code(), ErrorCode::kUnavailable);
  testutil::expect_accounted(service);
}

TEST(ServeSoak, ClosedLoopStaysHealthyAndHitsCache) {
  ServiceConfig cfg;
  AssemblyService service(cfg);
  LoadGenConfig lg;
  lg.tenants = 2;
  lg.jobs_per_tenant = 12;
  lg.distinct_datasets = 4;
  lg.contigs_per_job = 3;
  lg.reads_per_job = 18;
  lg.repeat_fraction = 0.7;
  const LoadGenReport report = run_closed_loop(service, lg);
  EXPECT_TRUE(report.accounted);
  EXPECT_EQ(report.completed, report.submitted);  // no faults, no overload
  EXPECT_GT(report.cache_hits, 0U);
  EXPECT_GT(report.throughput_jobs_per_s, 0.0);
  EXPECT_GE(report.p99_ms, report.p50_ms);
  EXPECT_GE(report.max_ms, report.p99_ms);
  testutil::expect_accounted(service);
}

}  // namespace
}  // namespace lassm::serve
