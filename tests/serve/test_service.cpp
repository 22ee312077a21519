#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "pipeline/multi_gpu.hpp"
#include "serve_test_util.hpp"

namespace lassm::serve {
namespace {

using testutil::expect_accounted;
using testutil::expect_extensions_eq;
using testutil::invalid_dataset;
using testutil::oracle_run;
using testutil::small_dataset;

resilience::FaultPlan parse_plan(const std::string& spec) {
  Result<resilience::FaultPlan> r = resilience::FaultPlan::parse(spec);
  EXPECT_TRUE(r.is_ok()) << spec;
  return std::move(r).take();
}

TEST(Service, CompletesOneJobBitIdenticalToOracle) {
  ServiceConfig cfg;
  AssemblyService service(cfg);
  const core::AssemblyInput in = small_dataset(1);
  const JobOutcome& out = service.submit("alice", in)->wait();
  ASSERT_EQ(out.state, JobState::kCompleted);
  EXPECT_TRUE(out.status.is_ok());
  EXPECT_EQ(out.stats.attempts, 1U);
  EXPECT_EQ(out.stats.retries, 0U);
  EXPECT_FALSE(out.stats.cache_hit);
  EXPECT_TRUE(out.report.clean());
  const core::AssemblyResult ref = oracle_run(cfg, in);
  expect_extensions_eq(out.extensions, ref.extensions, "single job");
  EXPECT_EQ(out.modelled_time_s, ref.total_time_s);
  service.drain();
  expect_accounted(service);
  EXPECT_EQ(service.counters().completed, 1U);
}

TEST(Service, CacheHitIsByteIdenticalToColdCompute) {
  ServiceConfig cfg;
  AssemblyService service(cfg);
  const core::AssemblyInput in = small_dataset(2);
  const JobOutcome cold = service.submit("alice", in)->wait();
  ASSERT_EQ(cold.state, JobState::kCompleted);
  // The repeat is answered inside submit: resolved before submit returns,
  // never queued or dispatched.
  const TicketPtr warm_ticket = service.submit("alice", in);
  EXPECT_TRUE(warm_ticket->done());
  const JobOutcome warm = warm_ticket->wait();
  ASSERT_EQ(warm.state, JobState::kCompleted);
  EXPECT_TRUE(warm.stats.cache_hit);
  EXPECT_FALSE(cold.stats.cache_hit);
  EXPECT_EQ(warm.stats.queue_ms, 0.0);
  EXPECT_EQ(warm.stats.attempts, 0U);
  EXPECT_EQ(cold.stats.attempts, 1U);
  expect_extensions_eq(warm.extensions, cold.extensions, "cache hit");
  EXPECT_EQ(warm.modelled_time_s, cold.modelled_time_s);
  const ServiceCounters c = service.counters();
  EXPECT_EQ(c.cache_hits, 1U);
  EXPECT_GE(c.cache_misses, 1U);
  // Different bytes must NOT hit: second dataset recomputes.
  const JobOutcome other = service.submit("alice", small_dataset(3))->wait();
  ASSERT_EQ(other.state, JobState::kCompleted);
  EXPECT_FALSE(other.stats.cache_hit);
  service.drain();
  expect_accounted(service);
}

TEST(Service, CoalescedBatchMatchesPerJobOracles) {
  ServiceConfig cfg;
  cfg.start_paused = true;
  AssemblyService service(cfg);
  std::vector<core::AssemblyInput> inputs;
  std::vector<TicketPtr> tickets;
  for (std::uint64_t j = 0; j < 4; ++j) {
    inputs.push_back(small_dataset(10 + j, 4, /*id_offset=*/j * 1000));
    tickets.push_back(service.submit("alice", inputs.back()));
  }
  service.resume();
  service.drain();
  const ServiceCounters c = service.counters();
  EXPECT_GE(c.coalesced_batches, 1U);
  EXPECT_LT(c.engine_runs, 4U);  // at least one run served several jobs
  for (std::size_t j = 0; j < tickets.size(); ++j) {
    const JobOutcome& out = tickets[j]->wait();
    ASSERT_EQ(out.state, JobState::kCompleted) << j;
    EXPECT_TRUE(out.stats.coalesced) << j;
    const core::AssemblyResult ref = oracle_run(cfg, inputs[j]);
    expect_extensions_eq(out.extensions, ref.extensions, "coalesced");
  }
  expect_accounted(service);
}

TEST(Service, QueueOverflowShedsTyped) {
  ServiceConfig cfg;
  cfg.start_paused = true;
  cfg.queue_capacity = 2;
  AssemblyService service(cfg);
  TicketPtr t1 = service.submit("alice", small_dataset(20, 2));
  TicketPtr t2 = service.submit("alice", small_dataset(21, 2));
  TicketPtr t3 = service.submit("alice", small_dataset(22, 2));
  const JobOutcome& shed = t3->wait();
  EXPECT_EQ(shed.state, JobState::kShed);
  EXPECT_EQ(shed.status.code(), ErrorCode::kResourceExhausted);
  service.resume();
  service.drain();
  EXPECT_EQ(t1->wait().state, JobState::kCompleted);
  EXPECT_EQ(t2->wait().state, JobState::kCompleted);
  const ServiceCounters c = service.counters();
  EXPECT_EQ(c.shed_overflow, 1U);
  EXPECT_EQ(c.queue_depth_peak, 2U);
  expect_accounted(service);
}

TEST(Service, InjectedQueueOverflowSeamShedsDeterministically) {
  const resilience::FaultPlan plan = parse_plan("seed=5 queue_overflow=1");
  ServiceConfig cfg;
  cfg.assembly.fault_plan = &plan;
  AssemblyService service(cfg);
  const JobOutcome& out = service.submit("alice", small_dataset(23))->wait();
  EXPECT_EQ(out.state, JobState::kShed);
  EXPECT_EQ(out.status.code(), ErrorCode::kResourceExhausted);
  EXPECT_NE(out.status.to_string().find("injected queue overflow"),
            std::string::npos);
  service.drain();
  EXPECT_EQ(service.counters().shed_overflow, 1U);
  expect_accounted(service);
}

TEST(Service, DeadlineExpiredWhileQueuedIsShedNotHalfRun) {
  ServiceConfig cfg;
  cfg.start_paused = true;
  AssemblyService service(cfg);
  TicketPtr ticket = service.submit("alice", small_dataset(24, 2),
                                    /*deadline_ms=*/1.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  service.resume();
  const JobOutcome& out = ticket->wait();
  EXPECT_EQ(out.state, JobState::kShed);
  EXPECT_EQ(out.status.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_TRUE(out.extensions.empty());
  service.drain();
  EXPECT_EQ(service.counters().shed_deadline, 1U);
  expect_accounted(service);
}

TEST(Service, InjectedJobTimeoutSeamShedsDeadline) {
  const resilience::FaultPlan plan = parse_plan("seed=6 job_timeout=1");
  ServiceConfig cfg;
  cfg.assembly.fault_plan = &plan;
  AssemblyService service(cfg);
  const JobOutcome& out = service.submit("alice", small_dataset(25))->wait();
  EXPECT_EQ(out.state, JobState::kShed);
  EXPECT_EQ(out.status.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_NE(out.status.to_string().find("injected job timeout"),
            std::string::npos);
  service.drain();
  EXPECT_EQ(service.counters().shed_deadline, 1U);
  expect_accounted(service);
}

// The submit-time cache probe runs after admission and is skipped for a
// job the job_timeout seam selects, so job-keyed seams fire on a cached
// repeat exactly as they do on a cold job. Which sequence numbers a seam
// selects is a pure function of the plan seed and the tenant's sequence
// number, so the expected outcome of every submission is known up front.
TEST(Service, InjectedJobTimeoutShedsCachedRepeat) {
  const resilience::FaultPlan plan =
      parse_plan("seed=12 job_timeout=0.3 queue_overflow=0.3");
  ServiceConfig cfg;
  cfg.assembly.fault_plan = &plan;
  AssemblyService service(cfg);
  const core::AssemblyInput in = small_dataset(41);
  bool cached = false;
  std::uint64_t timeouts_on_repeat = 0;
  std::uint64_t overflows_on_repeat = 0;
  for (std::uint64_t seq = 0; seq < 64; ++seq) {
    const std::uint64_t key = make_job_key("alice", seq);
    const JobOutcome out = service.submit("alice", in)->wait();
    const std::string ctx = "seq " + std::to_string(seq);
    EXPECT_EQ(out.job_key, key) << ctx;
    if (plan.fires(resilience::Seam::kQueueOverflow, key)) {
      EXPECT_EQ(out.state, JobState::kShed) << ctx;
      EXPECT_EQ(out.status.code(), ErrorCode::kResourceExhausted) << ctx;
      EXPECT_NE(out.status.to_string().find("injected queue overflow"),
                std::string::npos)
          << ctx;
      if (cached) ++overflows_on_repeat;
    } else if (plan.fires(resilience::Seam::kJobTimeout, key)) {
      EXPECT_EQ(out.state, JobState::kShed) << ctx;
      EXPECT_EQ(out.status.code(), ErrorCode::kDeadlineExceeded) << ctx;
      EXPECT_NE(out.status.to_string().find("injected job timeout"),
                std::string::npos)
          << ctx;
      EXPECT_FALSE(out.stats.cache_hit) << ctx;
      if (cached) ++timeouts_on_repeat;
    } else {
      ASSERT_EQ(out.state, JobState::kCompleted) << ctx;
      EXPECT_EQ(out.stats.cache_hit, cached) << ctx;
      cached = true;
    }
    if (timeouts_on_repeat > 0 && overflows_on_repeat > 0) break;
  }
  EXPECT_GT(timeouts_on_repeat, 0U);
  EXPECT_GT(overflows_on_repeat, 0U);
  service.drain();
  expect_accounted(service);
}

TEST(Service, TransientFaultRetriesWithBackoffThenSucceeds) {
  const resilience::FaultPlan plan = parse_plan("seed=8 task_exception=1");
  ServiceConfig cfg;
  cfg.assembly.fault_plan = &plan;
  AssemblyService service(cfg);
  const core::AssemblyInput in = small_dataset(26);
  const JobOutcome& out = service.submit("alice", in)->wait();
  ASSERT_EQ(out.state, JobState::kCompleted) << out.status.to_string();
  EXPECT_GE(out.stats.retries, 1U);
  EXPECT_GE(out.stats.attempts, 2U);
  EXPECT_GT(out.stats.backoff_ms, 0.0);
  // The transient seam also fires inside the engine at contig fault keys
  // (attempt 0 only); the isolated path retries those tasks in place and
  // the result stays bit-identical to the oracle under the same plan.
  const core::AssemblyResult ref = oracle_run(cfg, in);
  expect_extensions_eq(out.extensions, ref.extensions, "retried job");
  service.drain();
  const ServiceCounters c = service.counters();
  EXPECT_GE(c.retries, 1U);
  expect_accounted(service);
}

TEST(Service, InvalidInputFailsTypedAndTripsBreaker) {
  ServiceConfig cfg;
  AssemblyService service(cfg);
  for (unsigned i = 0; i < AssemblyService::kBreakerThreshold; ++i) {
    const JobOutcome& out = service.submit("mallory", invalid_dataset())->wait();
    EXPECT_EQ(out.state, JobState::kFailed);
    EXPECT_EQ(out.status.code(), ErrorCode::kInvalidArgument);
  }
  // Breaker is now open: even a valid job is rejected kUnavailable.
  const JobOutcome& rejected =
      service.submit("mallory", small_dataset(31, 2))->wait();
  EXPECT_EQ(rejected.state, JobState::kShed);
  EXPECT_EQ(rejected.status.code(), ErrorCode::kUnavailable);
  // Other tenants are isolated from mallory's breaker.
  EXPECT_EQ(service.submit("alice", small_dataset(32, 2))->wait().state,
            JobState::kCompleted);
  // After the cooldown the half-open probe admits one job; success closes
  // the breaker.
  std::this_thread::sleep_for(
      std::chrono::milliseconds(AssemblyService::kBreakerCooldownMs + 10));
  EXPECT_EQ(service.submit("mallory", small_dataset(33, 2))->wait().state,
            JobState::kCompleted);
  EXPECT_EQ(service.submit("mallory", small_dataset(34, 2))->wait().state,
            JobState::kCompleted);
  service.drain();
  const ServiceCounters c = service.counters();
  EXPECT_EQ(c.failed, AssemblyService::kBreakerThreshold);
  EXPECT_EQ(c.shed_breaker, 1U);
  expect_accounted(service);
}

TEST(Service, StopShedsQueuedJobsTyped) {
  ServiceConfig cfg;
  cfg.start_paused = true;
  AssemblyService service(cfg);
  TicketPtr t1 = service.submit("alice", small_dataset(35, 2));
  TicketPtr t2 = service.submit("alice", small_dataset(36, 2));
  service.stop();
  for (const TicketPtr& t : {t1, t2}) {
    const JobOutcome& out = t->wait();
    EXPECT_EQ(out.state, JobState::kShed);
    EXPECT_EQ(out.status.code(), ErrorCode::kUnavailable);
  }
  // Submissions after stop are rejected, still accounted.
  EXPECT_EQ(service.submit("alice", small_dataset(37, 2))->wait().state,
            JobState::kShed);
  const ServiceCounters c = service.counters();
  EXPECT_EQ(c.shed_stopped, 3U);
  expect_accounted(service);
}

TEST(Service, DeviceLossRecoversBitIdentical) {
  const resilience::FaultPlan plan = parse_plan("seed=9 device_loss=0@1");
  ServiceConfig cfg;
  cfg.assembly.fault_plan = &plan;
  AssemblyService service(cfg);
  const core::AssemblyInput in = small_dataset(38, 8);
  const JobOutcome& out = service.submit("alice", in)->wait();
  ASSERT_EQ(out.state, JobState::kCompleted) << out.status.to_string();
  EXPECT_TRUE(out.stats.device_lost_recovered);
  ASSERT_EQ(out.report.rebalances.size(), 1U);
  EXPECT_EQ(out.report.rebalances[0].survivors,
            std::vector<std::uint32_t>{pipeline::kRecoveryRank});
  // Fault keys are content-derived, so the recovery rerun reproduces the
  // undisturbed run exactly: compare to an oracle with NO device loss.
  ServiceConfig clean = cfg;
  clean.assembly.fault_plan = nullptr;
  const core::AssemblyResult ref = oracle_run(clean, in);
  expect_extensions_eq(out.extensions, ref.extensions, "device loss");
  service.drain();
  EXPECT_GE(service.counters().devices_lost, 1U);
  expect_accounted(service);
}

TEST(Service, PoolStartFaultDegradesButStaysCorrect) {
  const resilience::FaultPlan plan = parse_plan("seed=10 pool_start=1");
  ServiceConfig cfg;
  cfg.assembly.fault_plan = &plan;
  cfg.assembly.n_threads = 4;
  AssemblyService service(cfg);
  EXPECT_TRUE(service.degraded());
  const core::AssemblyInput in = small_dataset(39);
  const JobOutcome& out = service.submit("alice", in)->wait();
  ASSERT_EQ(out.state, JobState::kCompleted);
  ServiceConfig clean = cfg;
  clean.assembly.fault_plan = nullptr;
  clean.assembly.n_threads = 1;
  const core::AssemblyResult ref = oracle_run(clean, in);
  expect_extensions_eq(out.extensions, ref.extensions, "degraded");
  service.drain();
  expect_accounted(service);
}

TEST(JobKey, StableAndTenantDisjoint) {
  const std::uint64_t a0 = make_job_key("alice", 0);
  EXPECT_EQ(a0, make_job_key("alice", 0));
  EXPECT_NE(a0, make_job_key("alice", 1));
  EXPECT_NE(a0, make_job_key("bob", 0));
  // Job keys live far from the small-integer contig fault-key space.
  EXPECT_GT(a0, 1U << 20);
}

}  // namespace
}  // namespace lassm::serve
