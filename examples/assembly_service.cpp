// Assembly-as-a-service quickstart: stand up a persistent AssemblyService
// (bounded admission queue, per-tenant circuit breakers, deadline
// shedding, bounded retry with backoff, content-addressed result cache)
// and drive it with the multi-tenant load generator.
//
//   ./assembly_service [tenants] [jobs_per_tenant] [--open] [--deadline MS]
//                      [--queue N] [--threads N]
//
// `--open` switches from the closed loop (submit-and-wait per tenant) to
// the open loop (everything at once — the overload mode that exercises
// queue shedding). Fault injection arms the whole serving stack:
//
//   plan="seed=11 task_exception=0.1 queue_overflow=0.05"
//   plan="$plan job_timeout=0.05 cache_corrupt=0.3"
//   LASSM_FAULTPLAN="$plan" ./assembly_service 4 50 --open
//
// Every job ends in exactly one of {completed, shed, failed} with a typed
// status; the run prints the SLO report and the accounting invariant.

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>

#include "serve/loadgen.hpp"
#include "serve/service.hpp"

int main(int argc, char** argv) {
  using namespace lassm;

  serve::LoadGenConfig lg;
  serve::ServiceConfig cfg;
  bool open_loop = false;

  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--open") == 0) {
      open_loop = true;
    } else if (std::strcmp(argv[i], "--deadline") == 0 && i + 1 < argc) {
      lg.deadline_ms = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--queue") == 0 && i + 1 < argc) {
      cfg.queue_capacity = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      cfg.assembly.n_threads = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (argv[i][0] != '-' && positional == 0) {
      lg.tenants = static_cast<unsigned>(std::atoi(argv[i]));
      ++positional;
    } else if (argv[i][0] != '-' && positional == 1) {
      lg.jobs_per_tenant = static_cast<unsigned>(std::atoi(argv[i]));
      ++positional;
    } else {
      std::cerr << "assembly_service: unknown argument " << argv[i] << "\n";
      return 2;
    }
  }

  Result<std::optional<resilience::FaultPlan>> env_plan =
      resilience::FaultPlan::from_env();
  if (!env_plan) {
    std::cerr << "assembly_service: bad LASSM_FAULTPLAN: "
              << env_plan.error().to_string() << "\n";
    return 1;
  }
  std::optional<resilience::FaultPlan> plan = std::move(env_plan).take();
  if (plan) cfg.assembly.fault_plan = &*plan;

  std::cout << "service: queue=" << cfg.queue_capacity
            << " cache=" << cfg.cache_capacity
            << " retries=" << serve::AssemblyService::kMaxJobRetries
            << (plan ? " faultplan=armed" : "") << "\n"
            << "load: " << lg.tenants << " tenants x " << lg.jobs_per_tenant
            << " jobs, " << (open_loop ? "open" : "closed") << " loop"
            << (lg.deadline_ms > 0 ? " with deadlines" : "") << "\n";

  serve::AssemblyService service(cfg);
  const serve::LoadGenReport report = open_loop
                                          ? serve::run_open_loop(service, lg)
                                          : serve::run_closed_loop(service, lg);
  if (service.degraded()) {
    std::cout << "note: engine degraded (pool start failed) — serial, "
                 "results unchanged\n";
  }

  std::cout << "outcome: " << report.completed << " completed, "
            << report.shed << " shed, " << report.failed << " failed of "
            << report.submitted << "\n"
            << "slo: " << report.throughput_jobs_per_s << " jobs/s, p50 "
            << report.p50_ms << " ms, p99 " << report.p99_ms << " ms\n"
            << "cache: " << report.cache_hits << " hits, "
            << service.cache_stats().corruptions
            << " corruptions caught; retried jobs: " << report.retried_jobs
            << "\n"
            << "accounting (shed+completed+failed == submitted): "
            << (report.accounted ? "OK" : "VIOLATED") << "\n";

  service.stop();
  return report.accounted ? 0 : 1;
}
