// Serving-layer SLO bench: drives the AssemblyService with the closed-loop
// multi-tenant load generator (cache-shaped traffic), then with the
// open-loop 4x-overload storm, and prints throughput, latency and
// shedding. perfbench/'s service_mix workload tracks the service's
// wall-clock figures with noise-derived bounds; the exit code is the
// accounting invariant: every submitted job must reach exactly one
// terminal state, always.

#include <iostream>

#include "serve/loadgen.hpp"
#include "serve/service.hpp"

int main() {
  using namespace lassm;
  std::cout << "bench_serving: assembly-as-a-service SLO probe\n";

  // Closed loop: 4 tenants, submit-and-wait, 50% repeat traffic.
  serve::LoadGenConfig lg;
  lg.tenants = 4;
  lg.jobs_per_tenant = 50;
  lg.distinct_datasets = 16;
  lg.contigs_per_job = 4;
  lg.reads_per_job = 24;
  lg.repeat_fraction = 0.5;

  serve::ServiceConfig cfg;
  serve::LoadGenReport closed;
  {
    serve::AssemblyService service(cfg);
    closed = serve::run_closed_loop(service, lg);
    service.stop();
  }
  std::cout << "  closed loop: " << closed.completed << "/"
            << closed.submitted << " completed, "
            << closed.throughput_jobs_per_s << " jobs/s, p99 "
            << closed.p99_ms << " ms, " << closed.cache_hits
            << " cache hits\n";

  // Open loop: everything at once against a bounded queue (~4x overload):
  // the shedding path under pressure, still exactly accounted.
  serve::ServiceConfig overload_cfg;
  overload_cfg.queue_capacity = lg.tenants * lg.jobs_per_tenant / 4;
  serve::LoadGenReport open;
  {
    serve::AssemblyService service(overload_cfg);
    open = serve::run_open_loop(service, lg);
    service.stop();
  }
  std::cout << "  open loop (4x overload): " << open.completed
            << " completed, " << open.shed << " shed, " << open.failed
            << " failed of " << open.submitted << "\n";

  return closed.accounted && open.accounted ? 0 : 1;
}
