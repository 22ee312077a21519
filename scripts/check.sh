#!/usr/bin/env bash
# Sanitizer and determinism gate for the parallel execution engine, the
# tracing layer, the fault-injection/resilience paths and the autotuner.
#
# Step 0 (no build): fails, naming the header, when a src/ header has no
# includer under src/, bench/, examples/ or perfbench/ besides its own .cpp,
# and, naming the constant, when a trace::names metric name in
# src/trace/metrics.hpp is used by nothing there outside metrics.hpp.
# Leg 1 (TSan): configures a build tree with warnings + ThreadSanitizer,
# runs the engine's determinism/parallelism tests, the memsim
# differential/golden bit-identity suites, the distributed suite (its
# message-layer differential tests, the rank x thread bit-identity matrix
# and the weak-scaling partition/traffic bars), the fault-matrix and
# traced-fault suites and the tracer's span/metrics/attribution tests,
# then drives a traced multi-threaded kernel run (plus a faulted one
# that must dump the flight recorder) and validates the emitted
# trace/metrics/profile/flight JSON with python3 -m json.tool. Last, it
# runs the whole pipeline on 4 ranks at 1 and 4 host threads (stdout
# must match byte for byte) and once traced (trace and metrics JSON
# must parse, and the trace must hold complete kmer_count, kmer_filter,
# contig_generation and align span events with dur >= 0 on the
# driver track).
# Leg 2 (ASan+UBSan): rebuilds with AddressSanitizer + UBSan and runs the
# parser fuzz corpus, the fault matrix, the checkpoint suite, the
# serving suite with its 10k-job fault-storm soak gate (every job must be
# accounted exactly once under 4x overload) and the distributed suite's
# framing/recovery paths — the error paths exercised by injected faults
# and corrupted inputs must be leak-, overflow- and UB-clean, not just
# reach the right verdict. It also runs the cache simulator's unit and
# differential suites and the kernel's golden, kernel-vs-reference and
# pooled-context suites, whose hot paths use packed SIMD tag loads, slabs
# reshaped in place and memo pointers into those slabs.
# Leg 3 (Release): two fresh tuner runs over the device zoo must agree
# byte-for-byte, show tuned <= default everywhere and hold the recorded
# speedup floors, and both artifacts must parse; then one short perfbench
# run per BENCHMARK.json workload must reproduce its recorded output
# digest (perfbench/golden.txt) with no failed operation, and a
# reads_4rank run at unrecorded seed 2 must match its own 1-thread pass.
# Every leg configures with -DLASSM_WERROR=ON, so a compiler warning in
# any target it builds fails the build. Any race, sanitizer report, test
# failure, malformed JSON, autotune mismatch or golden-digest change fails
# the script. Host wall-clock
# performance is measured by perfbench/ (python3 perfbench/run.py), not
# here. Usage:
#
#   scripts/check.sh [build-dir]     # default: build-tsan
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build-tsan}"

# --- Step 0: no orphan modules. -----------------------------------------
# A src/ header that nothing outside its own .cpp includes is code no
# entry point can reach: only tests would keep it alive. Every header must
# be included from src/, bench/, examples/ or perfbench/ by some file other
# than its own .cpp.
ORPHANS=0
while IFS= read -r HDR; do
  REL="${HDR#src/}"
  if ! grep -rlF --include='*.hpp' --include='*.cpp' "#include \"$REL\"" \
      src bench examples perfbench | grep -qvxF "${HDR%.hpp}.cpp"; then
    echo "check.sh: FAIL - orphan header $REL: nothing under src/, bench/," \
      "examples/ or perfbench/ includes it but its own .cpp"
    ORPHANS=1
  fi
done < <(find src -name '*.hpp' | sort)
[ "$ORPHANS" -eq 0 ]
echo "check.sh: every src/ header has an includer outside its own .cpp."

# Likewise for metric names: a trace::names constant that nothing under
# src/, bench/, examples/ or perfbench/ uses outside metrics.hpp names a
# metric no entry point records.
NAMES=src/trace/metrics.hpp
while IFS= read -r NAME; do
  if ! grep -rlw --include='*.hpp' --include='*.cpp' "$NAME" \
      src bench examples perfbench | grep -qvxF "$NAMES"; then
    echo "check.sh: FAIL - orphan metric name trace::names::$NAME: nothing" \
      "under src/, bench/, examples/ or perfbench/ uses it outside $NAMES"
    ORPHANS=1
  fi
done < <(grep -oE 'inline constexpr const char\* k[A-Za-z0-9_]+' "$NAMES" |
         awk '{print $NF}')
[ "$ORPHANS" -eq 0 ]
echo "check.sh: every trace::names constant is used outside $NAMES."

cmake -B "$BUILD" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DLASSM_WERROR=ON \
  -DCMAKE_CXX_FLAGS="-Wall -Wextra -fsanitize=thread" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" \
  -DLASSM_BUILD_BENCH=OFF \
  -DLASSM_BUILD_EXAMPLES=ON

cmake --build "$BUILD" -j \
  --target tests_core tests_trace tests_memsim tests_resilience \
  tests_pipeline tests_serve tests_dist quickstart metagenome_assembly

# The parallel-assembler suite drives the pool across thread counts, batch
# shapes, steal interleavings and the error path; any data race in the
# engine or in the pooled kernel contexts trips TSan here. The golden
# suite re-checks the seed-pinned whole-pipeline numbers at N threads, so
# a fast path that is only "almost" bit-identical fails here too.
TSAN_OPTIONS="halt_on_error=1" \
  "$BUILD/tests/tests_core" \
  --gtest_filter='ParallelAssembler.*:ExecutionEngine.*:GoldenBitIdentity.*'

# The parallel front-end suite runs k-mer counting/filtering, contig
# generation, alignment and the whole pipeline across thread counts with
# per-shard phases live on the pool; a race in the sharded tables, the
# shared count table or run_host_batch trips TSan here, and the
# seed-pinned golden fingerprints catch any almost-identical output. The
# concurrent-table suite is the lock-free table's dedicated TSan workload:
# interleaved insert/increment storms and concurrent shard rebuilds run
# under the race detector, differenced against serial counting and the
# test-only per-chunk merge oracle at 1/2/4/8 threads. The multi-device suites run every rank's tasks and
# every device-loss recovery rerun on one shared pool, so a rank's run
# racing another's on the pool's kernel contexts trips TSan here too.
TSAN_OPTIONS="halt_on_error=1" \
  "$BUILD/tests/tests_pipeline" \
  --gtest_filter='FrontendParallel.*:ConcurrentKmerTable.*:MultiGpu.*:MultiGpuResilient.*:Partition.*'

# The fault matrix crosses every injection seam with serial and 4-thread
# execution: retries, quarantines, watchdog aborts and device loss all
# happen while the pool is live, so isolation bugs (a retried task racing
# its own first attempt, a quarantine touching a neighbour's slot) trip
# TSan here. The traced-fault suite re-crosses the seams with tracing and
# the flight recorder armed: span absorption on the error path and the
# logger's ring/dump machinery must be race-clean too.
TSAN_OPTIONS="halt_on_error=1" "$BUILD/tests/tests_resilience"

# The serving layer is the newest multi-threaded subsystem: client
# threads submit against the dispatcher while finish-paths update tenant
# breakers, counters and the cache concurrently, and client threads read
# the result cache (submit-time hits) while the dispatcher probes and
# writes it. The whole suite — golden
# bit-identity at 1/4/8 workers, the seeded fault storms and the overload
# soak — runs under the race detector.
TSAN_OPTIONS="halt_on_error=1" "$BUILD/tests/tests_serve"

# The distributed suite under TSan: the message-layer differential tests
# (ShardMap/MessageLayer/DistKmerTable vs their serial oracles) plus the
# end-to-end rank x thread bit-identity matrix run the sharded front-end
# and the per-rank device fleet on a live pool — a race in the batched
# queues, the adopt/recount recovery path or a rank's shared count table
# trips TSan here.
TSAN_OPTIONS="halt_on_error=1" "$BUILD/tests/tests_dist"

# The cache/tiered differential oracles under TSan: the memo, packed
# recency and epoch paths must match the naive model access by access.
TSAN_OPTIONS="halt_on_error=1" \
  "$BUILD/tests/tests_memsim" \
  --gtest_filter='*CacheDifferential*:TieredDifferentialTest.*'

# The trace suite hammers the same pool with per-worker span buffers and
# wait-free metric recording enabled — the tracer's deterministic-merge,
# registry and counter-attribution paths must be race-clean too (the
# attribution reconciliation tests run traced 1/2/4-thread assemblies
# right here under TSan).
TSAN_OPTIONS="halt_on_error=1" "$BUILD/tests/tests_trace"

# Traced multi-threaded end-to-end run: the emitted Chrome trace, metrics
# snapshot and attributed profile report must be valid JSON (json.tool
# exits non-zero on either a write failure above or malformed output).
TRACE_OUT="$BUILD/check_trace.json"
METRICS_OUT="$BUILD/check_metrics.json"
PROFILE_OUT="$BUILD/check_profile"
TSAN_OPTIONS="halt_on_error=1" \
  "$BUILD/examples/quickstart" 21 40 4 \
  --trace "$TRACE_OUT" --metrics "$METRICS_OUT" --profile "$PROFILE_OUT"
python3 -m json.tool "$TRACE_OUT" > /dev/null
python3 -m json.tool "$METRICS_OUT" > /dev/null
python3 -m json.tool "$PROFILE_OUT.json" > /dev/null
echo "check.sh: trace/metrics/profile JSON valid."

# Faulted end-to-end run: a quarantine-heavy plan must produce flight
# recorder dumps, and every dump must be valid JSON naming its seam.
FLIGHT_DIR="$BUILD/check_flight"
rm -rf "$FLIGHT_DIR" && mkdir -p "$FLIGHT_DIR"
TSAN_OPTIONS="halt_on_error=1" \
  LASSM_FAULTPLAN="seed=4242 bad_input=0.2" LASSM_FLIGHT_DIR="$FLIGHT_DIR" \
  "$BUILD/examples/quickstart" 21 40 4
ls "$FLIGHT_DIR"/flight_*task_quarantined*.json > /dev/null
for dump in "$FLIGHT_DIR"/flight_*.json; do
  python3 -m json.tool "$dump" > /dev/null
done
echo "check.sh: flight recorder dumps present and valid."

# The pipeline driver end to end: every stage of the distributed pipeline
# (sharded count, DBG, per-round alignment and the per-rank device fleet)
# on a live pool under the race detector. Stdout carries no wall clock,
# so the 1- and 4-thread runs must print the same bytes; the traced run's
# trace and metrics must be valid JSON, with every layer's span event.
# The example writes assembly.fasta to its working directory, so the runs
# start inside the build tree.
(
  cd "$BUILD"
  TSAN_OPTIONS="halt_on_error=1" \
    ./examples/metagenome_assembly a100 3 8 1 --ranks 4 > check_dist_1t.txt
  TSAN_OPTIONS="halt_on_error=1" \
    ./examples/metagenome_assembly a100 3 8 4 --ranks 4 > check_dist_4t.txt
  cmp check_dist_1t.txt check_dist_4t.txt
  TSAN_OPTIONS="halt_on_error=1" \
    ./examples/metagenome_assembly a100 3 8 4 --ranks 4 \
    --trace check_dist_trace.json --metrics check_dist_metrics.json \
    > /dev/null
  python3 -m json.tool check_dist_trace.json > /dev/null
  python3 -m json.tool check_dist_metrics.json > /dev/null
  # The driver's spans are the library's per-layer host clock: each layer
  # must have a complete event with a non-negative duration on the driver
  # track, the one both pipeline drivers and their assemblers share.
  python3 - check_dist_trace.json <<'EOF'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
driver = {(e["pid"], e["tid"]) for e in events
          if e.get("ph") == "M" and e.get("name") == "thread_name"
          and e["args"]["name"] == "driver"}
durs = {}
for e in events:
    if e.get("ph") == "X" and (e["pid"], e["tid"]) in driver:
        durs.setdefault(e["name"], []).append(e["dur"])
for layer in ("kmer_count", "kmer_filter", "contig_generation", "align"):
    d = durs.get(layer)
    if not d or min(d) < 0:
        sys.exit(f"check.sh: FAIL - driver span {layer} has durations {d!r}")
EOF
)
echo "check.sh: distributed pipeline stdout thread-invariant; trace/metrics JSON valid; layer spans present."

echo "check.sh: TSan run clean."

# --- Leg 2: ASan + UBSan over the error paths. --------------------------
# The fuzz corpus (corrupted FASTA/FASTQ/dataset streams), the fault
# matrix and the checkpoint suite deliberately drive every parser and
# recovery path through its failure branches; ASan/UBSan turn a latent
# overflow, use-after-free or UB in those branches into a hard failure
# even when the test's verdict would still come out right.
ASAN_BUILD="${BUILD}-asan"
cmake -B "$ASAN_BUILD" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DLASSM_WERROR=ON \
  -DCMAKE_CXX_FLAGS="-Wall -Wextra -fsanitize=address,undefined -fno-sanitize-recover=all" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" \
  -DLASSM_BUILD_BENCH=OFF \
  -DLASSM_BUILD_EXAMPLES=OFF

cmake --build "$ASAN_BUILD" -j \
  --target tests_bio tests_resilience tests_pipeline tests_workload \
  tests_serve tests_dist tests_memsim tests_core

ASAN_OPTIONS="detect_leaks=1" \
  "$ASAN_BUILD/tests/tests_bio" --gtest_filter='FastaFuzz.*'
ASAN_OPTIONS="detect_leaks=1" "$ASAN_BUILD/tests/tests_resilience"
ASAN_OPTIONS="detect_leaks=1" \
  "$ASAN_BUILD/tests/tests_pipeline" \
  --gtest_filter='Checkpoint.*:MultiGpuResilient.*:ConcurrentKmerTable.*'
ASAN_OPTIONS="detect_leaks=1" "$ASAN_BUILD/tests/tests_workload"

# The cache simulator and the kernel on it under ASan+UBSan: the packed tag
# scan loads whole 16-byte groups past a set's last way, reshaped slabs are
# reused across geometries and the L1 memo holds pointers into the slab, so
# an out-of-block load, a stale pointer or a misaligned access fails here
# even where the differential oracles would still agree.
ASAN_OPTIONS="detect_leaks=1" \
  "$ASAN_BUILD/tests/tests_memsim" \
  --gtest_filter='Cache*:Tiered*:*CacheDifferential*'
ASAN_OPTIONS="detect_leaks=1" \
  "$ASAN_BUILD/tests/tests_core" \
  --gtest_filter='GoldenBitIdentity.*:*KernelVsReference*:ExecutionEngine.*:LocHt.*'

# The distributed suite's framing/recovery paths under ASan+UBSan: the
# [len][payload] message frames, the shard-adoption bookkeeping and the
# orphan-recount path must be overflow- and leak-clean, not just
# bit-identical.
ASAN_OPTIONS="detect_leaks=1" "$ASAN_BUILD/tests/tests_dist"

# Serving suite under ASan+UBSan, then the 10k-job fault-storm soak gate:
# every admission seam armed at once against a 4x-overloaded queue, and
# the accounting invariant (shed + completed + failed == submitted) must
# hold exactly — a leaked ticket, double resolve or lost job fails here.
ASAN_OPTIONS="detect_leaks=1" "$ASAN_BUILD/tests/tests_serve"
ASAN_OPTIONS="detect_leaks=1" LASSM_SOAK_JOBS=10000 \
  "$ASAN_BUILD/tests/tests_serve" \
  --gtest_filter='ServeSoak.FaultStormOverloadAccountsEveryJobExactlyOnce'
echo "check.sh: serving soak gate clean (10000 jobs)."

echo "check.sh: ASan+UBSan run clean."

# --- Leg 3: autotune determinism (Release). ------------------------------
# Two fresh tuner runs over the device zoo must produce byte-identical
# artifacts — the tuner's objective is modelled sim-time, so any
# nondeterminism is a bug — and the JSON must
# show tuned <= default on every zoo device, the recorded expected-speedup
# floors holding, and a tuned improvement on at least two devices. Both
# artifacts must parse (json.tool for the JSON, csv.reader for the
# scorecard).
RELEASE_BUILD="${BUILD}-release"
cmake -B "$RELEASE_BUILD" -S . \
  -DCMAKE_BUILD_TYPE=Release \
  -DLASSM_WERROR=ON \
  -DLASSM_BUILD_BENCH=ON \
  -DLASSM_BUILD_EXAMPLES=OFF > /dev/null
cmake --build "$RELEASE_BUILD" -j --target bench_autotune > /dev/null
AT_RUN1="$RELEASE_BUILD/results"
AT_RUN2="$RELEASE_BUILD/results-autotune-rerun"
mkdir -p "$AT_RUN1" "$AT_RUN2"
LASSM_RESULTS_DIR="$AT_RUN1" \
  "$RELEASE_BUILD/bench/bench_autotune"
LASSM_RESULTS_DIR="$AT_RUN2" \
  "$RELEASE_BUILD/bench/bench_autotune" > /dev/null
cmp "$AT_RUN1/BENCH_autotune.json" "$AT_RUN2/BENCH_autotune.json"
cmp "$AT_RUN1/portability_scorecard.csv" "$AT_RUN2/portability_scorecard.csv"
echo "check.sh: autotune artifacts byte-identical across two fresh runs."
python3 -m json.tool "$AT_RUN1/BENCH_autotune.json" > /dev/null
python3 - "$AT_RUN1/BENCH_autotune.json" "$AT_RUN1/portability_scorecard.csv" <<'EOF'
import csv, json, sys
with open(sys.argv[1]) as f:
    j = json.load(f)
improved = 0
for d in j["devices"]:
    slug, s = d["slug"], d["speedup"]
    if s < 1.0:
        sys.exit(f"check.sh: FAIL - tuned config slower than default on {slug} ({s:.3f}x)")
    if s > 1.0 + 1e-9:
        improved += 1
for slug, floor in j["expected_speedup_floor"].items():
    got = next(d["speedup"] for d in j["devices"] if d["slug"] == slug)
    print(f"check.sh: {slug} tuned speedup {got:.2f}x (recorded floor {floor}x)")
    if got < floor:
        sys.exit(f"check.sh: FAIL - {slug} speedup {got:.3f}x fell below the recorded floor {floor}x")
if improved < 2:
    sys.exit(f"check.sh: FAIL - tuner improved only {improved} zoo device(s); expected >= 2")
with open(sys.argv[2]) as f:
    rows = list(csv.reader(f))
if len(rows) < 2 + len(j["devices"]) or rows[-1][0] != "portability":
    sys.exit("check.sh: FAIL - portability_scorecard.csv malformed")
print(f"check.sh: tuner improved {improved}/{len(j['devices'])} zoo devices; scorecard has {len(rows)} rows.")
EOF
echo "check.sh: autotune gate clean."

# Golden gate: a one-second perfbench run of every workload (built under
# its own tree) must end with "correct": true and "failed": 0. The
# reads_4rank digest covers the distributed message traffic (msgs, bytes,
# batches, drops, retransmits, flushes, network seconds), so a change in
# what the ranks send fails here, not only in a manual benchmark run.
PERF_BUILD="${BUILD}-perfbench"
perfbench_gate() {  # workload seed
  LAST=$(CARGO_TARGET_DIR="$PERF_BUILD" \
    python3 perfbench/run.py --workload "$1" --seed "$2" --seconds 1 | tail -n 1)
  python3 - "$1" "$2" "$LAST" <<'EOF'
import json, sys
name, seed, r = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
if r.get("correct") is not True or r.get("failed") != 0:
    sys.exit(f"check.sh: FAIL - perfbench {name} seed {seed}: correct={r.get('correct')} failed={r.get('failed')}")
print(f"check.sh: perfbench {name} seed {seed} is correct ({r['attempted']} runs, 0 failed).")
EOF
}
WORKLOADS=$(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for W in $WORKLOADS; do
  perfbench_gate "$W" 1
done
# Seed 2 has no recorded digest, so perfbench holds every reads_4rank job,
# its traffic digest included, to a 1-thread pass of the same input: the
# dist layer's pooled paths must stay thread-count invariant beyond the
# golden seed.
perfbench_gate reads_4rank 2
echo "check.sh: perfbench golden gate clean."
