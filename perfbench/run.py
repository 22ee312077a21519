#!/usr/bin/env python3
"""Builds and runs the repository's host wall-time benchmark.

    python3 perfbench/run.py --workload reads_1rank --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

Run from the repository root. The script builds perfbench/ (a CMake
project that compiles the libraries under src/) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, runs one workload and prints, as its last
line, {"correct", "attempted", "failed", "metrics"} with each metric in the
unit BENCHMARK.json gives it. --trace 1 prints the per-layer metrics and
writes the run's spans as a Chrome trace under the build directory.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# A healthy 20-second run ends within 35 s. A run that has not ended after
# this long, or that a signal killed, hit the execution engine's wake-up
# race (README.md, "Known engine race"); it is reported on stderr and run
# again, up to three attempts in all, which still ends within 180 s.
RUN_TIMEOUT_S = 55
RUN_ATTEMPTS = 3


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def source_version():
    """The git commit when there is one, plus a digest of the sources."""
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return f"{commit} source:{digest.hexdigest()[:12]}"


def run_binary(cmd):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    for attempt in range(1, RUN_ATTEMPTS + 1):
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log(f"attempt {attempt} did not end within {RUN_TIMEOUT_S} s "
                "(engine wake-up race); killed")
            continue
        if done.returncode < 0:
            log(f"attempt {attempt} died of signal {-done.returncode} "
                "(engine wake-up race)")
            continue
        return done.returncode, done.stdout.splitlines()
    return 1, []


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="every workload once on tiny inputs")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"library sources not found under {ROOT}/src")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    if args.self_check:
        code, lines = run_binary([binary, "--self-check"])
        print("\n".join(lines))
        return code

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"--workload must be one of {', '.join(names)}")
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--golden", os.path.join(HERE, "golden.txt"),
           "--commit", source_version()]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    code, lines = run_binary(cmd)
    if code != 0 or not lines:
        log(f"benchmark failed (exit code {code})")
        return 1

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    result = json.loads(lines[-1])
    got = result["metrics"]
    unknown = sorted(set(got) - set(units))
    missing = sorted(set(units) - set(got))
    if unknown:
        log(f"undeclared metrics: {unknown}")
        return 1
    if missing and not args.trace:
        log(f"missing end-to-end metrics: {missing}")
        return 1
    # A layer the workload does not run reports 0 (e.g. dist.* on
    # paper_grid).
    result["metrics"] = {name: {"value": got.get(name, 0.0), "unit": unit}
                         for name, unit in units.items()}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
