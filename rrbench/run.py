#!/usr/bin/env python3
"""Record/replay benchmark of tsr.

Builds the benchmark binary (rrbench.cpp) together with the tsr libraries
from ../src, runs one workload and prints the result as the last line of
standard output:

    python3 rrbench/run.py --workload httpd-random --seed 1 --seconds 30 --trace 0

With --trace 0 the result carries the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer ones. Every sample, the tail percentiles and
the host block (usable CPUs, cgroup quota, load average, build type,
sanitizer, git revision) go to the line before it. The command exits
nonzero when any record/replay pair fails its output check.

    python3 rrbench/run.py --self-test

runs each workload twice at a tiny size and checks the benchmark itself:
exact counts repeat, the printed metric names match BENCHMARK.json, and a
corrupted demo byte or a flipped output is caught.

Run it from the repository root. The build goes to $CARGO_TARGET_DIR, or
.bench_build when that is unset.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import time

# Every workload runs the Random strategy, so its schedule, ticks and demo
# bytes are a pure function of the seed.
WORKLOADS = ("httpd-random", "fluidanimate-random")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# The whole command must end within 180 s once built.
DEADLINE_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build():
    """Configures and builds the binary; returns its path or None."""
    out = os.path.join(build_dir(), "rrbench")
    cfg = ["cmake", "-S", BENCH_DIR, "-B", out,
           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(out, "CMakeCache.txt")):
        cfg += ["-G", "Ninja"]
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    for cmd in (cfg, ["cmake", "--build", out, "-j", jobs]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("rrbench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "rrbench")


def read_text(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def cpu_quota():
    """The cgroup CPU quota in cgroup v2's cpu.max form ("max" = none)."""
    v2 = read_text("/sys/fs/cgroup/cpu.max")
    if v2:
        return v2
    quota = read_text("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    period = read_text("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
    if quota and period:
        return "%s %s" % ("max" if quota == "-1" else quota, period)
    return "unknown"


def sanitizer():
    """The -fsanitize= flags the binary was configured with, or "none"."""
    cache = read_text(os.path.join(build_dir(), "rrbench", "CMakeCache.txt"))
    found = re.findall(r"-fsanitize=([\w,]+)", cache or "")
    return ",".join(sorted(set(found))) or "none"


def git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or "unknown"


def run_binary(binary, workload, seed, seconds, trace, extra=(),
               timeout=DEADLINE_S):
    """Runs the binary once; returns (exit code, parsed JSON or None)."""
    work_dir = os.path.join(build_dir(), "run-%s-%d" % (workload, os.getpid()))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work_dir] + list(extra)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("rrbench: %s did not finish in time" % workload)
        return 1, None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = out.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode or 1, None


def measure(args):
    start = time.monotonic()
    binary = build()
    if binary is None:
        return 2
    load_start = read_text("/proc/loadavg")
    code, res = run_binary(binary, args.workload, args.seed, args.seconds,
                           args.trace,
                           timeout=DEADLINE_S - (time.monotonic() - start))
    if res is None:
        log("rrbench: the benchmark binary produced no result (exit %d)" % code)
        return 1
    host = {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": cpu_quota(),
        "loadavg_start": load_start,
        "loadavg_end": read_text("/proc/loadavg"),
        "build_type": res["build_type"],
        "sanitizer": sanitizer(),
        "git_revision": git_revision(),
    }
    correct = code == 0 and res["failed"] == 0 and not res["errors"]
    for err in res["errors"]:
        log("rrbench: check failed: " + err)
    detail = {k: res[k] for k in ("workload", "seed", "trace", "iterations",
                                  "measured_s", "trace_ring_events", "tails",
                                  "samples", "counts", "errors")}
    detail["host"] = host
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    return 0 if correct else 1


def self_test():
    binary = build()
    if binary is None:
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: sorted(m["name"] for m in spec["end_to_end"]),
            1: sorted(m["name"] for m in spec["per_layer"])}
    problems = []
    tiny = ["--tiny", "--min-iters", "2"]
    for workload in WORKLOADS:
        runs = []
        for trace in (0, 0, 1):
            code, res = run_binary(binary, workload, 3, 0, trace, tiny)
            if code != 0 or res is None:
                problems.append("%s trace=%d failed (exit %d): %s" % (
                    workload, trace, code, res and res["errors"]))
                continue
            if sorted(res["metrics"]) != want[trace]:
                problems.append("%s trace=%d prints %s, BENCHMARK.json "
                                "names %s" % (workload, trace,
                                              sorted(res["metrics"]),
                                              want[trace]))
            if trace == 0:
                runs.append(res)
        if len(runs) == 2:
            for key in ("sched.ticks", "demo_bytes", "env.virtual_ns"):
                seen = runs[0]["counts"][key] + runs[1]["counts"][key]
                if len(set(seen)) != 1:
                    problems.append("%s: %s does not repeat: %s" % (
                        workload, key, seen))
        for corrupt in ("demo", "output"):
            code, res = run_binary(binary, workload, 3, 0, 0,
                                   tiny + ["--corrupt", corrupt])
            ratio = res and res["metrics"]["pass_ratio"]["value"]
            if code == 0 or res is None or res["failed"] == 0 or ratio >= 1:
                problems.append("%s: a corrupted %s was not caught" % (
                    workload, corrupt))
        log("self-test: %s done" % workload)
    for p in problems:
        log("self-test: FAIL " + p)
    log("self-test: %s" % ("ok" if not problems else "failed"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
