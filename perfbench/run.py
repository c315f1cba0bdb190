#!/usr/bin/env python3
"""Build and run the rbv benchmark (see perfbench/README.md).

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (and the libraries under src/ it links) into
.bench_build/, runs one workload for S host seconds, checks its
simulated outputs, and prints as its last stdout line one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list.

Maintainers: --record stores the run's output digest in
perfbench/digests.json as the expected output for that seed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

BENCH_DIR = "perfbench"
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "rbv_perfbench")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(msg)
    sys.exit(code)


def run_bounded(cmd, timeout, stdout):
    """Run cmd in its own process group; on timeout kill the whole
    group (make and compiler children included) and wait for it."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("timed out: " + " ".join(cmd), 1)
    return proc.returncode, out


def build():
    """Configure once, then bring the driver up to date."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "rbv_perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr; stdout carries the result.
        rc, _ = run_bounded(cmd, max(1.0, deadline - time.monotonic()),
                            sys.stderr)
        if rc != 0:
            fail("build failed: " + " ".join(cmd), 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--record", action="store_true",
                    help="store this run's output digest as expected")
    args = ap.parse_args()

    for need in ("BENCHMARK.json", "CMakeLists.txt", "src",
                 os.path.join(BENCH_DIR, "CMakeLists.txt")):
        if not os.path.exists(need):
            fail("run from the root of an rbv source checkout "
                 "(missing %s)" % need)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    rc, stdout = run_bounded(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    lines = stdout.strip().splitlines()
    if rc != 0 or not lines:
        fail("driver exited with %d" % rc, 1)
    out = json.loads(lines[-1])

    correct = bool(out["correct"])
    attempted = int(out["attempted"])
    failed = int(out["failed"])
    digest = out["digest_text"]
    print("[env] " + json.dumps(out["env"], sort_keys=True))
    print("[digest] %s seed %d\n%s" % (args.workload, args.seed, digest))
    if out["host"]:
        print("[host] " + json.dumps(out["host"], sort_keys=True))

    expected = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as f:
            expected = json.load(f)
    known = expected.get(args.workload, {}).get(str(args.seed))
    if args.record:
        if not correct:
            fail("refusing to record a run whose checks failed", 1)
        expected.setdefault(args.workload, {})[str(args.seed)] = digest
        expected = {w: dict(sorted(seeds.items(), key=lambda kv: int(kv[0])))
                    for w, seeds in sorted(expected.items())}
        with open(DIGESTS, "w") as f:
            json.dump(expected, f, indent=1)
            f.write("\n")
    elif known is not None and known != digest:
        log("output differs from the recorded digest for this seed:\n"
            "  recorded: %r\n  got:      %r" % (known, digest))
        correct = False
    if not correct:
        failed = attempted

    metrics = {}
    for m in wanted:
        if m["name"] not in out["metrics"]:
            fail("driver did not report %s" % m["name"], 1)
        metrics[m["name"]] = {"value": out["metrics"][m["name"]],
                              "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
