#!/usr/bin/env python3
"""Pipeline benchmark: one workload of the scan -> daemon (-> serve) pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload serve-1k --seed 7 --seconds 5 --trace 0

The script builds perfbench/ (the library from src/ plus pipeline_bench)
into .bench_build/perfbench, runs the workload in its own process
and prints one JSON object as the last line of standard output:

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics named in BENCHMARK.json, --trace 1
the per-layer ones: it repeats the workload untraced, then traced, and
writes the traced run's spans to .bench_build/perfbench/traces/. The line
before the result holds the run's provenance. Exit status is 0 only when
the run finished and every correctness check passed.

--size toy and --corrupt exist for perfbench/test_smoke.py.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "pipeline_bench")
WORKLOADS = ("testbed-scan", "daemon-3k", "serve-1k")
# Budget for the workload processes of one run, after the build: a run must
# end within 180 s (900 s when it also builds).
RUN_BUDGET_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "toy"), default="full")
    p.add_argument("--corrupt", action="store_true",
                   help="perturb one checked answer (self-test only)")
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    return args


def build():
    """Configure once, then (re)build pipeline_bench and the library from src/."""
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "pipeline_bench",
                  "-j", jobs])
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            # Own process group, so a timeout also stops make and compilers.
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    env=env, start_new_session=True)
            try:
                rc = proc.wait(timeout=850)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                rc = -1
            if rc != 0:
                fail(f"build step failed ({' '.join(cmd)}); see {log_path}", 3)


def source_digest():
    """sha256 over the library and benchmark sources (the checkout may not
    be a git repository, so this identifies the code that was measured)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_revision():
    if not os.path.exists(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def run_bench(args, run_dir, traced, deadline):
    out = os.path.join(run_dir, "traced.json" if traced else "untraced.json")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", "1" if traced else "0",
           "--dir", run_dir, "--out", out, "--size", args.size,
           "--corrupt", "1" if args.corrupt else "0"]
    if traced:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within the run budget", 4)
    if proc.returncode not in (0, 1) or not os.path.exists(out):
        sys.stderr.write(proc.stderr)
        fail(f"pipeline_bench exited with {proc.returncode} and no result", 4)
    with open(out) as f:
        return json.load(f), cmd


def metric_block(specs, values, where):
    metrics = {}
    for m in specs:
        if m["name"] not in values or values[m["name"]] is None:
            fail(f"{where} did not report {m['name']}", 5)
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return metrics


def main():
    # A SIGTERM unwinds like an error: subprocess.run then kills and reaps
    # pipeline_bench, and the run directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args()
    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(bench_json):
        fail("run from the repository root (BENCHMARK.json not found)")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to BENCHMARK.json")
    with open(bench_json) as f:
        bench = json.load(f)

    started = time.monotonic()
    build()
    deadline = time.monotonic() + RUN_BUDGET_S

    run_dir = os.path.join(BUILD_DIR, "runs",
                           f"{args.workload}-seed{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        untraced, cmd = run_bench(args, run_dir, False, deadline)
        commands = [cmd]
        traced = None
        if args.trace:
            traced, cmd = run_bench(args, run_dir, True, deadline)
            commands.append(cmd)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if traced is None:
        reported = untraced
        metrics = metric_block(bench["end_to_end"], untraced["e2e"], "untraced run")
    else:
        reported = traced
        layers = dict(traced["layers"])
        # Tracing overhead: the traced epoch loop against the untraced one.
        layers["run.trace_overhead_frac"] = traced["loop_s"] / untraced["loop_s"] - 1
        metrics = metric_block(bench["per_layer"], layers, "traced run")
    correct = untraced["correct"] and (traced is None or traced["correct"])

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": untraced["params"],
        "host_cpus": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "command": [sys.executable] + sys.argv,
        "bench_commands": commands,
        "wall_s": time.monotonic() - started,
        "checks": reported["checks"],
        "probe_ops": reported.get("probe_ops", {}),
    }
    if traced is not None:
        provenance["untraced_e2e"] = untraced["e2e"]
        provenance["traced_e2e"] = traced["e2e"]
    result = {
        "correct": bool(correct),
        "attempted": int(reported["attempted"]),
        "failed": int(reported["failed"]),
        "metrics": metrics,
    }
    results_dir = os.path.join(BUILD_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as f:
        json.dump({"provenance": provenance, "result": result}, f, indent=1)
    for run in (untraced, traced):
        for check in run["checks"] if run else []:
            if not check["ok"]:
                print(f"check failed: {check['name']}: {check['detail']}",
                      file=sys.stderr)
    print("provenance: " + json.dumps(provenance))
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
