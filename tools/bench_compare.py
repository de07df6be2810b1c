#!/usr/bin/env python3
"""CI gates over BENCH_scan.json (bench/parallel_scan_bench.cpp output).

Two subcommands, both stdlib-only:

  gate-speedup FRESH.json [--min-speedup 2.0] [--min-cpus 4]
      Fail if the fresh run's host had >= --min-cpus CPUs but the sharded
      engine's wall-clock speedup_4_vs_1 came in under --min-speedup. On a
      host with fewer CPUs the gate records the numbers and passes (the
      speedup is core-bound, not engine-bound — the committed baseline was
      produced on a 1-CPU container and reads 0.944).

  gate-regression BASELINE.json FRESH.json [--max-regression 0.15]
      Fail if the optimizations leg regressed: the fresh
      optimizations.throughput_speedup must be at least
      (1 - max_regression) x the baseline's. The speedup is a
      within-run ratio (optimized vs cold pairs/vhour on the same host and
      scale), so it is comparable across machines where raw pairs/vhour is
      not; absolute pairs/vhour is additionally compared only when the two
      runs measured the same leg (same pairs and samples_per_circuit).

  gate-construct FRESH.json [--min-speedup 5.0]
      Gate over the world-construction leg: fail unless instantiating the
      shard worlds over a shared immutable topology was at least
      --min-speedup cheaper than the legacy clone-per-shard baseline. Both
      sides measure building the worlds a scan hands to the engine; the
      topology's one-time build is reported separately, since the scan
      needs it regardless to derive the node list. The leg runs at a
      fixed 100 relays x 4 shards (not scaled by TING_BENCH_SCALE), so the
      ratio is stable across hosts: it measures work eliminated (per-shard
      keygen, geography, base-RTT table), not host speed.

  gate-serve FRESH.json [--min-qps 10000]
      Gate over BENCH_serve.json (bench/serve_bench.cpp): fail unless the
      path server sustained --min-qps queries/sec *while* the scan daemon
      was publishing snapshots, and every daemon epoch actually published.
      The floor is deliberately conservative (measured throughput is
      ~1000x higher on a 1-CPU container): it catches an accidental lock
      or a per-query rebuild, not host-speed variance.

  gate-scale FRESH.json [--min-speedup 10] [--min-relays 6000]
              [--max-daemon-rss-mb 2048] [--max-peak-rss-mb 4096]
      Gate over BENCH_daemon.json's paper-scale leg (the synthetic
      6,000-relay environment). Always fails if the incremental planner's
      plan diverged from plan_delta's (a correctness bug). When the leg ran
      at >= --min-relays, additionally requires the incremental planner to
      beat the full C(n,2) census by --min-speedup and caps resident
      memory: --max-daemon-rss-mb after the budgeted daemon epochs,
      --max-peak-rss-mb after the 18M-entry full-mesh fill. Below
      --min-relays (a TING_BENCH_SCALE-reduced run) the speedup and RSS
      are recorded but informational — both are scale-bound, and the
      equality check still gates.

Exit status: 0 = pass, 1 = gate failed, 2 = unusable input.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def require(doc, path, *keys):
    cur = doc
    for k in keys:
        if not isinstance(cur, dict) or k not in cur:
            print(f"bench_compare: {path} is missing {'.'.join(keys)}",
                  file=sys.stderr)
            sys.exit(2)
        cur = cur[k]
    return cur


def gate_speedup(args):
    doc = load(args.fresh)
    cpus = require(doc, args.fresh, "host_cpus")
    speedup = require(doc, args.fresh, "speedup_4_vs_1")
    identical = require(doc, args.fresh, "bit_identical")
    print(f"sharded scan: host_cpus={cpus} speedup_4_vs_1={speedup} "
          f"bit_identical={identical}")
    if not identical:
        print("FAIL: shard counts disagreed on the merged matrix")
        return 1
    if cpus < args.min_cpus:
        print(f"PASS (informational): {cpus} < {args.min_cpus} CPUs, "
              "wall-clock speedup is core-bound on this host")
        return 0
    if speedup < args.min_speedup:
        print(f"FAIL: {cpus}-CPU host but speedup_4_vs_1={speedup} "
              f"< {args.min_speedup}")
        return 1
    print(f"PASS: speedup_4_vs_1={speedup} >= {args.min_speedup}")
    return 0


def gate_regression(args):
    base = load(args.baseline)
    fresh = load(args.fresh)
    b = require(base, args.baseline, "optimizations", "throughput_speedup")
    f = require(fresh, args.fresh, "optimizations", "throughput_speedup")
    floor = b * (1.0 - args.max_regression)
    print(f"optimizations leg: baseline throughput_speedup={b} "
          f"fresh={f} floor={floor:.3f}")
    failed = False
    if f < floor:
        print(f"FAIL: throughput_speedup regressed more than "
              f"{args.max_regression:.0%}")
        failed = True

    # Absolute pairs/vhour is host- and scale-sensitive; only comparable
    # when both runs measured the same leg.
    same_leg = all(
        require(base, args.baseline, "optimizations", k)
        == require(fresh, args.fresh, "optimizations", k)
        for k in ("pairs",)
    ) and require(base, args.baseline, "samples_per_circuit") == require(
        fresh, args.fresh, "samples_per_circuit")
    if same_leg:
        pb = require(base, args.baseline, "optimizations",
                     "optimized_pairs_per_vhour")
        pf = require(fresh, args.fresh, "optimizations",
                     "optimized_pairs_per_vhour")
        pfloor = pb * (1.0 - args.max_regression)
        print(f"optimized pairs/vhour: baseline={pb} fresh={pf} "
              f"floor={pfloor:.2f}")
        if pf < pfloor:
            print(f"FAIL: optimized pairs/vhour regressed more than "
                  f"{args.max_regression:.0%}")
            failed = True
    else:
        print("pairs/vhour comparison skipped: runs measured different legs")

    if not failed:
        print("PASS: no bench regression")
    return 1 if failed else 0


def gate_construct(args):
    doc = load(args.fresh)
    legacy = require(doc, args.fresh, "world_construction", "legacy_clone_ms")
    shared = require(doc, args.fresh, "world_construction",
                     "shared_topology_ms")
    speedup = require(doc, args.fresh, "world_construction",
                      "construct_speedup")
    reseed = require(doc, args.fresh, "world_construction", "reseed_us")
    print(f"world construction: legacy_clone_ms={legacy} "
          f"shared_topology_ms={shared} construct_speedup={speedup} "
          f"reseed_us={reseed}")
    if speedup < args.min_speedup:
        print(f"FAIL: shared-topology construction only {speedup}x faster "
              f"than clone-per-shard (< {args.min_speedup})")
        return 1
    print(f"PASS: construct_speedup={speedup} >= {args.min_speedup}")
    return 0


def gate_serve(args):
    doc = load(args.fresh)
    qps = require(doc, args.fresh, "concurrent_queries_per_sec")
    publishes = require(doc, args.fresh, "publishes")
    epochs = require(doc, args.fresh, "epochs")
    queries = require(doc, args.fresh, "concurrent_queries")
    print(f"path server: concurrent_queries_per_sec={qps} "
          f"({queries} queries), publishes={publishes}/{epochs} epochs")
    failed = False
    if publishes < epochs:
        print(f"FAIL: only {publishes} of {epochs} epochs published "
              "a snapshot")
        failed = True
    if qps < args.min_qps:
        print(f"FAIL: concurrent query throughput {qps} < {args.min_qps}")
        failed = True
    if not failed:
        print(f"PASS: sustained {qps} q/s >= {args.min_qps} "
              "concurrent with daemon epochs")
    return 1 if failed else 0


def gate_scale(args):
    doc = load(args.fresh)
    relays = require(doc, args.fresh, "scale", "relays")
    identical = require(doc, args.fresh, "scale", "planner_identical")
    speedup = require(doc, args.fresh, "scale", "planner_speedup")
    full_ms = require(doc, args.fresh, "scale", "plan_full_ms")
    incr_ms = require(doc, args.fresh, "scale", "plan_incremental_ms")
    fill_pairs = require(doc, args.fresh, "scale", "fill_pairs")
    matrix_mb = require(doc, args.fresh, "scale", "matrix_memory_mb")
    daemon_rss = require(doc, args.fresh, "scale", "daemon_rss_mb")
    peak_rss = require(doc, args.fresh, "scale", "peak_rss_mb")
    print(f"scale leg: relays={relays} fill_pairs={fill_pairs} "
          f"matrix_memory_mb={matrix_mb}")
    print(f"  planner: full={full_ms}ms incremental={incr_ms}ms "
          f"speedup={speedup}x identical={identical}")
    print(f"  rss: daemon={daemon_rss}MB peak={peak_rss}MB")
    if not identical:
        print("FAIL: incremental planner diverged from plan_delta")
        return 1
    if relays < args.min_relays:
        print(f"PASS (informational): {relays} < {args.min_relays} relays, "
              "speedup and RSS are scale-bound on this run")
        return 0
    failed = False
    if speedup < args.min_speedup:
        print(f"FAIL: incremental planner only {speedup}x faster than the "
              f"full census at {relays} relays (< {args.min_speedup})")
        failed = True
    if daemon_rss > args.max_daemon_rss_mb:
        print(f"FAIL: daemon epochs peaked at {daemon_rss} MB RSS "
              f"(> {args.max_daemon_rss_mb})")
        failed = True
    if peak_rss > args.max_peak_rss_mb:
        print(f"FAIL: process peaked at {peak_rss} MB RSS "
              f"(> {args.max_peak_rss_mb})")
        failed = True
    if not failed:
        print(f"PASS: identical plans, {speedup}x planner speedup, "
              f"RSS within caps at {relays} relays")
    return 1 if failed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("gate-speedup")
    sp.add_argument("fresh")
    sp.add_argument("--min-speedup", type=float, default=2.0)
    sp.add_argument("--min-cpus", type=int, default=4)
    sp.set_defaults(func=gate_speedup)

    rp = sub.add_parser("gate-regression")
    rp.add_argument("baseline")
    rp.add_argument("fresh")
    rp.add_argument("--max-regression", type=float, default=0.15)
    rp.set_defaults(func=gate_regression)

    cp = sub.add_parser("gate-construct")
    cp.add_argument("fresh")
    cp.add_argument("--min-speedup", type=float, default=5.0)
    cp.set_defaults(func=gate_construct)

    vp = sub.add_parser("gate-serve")
    vp.add_argument("fresh")
    vp.add_argument("--min-qps", type=float, default=10000)
    vp.set_defaults(func=gate_serve)

    gp = sub.add_parser("gate-scale")
    gp.add_argument("fresh")
    gp.add_argument("--min-speedup", type=float, default=10.0)
    gp.add_argument("--min-relays", type=int, default=6000)
    gp.add_argument("--max-daemon-rss-mb", type=float, default=2048)
    gp.add_argument("--max-peak-rss-mb", type=float, default=4096)
    gp.set_defaults(func=gate_scale)

    args = p.parse_args()
    sys.exit(args.func(args))


if __name__ == "__main__":
    main()
