#!/usr/bin/env python3
"""Repeats perfbench runs and records them in the benchmark's trajectory.

Run from the root of a checkout:

    python3 perfbench/ledger.py --seeds 1-10 --label seed-commit \\
        --out perfbench/trajectory.json
    python3 perfbench/ledger.py --determinism --seeds 7

The first form runs every workload once per seed with --trace 0 and once
(first seed) with --trace 1. It prints, per workload and end-to-end metric,
the median, the quartiles and the spread (quartile distance over median)
against the metric's bound in BENCHMARK.json. With --out it appends one entry
to that JSON list, together with the traced run's per-layer values and the
provenance line of the first run.

--determinism runs every workload twice with --trace 1 and the first seed
and checks that every exact metric reads the same both times. Exit status
is non-zero when a run fails or an exact metric differs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Host-time figures; every other metric is a simulated count or statistic
# and must repeat exactly for a given seed.
HOST_TIME = {"e2e.sim_txn_per_s", "e2e.wall_s", "setup_s", "peak_rss_mb",
             "sim.ns_per_event", "txn.gen_ns_per_txn", "trace.overhead_frac",
             "trace.analysis_s"}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace}: "
                         f"exit {p.returncode}")
    provenance = next((json.loads(l)["provenance"] for l in lines
                       if l.startswith('{"provenance"')), {})
    return json.loads(lines[-1]), provenance


def values(result):
    return {k: v["value"] for k, v in result["metrics"].items()}


def determinism(bench, seed, seconds):
    ok = True
    for w in bench["workloads"]:
        a = values(run(w["name"], seed, seconds, 1)[0])
        b = values(run(w["name"], seed, seconds, 1)[0])
        diff = [k for k in a if k not in HOST_TIME and a[k] != b.get(k)]
        verdict = "DIFFER: " + ", ".join(diff) if diff else "identical"
        print(f"{w['name']:12s} exact metrics {verdict}")
        ok = ok and not diff
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated subset (default: all)")
    ap.add_argument("--label", default="unlabelled")
    ap.add_argument("--out", default=None)
    ap.add_argument("--determinism", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    seeds = parse_seeds(args.seeds)
    if args.workloads:
        keep = set(args.workloads.split(","))
        bench["workloads"] = [w for w in bench["workloads"]
                              if w["name"] in keep]
    if args.determinism:
        return 0 if determinism(bench, seeds[0], seconds) else 1

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    entry = {"label": args.label, "seeds": seeds, "seconds": seconds,
             "workloads": {}}
    for w in bench["workloads"]:
        name = w["name"]
        samples = {}
        for seed in seeds:
            result, provenance = run(name, seed, seconds, 0)
            entry.setdefault("provenance", provenance)
            for k, v in values(result).items():
                samples.setdefault(k, []).append(v)
        traced, _ = run(name, seeds[0], seconds, 1)
        stats = {}
        for k, v in samples.items():
            q1, med, q3 = (statistics.quantiles(v, n=4) if len(v) > 1
                           else (v[0], v[0], v[0]))
            spread = (q3 - q1) / med if med else 0.0
            stats[k] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                        "bound": bounds.get(k), "values": v}
            print(f"{name:12s} {k:16s} median {med:12.6g} q1 {q1:12.6g} "
                  f"q3 {q3:12.6g} spread {spread:6.3f} bound {bounds.get(k)}",
                  flush=True)
        entry["workloads"][name] = {"end_to_end": stats,
                                    "per_layer": values(traced)}
    if args.out:
        trajectory = []
        if os.path.exists(args.out):
            with open(args.out) as f:
                trajectory = json.load(f)
        trajectory.append(entry)
        with open(args.out, "w") as f:
            json.dump(trajectory, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
