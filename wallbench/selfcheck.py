#!/usr/bin/env python3
"""Steadiness self-check of the dex wall-clock benchmark.

    python3 wallbench/selfcheck.py [--workloads explore,scan,ingest]
                                   [--seconds S] [--seeds N]

Without --seeds: for each workload, runs one seed twice and one held-out
seed once (tracing off). The two same-seed runs must produce an identical
digest of their first answers and identical simulated I/O time for them
(the paper's disk model is deterministic; how many questions a run gets
through depends on the host), and every end-to-end metric of the three runs
must agree with their median within the metric's bound in BENCHMARK.json.

With --seeds N: runs N different seeds per workload and prints, for every
end-to-end metric, the distance between the first and third quartile as a
share of the median, next to the metric's bound (the benchmark aims to stay
below a third of it).

Exits 1 when a check fails. Run from the root of a checkout.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SAME_SEED = 90001
HELD_OUT_SEED = 90002  # never used while the bounds were sized


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec, {m["name"]: m["bound"] for m in spec["end_to_end"]}


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n"
                 f"{out.stderr[-3000:]}")
    result = json.loads(lines[-1])
    info = {}
    for line in lines[:-1]:
        fields = dict(f.split("=", 1) for f in line.split()[1:] if "=" in f)
        if line.startswith("info") and "prefix_digest" in fields:
            info = fields
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return result, values, info


def same_seed_check(workloads, seconds, bounds):
    ok = True
    for w in workloads:
        runs = [run(w, s, seconds) for s in (SAME_SEED, SAME_SEED, HELD_OUT_SEED)]
        (_, _, a), (_, _, b) = runs[0], runs[1]
        for key in ("prefix_digest", "prefix_sim_io_ms"):
            same = a.get(key) == b.get(key)
            ok &= same
            print(f"{w:8s} {key:22s} {a.get(key)} vs {b.get(key)} "
                  f"{'same' if same else 'DIFFERENT'}")
        for name, bound in bounds.items():
            vals = [values[name] for _, values, _ in runs]
            med = statistics.median(vals)
            worst = max(abs(v - med) / med for v in vals)
            within = worst <= bound
            ok &= within or name == "setup_s"
            print(f"{w:8s} {name:22s} {' '.join(f'{v:.4g}' for v in vals)}  "
                  f"max dev {worst:.3f} bound {bound} "
                  f"{'ok' if within else 'OUTSIDE'}")
    return ok


def spread_check(workloads, seconds, seeds, bounds):
    ok = True
    for w in workloads:
        per_metric = {}
        for seed in range(1, seeds + 1):
            _, values, _ = run(w, seed, seconds)
            for name, v in values.items():
                per_metric.setdefault(name, []).append(v)
        for name, vals in per_metric.items():
            q = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q[2] - q[0]) / med
            bound = bounds[name]
            ok &= spread <= bound or name == "setup_s"
            print(f"{w:8s} {name:16s} median {med:10.4g} spread {spread:.3f} "
                  f"bound {bound} (aim < {bound / 3:.3f}) "
                  f"{'ok' if spread < bound / 3 else 'WIDE'}  "
                  f"[{' '.join(f'{v:.4g}' for v in vals)}]")
    return ok


def main():
    spec, bounds = load_spec()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--seeds", type=int, default=0)
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    if args.seeds:
        ok = spread_check(workloads, args.seconds, args.seeds, bounds)
    else:
        ok = same_seed_check(workloads, args.seconds, bounds)
    print("selfcheck:", "pass" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
