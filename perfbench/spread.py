#!/usr/bin/env python3
"""Check the benchmark's run-to-run spread and its determinism.

    python3 perfbench/spread.py spread [--runs 10] [--workload W ...]
    python3 perfbench/spread.py determinism [--seed 1] [--other-seed 2]

Run from the repository root. `spread` runs every workload (or the named
ones) with seeds 1..N and prints, per end-to-end metric, the median and the
distance between the first and third quartile as a share of the median,
against the metric's bound in BENCHMARK.json; it exits non-zero when a run
fails its checks, prints a metric BENCHMARK.json does not declare (with
that unit) or leaves one out, or a spread exceeds a third of its bound.
`determinism` runs each workload twice on one seed, traced and untraced, and once on another seed, and
checks that the quality metrics and the program's own counts repeat
exactly for the same seed.
"""

import argparse
import json
import statistics
import subprocess
import sys

BENCH = json.load(open("BENCHMARK.json"))
# Metrics that are pure functions of the seed's inputs (and the program),
# on every workload.
EXACT = ["speedup_vs_dp_geomean", "cost.k_sum_before", "cost.k_sum_after",
         "cost.prune_keep_ratio", "core.states_evaluated"]


def run(workload, seed, trace):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    printed = {name: v["unit"] for name, v in result["metrics"].items()}
    if printed != declared:
        sys.exit(f"{workload} --trace {trace}: printed metrics {printed} "
                 f"differ from the declared {declared}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(args):
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    ok = True
    for workload in args.workload or [w["name"] for w in BENCH["workloads"]]:
        runs = [run(workload, seed, 0) for seed in range(1, args.runs + 1)]
        for name in sorted(runs[0]):
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med if med else float("inf")
            steady = share < bounds[name] / 3
            ok &= steady
            print(f"{workload:14} {name:28} median {med:12.6g}  spread {share:7.2%}  "
                  f"bound {bounds[name]:.0%}  {'ok' if steady else 'TOO WIDE'}")
            print(f"{'':14} {'':28} {' '.join(f'{v:.6g}' for v in values)}")
    sys.exit(0 if ok else 1)


def determinism(args):
    ok = True
    for w in BENCH["workloads"]:
        workload = w["name"]
        first = {**run(workload, args.seed, 0), **run(workload, args.seed, 1)}
        again = {**run(workload, args.seed, 0), **run(workload, args.seed, 1)}
        other = run(workload, args.other_seed, 0)
        for name in EXACT:
            same = first[name] == again[name]
            ok &= same
            print(f"{workload:14} {name:24} seed {args.seed}: {first[name]!r} / {again[name]!r} "
                  f"{'repeats' if same else 'DIFFERS'}; seed {args.other_seed}: "
                  f"{other.get(name, '(per-layer)')!r}")
        print(f"{workload:14} seed {args.other_seed} ran clean with {len(other)} metrics")
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("spread")
    s.add_argument("--runs", type=int, default=10)
    s.add_argument("--workload", action="append")
    d = sub.add_parser("determinism")
    d.add_argument("--seed", type=int, default=1)
    d.add_argument("--other-seed", type=int, default=2)
    args = p.parse_args()
    spread(args) if args.mode == "spread" else determinism(args)


if __name__ == "__main__":
    main()
