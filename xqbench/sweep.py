#!/usr/bin/env python3
"""Run every xqbench workload over several seeds and report the spread.

    python3 xqbench/sweep.py --out DIR [--seeds 1-10] [--workloads a,b]
                             [--trace 0|1]
    python3 xqbench/sweep.py --out DIR --summarize

Each run is `BENCHMARK.json`'s command with --workload/--seed/--seconds/
--trace appended, run from the checkout root; its standard output is kept
as DIR/<workload>.seed<N>.trace<T>.out. The summary prints, per workload
and end-to-end metric, the median and the spread (interquartile distance
over the median, statistics.quantiles(n=4)) against the metric's bound.
compare.py diffs two such directories.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def read_result(path):
    """The final JSON line and the per-kind medians of one saved run."""
    with open(path) as f:
        lines = f.read().rstrip("\n").split("\n")
    kinds = {}
    for line in lines:
        if line.startswith("xqbench kinds "):
            kinds = json.loads(line[len("xqbench kinds "):])
    return json.loads(lines[-1]), kinds


def load_runs(directory, trace=0):
    """{workload: [(seed, result, kinds)]} from a sweep directory."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(f".trace{trace}.out"):
            continue
        workload, seed = name.split(".")[0], name.split(".")[1]
        result, kinds = read_result(os.path.join(directory, name))
        runs.setdefault(workload, []).append(
            (int(seed[len("seed"):]), result, kinds))
    return runs


def spread(values):
    """Interquartile distance over the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def summarize(directory, spec, trace):
    runs = load_runs(directory, trace)
    metrics = spec["per_layer" if trace else "end_to_end"]
    ok = True
    for workload, entries in runs.items():
        correct = all(r["correct"] for _, r, _ in entries)
        failed = sum(r["failed"] for _, r, _ in entries)
        attempted = sum(r["attempted"] for _, r, _ in entries)
        print(f"{workload}: {len(entries)} runs, correct={correct}, "
              f"failed_frac={failed / max(1, attempted):.3g} "
              f"({failed} of {attempted} ops)")
        ok &= correct
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for _, r, _ in entries]
            med = statistics.median(values)
            s = spread(values)
            bound = m.get("bound")
            if bound is None:
                flag = ""
            elif m["name"] == "setup_s":
                flag = "(spread exempt)"
            elif s <= bound / 3:
                flag = "steady"
            elif s <= bound:
                flag = "within bound, above bound/3"
            else:
                flag = "TOO WIDE"
                ok = False
            bound_text = f"bound {bound:.2f}" if bound is not None else ""
            print(f"  {m['name']:34s} median {med:12.6g} {m['unit']:6s} "
                  f"spread {s:6.3f} {bound_text} {flag}")
    return ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--summarize", action="store_true")
    args = ap.parse_args()
    spec = load_spec()
    if not args.summarize:
        os.makedirs(args.out, exist_ok=True)
        names = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
        for workload in names:
            for seed in parse_seeds(args.seeds):
                cmd = spec["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]),
                    "--trace", str(args.trace)]
                r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                   stderr=subprocess.PIPE, text=True)
                path = os.path.join(
                    args.out, f"{workload}.seed{seed}.trace{args.trace}")
                with open(path + ".err", "w") as f:
                    f.write(r.stderr)
                if r.returncode != 0:
                    print(f"{workload} seed {seed}: exit {r.returncode}",
                          file=sys.stderr)
                    continue
                with open(path + ".out", "w") as f:
                    f.write(r.stdout)
                print(f"{workload} seed {seed}: done", file=sys.stderr)
    sys.exit(0 if summarize(args.out, spec, args.trace) else 1)


if __name__ == "__main__":
    main()
