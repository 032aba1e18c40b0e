#!/usr/bin/env python3
"""Diff two xqbench sweeps against the bounds in BENCHMARK.json.

    python3 xqbench/compare.py BASE_DIR NEW_DIR

Both directories come from sweep.py (same seeds, same run length). For
every workload and end-to-end metric it prints the base median (the base of
the ratio), the new median, new/base, each side's spread (interquartile
distance over the median) and a verdict:

  worse       the new median is worse than the base by more than the bound
  improved    the new side wins at least 9 of 10 seed-paired runs and the
              medians differ by more than the base's own spread
  unchanged   neither, with both spreads within the bound
  unresolved  a spread is wider than the bound (unless every new run beats
              every base run)

It also prints, per workload, the geometric mean over query kinds of the
per-kind median latency ratio new/base, so no single kind (XMark Q9) can
hide the others.
"""
import math
import statistics
import sys

from sweep import load_runs, load_spec, spread


def better(a, b, lower_is_better):
    return a < b if lower_is_better else a > b


def compare_metric(base, new, metric):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    bvals = [v for _, v in sorted(base.items())]
    nvals = [v for _, v in sorted(new.items())]
    bmed, nmed = statistics.median(bvals), statistics.median(nvals)
    ratio = nmed / bmed if bmed else float("inf")
    worse_by = (ratio - 1) if lower else (1 - ratio)
    sb, sn = spread(bvals), spread(nvals)
    paired = sorted(set(base) & set(new))
    wins = sum(better(new[s], base[s], lower) for s in paired)
    dominates = all(better(n, b, lower) for n in nvals for b in bvals)
    if metric["name"] != "setup_s" and max(sb, sn) > bound and not dominates:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "worse"
    elif (paired and wins >= 0.9 * len(paired) and
          abs(nmed - bmed) > sb * abs(bmed)):
        verdict = "improved"
    else:
        verdict = "unchanged"
    return bmed, nmed, ratio, sb, sn, wins, len(paired), verdict


def kind_geomean(base_runs, new_runs):
    def medians(runs):
        per = {}
        for _, _, kinds in runs:
            for k, v in kinds.items():
                per.setdefault(k, []).append(v)
        return {k: statistics.median(v) for k, v in per.items()}
    bk, nk = medians(base_runs), medians(new_runs)
    logs = [math.log(nk[k] / bk[k]) for k in bk if k in nk and bk[k] > 0
            and nk[k] > 0]
    return (math.exp(sum(logs) / len(logs)) if logs else float("nan"),
            len(logs))


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    spec = load_spec()
    base_all, new_all = load_runs(sys.argv[1]), load_runs(sys.argv[2])
    regressions = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base_all or workload not in new_all:
            print(f"{workload}: missing on one side")
            continue
        base_runs, new_runs = base_all[workload], new_all[workload]
        print(f"{workload}: {len(base_runs)} base runs, "
              f"{len(new_runs)} new runs")
        for m in spec["end_to_end"]:
            base = {s: r["metrics"][m["name"]]["value"]
                    for s, r, _ in base_runs}
            new = {s: r["metrics"][m["name"]]["value"]
                   for s, r, _ in new_runs}
            bmed, nmed, ratio, sb, sn, wins, pairs, verdict = compare_metric(
                base, new, m)
            regressions += verdict == "worse"
            print(f"  {m['name']:18s} base {bmed:11.5g} {m['unit']:4s} "
                  f"new {nmed:11.5g}  new/base {ratio:6.3f} "
                  f"(base = {bmed:.5g} {m['unit']})  spread {sb:5.3f}/"
                  f"{sn:5.3f}  bound {m['bound']:.2f}  wins {wins}/{pairs}"
                  f"  {verdict}")
        g, n = kind_geomean(base_runs, new_runs)
        print(f"  geomean over {n} query kinds of median latency new/base: "
              f"{g:.3f}")
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
