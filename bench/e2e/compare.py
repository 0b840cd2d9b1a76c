#!/usr/bin/env python3
"""Compares two sets of wishbone-e2e runs against BENCHMARK.json's bounds.

    bench/e2e/run.sh -k 10 > A.txt     # e.g. the parent commit
    bench/e2e/run.sh -k 10 > B.txt     # the change
    python3 bench/e2e/compare.py A.txt B.txt [--claim WORKLOAD:METRIC]

Inputs hold the "<workload> <metric> <value> <unit>" lines run.sh prints,
runs in order. For every (workload, end-to-end metric) pair both sets'
median and quartiles are printed with a verdict:

  within bound  B's median is no worse than A's by more than the bound
  worse         B's median is worse than A's by more than the bound
  unresolved    a set's spread (quartile distance over median) is wider
                than the bound, unless every run of B beats every run of A

Per workload the failed share of each set is printed too; its bound is
+0, so any rise is "worse". --claim applies the rule for claiming a
gain: B wins at least 9 of every 10 pairs (run i of A against run i of
B; ties count for neither) and the medians differ by more than A's
quartile distance. The exit status is 1 if any pair is worse.

--baseline OUT writes both sets' medians and relative spreads, the
host's CPU count and model, and, from a set of traced runs given with
--layers FILE (run.sh -T), the per-layer medians, as JSON.
"""
import argparse
import json
import os
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def load(path):
    """{(workload, metric): [values in run order]} and {metric: unit}."""
    runs, units = defaultdict(list), {}
    for line in Path(path).read_text().splitlines():
        parts = line.split()
        if len(parts) != 4:
            continue
        w, m, v, u = parts
        runs[(w, m)].append(float(v))
        units[m] = u
    return runs, units


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3


def fmt(q):
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def spread(v):
    q1, med, q3 = quartiles(v)
    return (q3 - q1) / med if med else 0.0


def worse_by(a, b, better):
    """Relative change from a to b, positive when b is worse."""
    if a == 0:
        return 0.0
    return (b - a) / a if better == "lower" else (a - b) / a


def beats(x, y, better):
    return x < y if better == "lower" else x > y


def failed_share(runs, w):
    att = sum(runs.get((w, "attempted"), []))
    return sum(runs.get((w, "failed"), [])) / att if att else 0.0


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("--claim", action="append", default=[],
                    metavar="WORKLOAD:METRIC")
    ap.add_argument("--baseline", metavar="OUT")
    ap.add_argument("--layers", metavar="FILE")
    args = ap.parse_args()

    spec = json.loads(BENCHMARK.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    a, _ = load(args.a)
    b, _ = load(args.b)
    workloads = [w["name"] for w in spec["workloads"]
                 if any((w["name"], m) in a for m in metrics)]

    any_worse = False
    report = {}
    print(f"{'workload':15} {'metric':17} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'change':>8}  verdict")
    for w in workloads:
        for name, m in metrics.items():
            va, vb = a.get((w, name)), b.get((w, name))
            if not va or not vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            change = worse_by(qa[1], qb[1], m["better"])
            if max(spread(va), spread(vb)) > m["bound"]:
                all_better = all(beats(x, y, m["better"])
                                 for x in vb for y in va)
                verdict = "within bound" if all_better else "unresolved"
            elif change > m["bound"]:
                verdict = "worse"
            else:
                verdict = "within bound"
            any_worse |= verdict == "worse"
            print(f"{w:15} {name:17} {fmt(qa):>30} {fmt(qb):>30} "
                  f"{change:>+8.2%}  {verdict}")
            report.setdefault(w, {})[name] = {
                "unit": m["unit"], "bound": m["bound"], "verdict": verdict,
                "A": {"runs": len(va), "median": qa[1],
                      "rel_iqr": spread(va)},
                "B": {"runs": len(vb), "median": qb[1],
                      "rel_iqr": spread(vb)},
            }
        fa, fb = failed_share(a, w), failed_share(b, w)
        verdict = "worse" if fb > fa else "within bound"
        any_worse |= verdict == "worse"
        print(f"{w:15} {'failed_share':17} {fa:>30.5g} {fb:>30.5g} "
              f"{'':>8}  {verdict} (bound +0)")
        report.setdefault(w, {})["failed_share"] = {
            "A": fa, "B": fb, "verdict": verdict}

    for claim in args.claim:
        w, _, name = claim.partition(":")
        m = metrics.get(name)
        va, vb = a.get((w, name), []), b.get((w, name), [])
        pairs = list(zip(va, vb))
        if m is None or not pairs:
            print(f"claim {claim}: no such runs")
            continue
        wins = sum(beats(y, x, m["better"]) for x, y in pairs)
        qa = quartiles(va)
        gap = abs(statistics.median(vb) - qa[1])
        met = wins >= 0.9 * len(pairs) and gap > qa[2] - qa[0]
        print(f"claim {claim}: B wins {wins}/{len(pairs)} pairs, medians "
              f"differ by {gap:.5g} vs A's quartile distance "
              f"{qa[2] - qa[0]:.5g}: {'met' if met else 'not met'}")

    if args.baseline:
        out = {
            "host": {"nproc": os.cpu_count(), "cpu_model": cpu_model()},
            "sets": {"A": Path(args.a).name, "B": Path(args.b).name},
            "run_seconds": spec["run_seconds"],
            "end_to_end": report,
        }
        if args.layers:
            layers, lunits = load(args.layers)
            out["per_layer"] = {}
            for (w, name), v in sorted(layers.items()):
                if name in ("attempted", "failed"):
                    continue
                out["per_layer"].setdefault(w, {})[name] = {
                    "median": statistics.median(v), "unit": lunits[name],
                    "runs": len(v)}
        Path(args.baseline).write_text(json.dumps(out, indent=2) + "\n")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
