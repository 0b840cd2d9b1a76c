#!/usr/bin/env python3
"""Validate a Prometheus text exposition emitted by the obs registry.

Usage:
    check_obs_export.py BENCH_serve_metrics.prom [--expect-series FILE]
    check_obs_export.py BENCH_serve_metrics.prom --list-series > FILE

The serve bench writes the process-wide registry as Prometheus text
(v0.0.4) next to BENCH_serve.json; this script is the CI gate that the
export stays parseable and semantically sane:

1. Syntax: every non-comment line is `name[{labels}] value` with a
   finite value; every `# TYPE` header names a kind we emit (counter,
   gauge, histogram) and appears at most once per metric name.
2. Typing: every sample line belongs to a `# TYPE`-declared family
   (counters via their _total name, histograms via _bucket/_sum/_count).
3. Histogram invariants: bucket series are cumulative (monotone
   non-decreasing in `le` order), the `+Inf` bucket exists and equals
   `_count`, and `_sum`/`_count` are present for every label set.
4. Naming convention: every wishbone-owned family starts with
   `wishbone_<layer>_...` (bench-local series use wishbone_bench_).
5. With --expect-series FILE: the set of exported series — sample name
   plus labels, with histogram buckets compared by name only (the `le`
   label is dropped) — equals the list in FILE, one series per line.
   bench/results/obs_series_serve.txt pins the bench_serve_fleet export;
   --list-series prints a file's set in that format.

Exits non-zero listing every violation (the repo's check_* convention).
"""

import argparse
import math
import re
import sys

LINE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)$")
LABEL_RE = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$')
NAME_RE = re.compile(r"^wishbone_[a-z0-9]+_[a-z0-9_]+$")


def parse_value(s):
    if s == "+Inf":
        return math.inf
    return float(s)


def series_key(name, labels):
    """`name{k="v",...}` with sorted labels, `le` dropped."""
    pairs = sorted((k, v) for k, v in labels.items() if k != "le")
    if not pairs:
        return name
    return name + "{" + ",".join(f'{k}="{v}"' for k, v in pairs) + "}"


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("prom", help="Prometheus text exposition to validate")
    ap.add_argument("--expect-series", metavar="FILE",
                    help="fail unless the exported series equal FILE's list")
    ap.add_argument("--list-series", action="store_true",
                    help="print the exported series, one per line, and exit")
    args = ap.parse_args()
    path = args.prom
    with open(path) as f:
        lines = f.read().splitlines()

    failures = []
    types = {}        # family name -> kind
    samples = []      # (name, labels_dict, value, line_no)

    for no, line in enumerate(lines, 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            m = re.match(r"^# TYPE (\S+) (\S+)$", line)
            if not m:
                failures.append(f"line {no}: unparseable comment {line!r}")
                continue
            name, kind = m.groups()
            if kind not in ("counter", "gauge", "histogram"):
                failures.append(f"line {no}: unknown TYPE kind {kind!r}")
            if name in types:
                failures.append(f"line {no}: duplicate TYPE for {name}")
            types[name] = kind
            continue
        m = LINE_RE.match(line)
        if not m:
            failures.append(f"line {no}: unparseable sample {line!r}")
            continue
        labels = {}
        if m.group("labels"):
            for pair in re.split(r",(?=[a-zA-Z_])", m.group("labels")):
                if not LABEL_RE.match(pair):
                    failures.append(f"line {no}: bad label {pair!r}")
                    continue
                k, v = pair.split("=", 1)
                labels[k] = v[1:-1]
        try:
            value = parse_value(m.group("value"))
        except ValueError:
            failures.append(f"line {no}: non-numeric value {line!r}")
            continue
        if math.isnan(value):
            failures.append(f"line {no}: NaN sample value")
        samples.append((m.group("name"), labels, value, no))

    if not samples:
        failures.append("no samples at all — empty or truncated export")

    exported = {series_key(name, labels) for name, labels, _, _ in samples}
    if args.list_series:
        print("\n".join(sorted(exported)))
        return 0
    if args.expect_series:
        with open(args.expect_series) as f:
            expected = {line.strip() for line in f if line.strip()}
        for s in sorted(expected - exported):
            failures.append(f"series missing from the export: {s}")
        for s in sorted(exported - expected):
            failures.append(f"series not in {args.expect_series}: {s}")

    # ---- typing: every sample belongs to a declared family ----------
    def family_of(name):
        if name in types:
            return name
        for suffix in ("_bucket", "_sum", "_count"):
            base = name.removesuffix(suffix)
            if base != name and types.get(base) == "histogram":
                return base
        return None

    families = {}  # family -> list of samples
    for name, labels, value, no in samples:
        fam = family_of(name)
        if fam is None:
            failures.append(f"line {no}: {name} has no # TYPE header")
            continue
        families.setdefault(fam, []).append((name, labels, value, no))

    # ---- naming convention ------------------------------------------
    for fam in types:
        if not NAME_RE.match(fam):
            failures.append(
                f"family {fam}: violates wishbone_<layer>_<what> naming")

    # ---- histogram invariants ---------------------------------------
    for fam, kind in types.items():
        if kind != "histogram":
            continue
        rows = families.get(fam, [])
        # Group by the label set minus `le`.
        by_series = {}
        for name, labels, value, no in rows:
            key = tuple(sorted((k, v) for k, v in labels.items()
                               if k != "le"))
            by_series.setdefault(key, {"buckets": [], "sum": None,
                                       "count": None})
            series = by_series[key]
            if name == fam + "_bucket":
                if "le" not in labels:
                    failures.append(f"line {no}: bucket without le label")
                    continue
                series["buckets"].append((parse_value(labels["le"]), value,
                                          no))
            elif name == fam + "_sum":
                series["sum"] = value
            elif name == fam + "_count":
                series["count"] = value
        for key, series in by_series.items():
            tag = f"{fam}{dict(key) if key else ''}"
            buckets = sorted(series["buckets"])
            if not buckets:
                failures.append(f"{tag}: histogram with no buckets")
                continue
            if not math.isinf(buckets[-1][0]):
                failures.append(f"{tag}: missing +Inf bucket")
            cum = [v for _, v, _ in buckets]
            if any(b > a for a, b in zip(cum[1:], cum)):
                failures.append(f"{tag}: bucket counts not cumulative")
            if series["count"] is None or series["sum"] is None:
                failures.append(f"{tag}: missing _sum or _count")
            elif buckets and buckets[-1][1] != series["count"]:
                failures.append(
                    f"{tag}: +Inf bucket {buckets[-1][1]} != _count "
                    f"{series['count']}")

    if failures:
        print(f"OBS EXPORT CHECK FAILED for {path}:")
        for f_ in failures:
            print(f"  - {f_}")
        return 1
    n_hist = sum(1 for k in types.values() if k == "histogram")
    print(f"obs export OK: {path} — {len(types)} families "
          f"({n_hist} histograms), {len(samples)} samples, "
          f"{len(exported)} series")
    return 0


if __name__ == "__main__":
    sys.exit(main())
