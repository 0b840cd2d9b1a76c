#!/usr/bin/env python3
"""Diff a freshly emitted BENCH_fig6.json against a reference snapshot.

Usage:
    check_fig6_regression.py REFERENCE.json FRESH.json [--max-iter-regression R]
                             [--require-protocol-match]
                             [--max-fallback-share S]

Compares the LP-iteration totals of the two runs over the sweep points
that were *fully proved in both* (optimality shown or infeasibility
established). Proved points finish before any time or node cap binds,
so their iteration counts are a machine-independent measure of solver
work — censored points spend whatever the cap allows and would make the
comparison depend on CI hardware. Also cross-checks that the objectives
agree wherever both runs found an incumbent: an iteration win that
changes answers is a bug, not an optimization.

Exits nonzero when the fresh run needs more than (1 + R) times the
reference iterations on the mutually proved points (default R = 0.10).

Always reports the fresh run's phase-1 fallback share — warm re-entries
that could not use the dual simplex — and, with --max-fallback-share,
fails when it exceeds S.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("reference")
    ap.add_argument("fresh")
    ap.add_argument("--max-iter-regression", type=float, default=0.10,
                    help="allowed fractional iteration increase (default 0.10)")
    ap.add_argument("--require-protocol-match", action="store_true",
                    help="fail (instead of warn) when the time cap or node "
                         "budget differs from the reference")
    ap.add_argument("--max-fallback-share", type=float, default=None,
                    help="fail when the fresh run's phase-1 fallbacks "
                         "exceed this fraction of all dual re-entry "
                         "attempts (e.g. 0.05)")
    args = ap.parse_args()

    ref = load(args.reference)
    new = load(args.fresh)

    if ref.get("runs") != new.get("runs"):
        sys.exit(f"sweep sizes differ: reference runs={ref.get('runs')} "
                 f"vs fresh runs={new.get('runs')} — rerun the bench with "
                 f"the reference protocol")
    # A protocol mismatch (different cap / node budget) changes which
    # points get proved; the mutual-proved restriction below keeps the
    # comparison sound, but a same-protocol reference is tighter — with
    # equal node budgets the reference cannot have proved a point with
    # far more search than the fresh run, so a newly proved point can't
    # inject headroom that masks a regression elsewhere.
    for key in ("per_solve_limit_s", "max_nodes_per_solve"):
        if ref.get(key) != new.get(key):
            msg = (f"protocol mismatch: {key} reference={ref.get(key)} "
                   f"vs fresh={new.get(key)}")
            if args.require_protocol_match:
                sys.exit(msg)
            print(f"warning: {msg}")

    # Dual-path health gate: a warm re-entry that punts to phase 1 got
    # no value out of the dual-feasible basis. Report always, enforce
    # when asked.
    fallbacks = new.get("total_phase1_fallbacks", 0)
    attempts = new.get("total_dual_reentries", 0) + fallbacks
    share = fallbacks / attempts if attempts else 0.0
    print(f"dual re-entry fallback share: {share:.4f} "
          f"({fallbacks} of {attempts})")
    if args.max_fallback_share is not None and \
            share > args.max_fallback_share:
        sys.exit(f"phase-1 fallback share {share:.4f} exceeds "
                 f"--max-fallback-share {args.max_fallback_share}")

    ref_proved = ref["proved"]
    new_proved = new["proved"]
    ref_iters = ref["lp_iterations_per_point"]
    new_iters = new["lp_iterations_per_point"]
    ref_obj = ref["objectives"]
    new_obj = new["objectives"]

    mutual = [i for i in range(len(ref_proved))
              if ref_proved[i] == 1 and new_proved[i] == 1]
    if not mutual:
        sys.exit("no sweep point was proved in both runs — cannot compare "
                 "solver work; check the fresh run for a solver breakage")

    # Objective guard on mutually *proved* points only: there the
    # optimum is a true invariant. Censored points carry incumbents,
    # which are search-order artifacts — a different (even better)
    # incumbent on a censored point is not a defect.
    for i in mutual:
        if ref_obj[i] < 0 or new_obj[i] < 0:
            continue  # infeasible marker
        tol = 1e-6 * max(1.0, abs(ref_obj[i]))
        if abs(ref_obj[i] - new_obj[i]) > tol:
            sys.exit(f"objective mismatch at proved sweep point {i}: "
                     f"reference {ref_obj[i]!r} vs fresh {new_obj[i]!r}")

    ref_total = sum(ref_iters[i] for i in mutual)
    new_total = sum(new_iters[i] for i in mutual)
    ratio = new_total / ref_total if ref_total else float("inf")
    budget = 1.0 + args.max_iter_regression

    print(f"mutually proved points: {mutual}")
    print(f"reference iterations (engine {ref.get('engine', 'n/a')}): "
          f"{ref_total}")
    print(f"fresh iterations     (engine {new.get('engine', 'n/a')}): "
          f"{new_total}")
    print(f"ratio: {ratio:.4f} (budget {budget:.2f})")

    if ratio > budget:
        sys.exit(f"iteration-count regression: {new_total} vs {ref_total} "
                 f"({ratio:.2f}x > {budget:.2f}x allowed)")
    print("OK: no iteration-count regression")


if __name__ == "__main__":
    main()
