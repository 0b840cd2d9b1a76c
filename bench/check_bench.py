#!/usr/bin/env python3
"""Gate a freshly emitted bench JSON against a reference snapshot.

Usage:
    check_bench.py GATE REFERENCE.json FRESH.json

GATE names one entry of GATES below. Each entry pairs a field of the
fresh run (or a value DERIVED from it) with one kind of check:

    eq / min / max   fresh == / >= / <= a constant
    ref_eq           fresh equals the reference within a relative
                     tolerance (exactly, for non-numbers such as hashes)
    ref_min/ref_max  fresh >= / <= the reference times a ratio
    report           printed, never fails
    same_host        when fresh and reference differ in this field,
                     the ref_* checks after it only report
    a function       a rule no field check can state (proved_points)

Wall-clock fields are always `report`: they depend on the host, while
counters, seeded outcomes and ratios of two timings on one host do not.
Exits 1 when any check fails.
"""

import json
import math
import sys


def proved_points(ref, new, max_ratio):
    """Fig. 6 sweep points proved in both runs (optimal or infeasible).

    There the objective is a true invariant, so it must match, the -1
    infeasible marker included; censored points carry search-order
    incumbents and are skipped. Proved points finish before any cap
    binds, so their LP-iteration sum is machine-independent solver work:
    it may grow to at most max_ratio times the reference.
    """
    mutual = [i for i, (a, b) in enumerate(zip(ref["proved"], new["proved"]))
              if a == b == 1]
    if not mutual:
        return ["no sweep point was proved in both runs"]
    fails = []
    for i in mutual:
        ro, no = ref["objectives"][i], new["objectives"][i]
        if abs(ro - no) > 1e-6 * max(1.0, abs(ro)):
            fails.append(f"objective at proved point {i}: reference {ro!r} "
                         f"vs fresh {no!r}")
    ref_total = sum(ref["lp_iterations_per_point"][i] for i in mutual)
    new_total = sum(new["lp_iterations_per_point"][i] for i in mutual)
    ratio = new_total / ref_total if ref_total else math.inf
    print(f"proved in both: {mutual}; LP iterations {new_total} vs "
          f"reference {ref_total} ({ratio:.4f}x, max {max_ratio:.2f}x)")
    if ratio > max_ratio:
        fails.append(f"LP iterations on proved points: {ratio:.4f}x the "
                     f"reference > {max_ratio:.2f}x")
    return fails


DERIVED = {
    # Warm re-entries that punted from the dual simplex to phase 1.
    "fallback_share": lambda d: d["total_phase1_fallbacks"] / max(
        1, d["total_dual_reentries"] + d["total_phase1_fallbacks"]),
    # Every ladder request is solved, expired or shut down: 0 when so.
    "ladder_unaccounted": lambda d: d["ladder_requests"] - (
        d["ladder_solved"] + d["ladder_expired"] + d["ladder_shutdown"]),
    "crash_share": lambda d: d["nodes_crashed"] / d["num_nodes"],
}

FIG6_PROTOCOL = [("runs", "ref_eq", 0), ("per_solve_limit_s", "ref_eq", 0),
                 ("max_nodes_per_solve", "ref_eq", 0)]

GATES = {
    # Against the snapshot taken under the same node-budget protocol.
    "fig6": FIG6_PROTOCOL + [
        ("fallback_share", "max", 0.05),
        ("lp_iterations_per_point", proved_points, 1.10)],
    # Against the dense-era default-protocol snapshot: a different time
    # cap and no node budget, so only proved-point answers and work
    # compare.
    "fig6_cross_era": [
        ("runs", "ref_eq", 0), ("per_solve_limit_s", "report", None),
        ("max_nodes_per_solve", "report", None),
        ("fallback_share", "report", None),
        ("lp_iterations_per_point", proved_points, 1.10)],
    "stream": [
        ("eeg_allocs_per_event", "eq", 0),
        ("speech_allocs_per_event", "eq", 0),
        ("isa", "same_host", None)] + [
        (f"{k}_speedup", "ref_min", 0.85) for k in (
            "eeg", "speech", "fir32", "fir4", "wavelet", "fft256", "mel",
            "dct")] + [
        ("eeg_simd_samples_per_sec", "report", None),
        ("speech_simd_samples_per_sec", "report", None)],
    "serve": [
        ("hit_speedup", "min", 5.0), ("warm_basis_rejected", "eq", 0),
        ("allocs_per_hit", "ref_max", 1.15), ("hit_rate", "ref_min", 0.85),
        ("requests_per_sec", "report", None), ("p99_us", "report", None)],
    "faults": [
        ("adaptive_gain", "min", 0.15), ("replay_identical", "eq", 1),
        ("ladder_unresolved", "eq", 0), ("stop_wave_unresolved", "eq", 0),
        ("ladder_unaccounted", "eq", 0), ("crash_share", "min", 0.05),
        ("outages", "min", 1), ("burst_bad_steps", "min", 1),
        ("control_baseline_served", "eq", 0),
        ("fleet_config_hash", "ref_eq", 0), ("fault_config_hash", "ref_eq", 0),
        ("static_mean_goodput", "ref_eq", 1e-6),
        ("adaptive_mean_goodput", "ref_eq", 1e-6),
        ("ladder_p50_ms", "report", None), ("ladder_p99_ms", "report", None)],
}


def value(doc, key):
    try:
        return DERIVED[key](doc) if key in DERIVED else doc[key]
    except (KeyError, TypeError, ZeroDivisionError):
        return None


def passes(kind, nv, rv, arg):
    if kind == "eq":
        return nv == arg
    if kind == "min":
        return nv >= arg
    if kind == "max":
        return nv <= arg
    if kind == "ref_eq":
        if isinstance(rv, (int, float)) and isinstance(nv, (int, float)):
            return abs(nv - rv) <= arg * max(abs(rv), 1e-12)
        return nv == rv
    if kind == "ref_min":
        return nv >= rv * arg
    return nv <= rv * arg  # ref_max


def check(gate, ref, new):
    """Runs one gate; returns the list of failure messages."""
    fails, gated = [], True
    for key, kind, arg in GATES[gate]:
        if callable(kind):
            fails += kind(ref, new, arg)
            continue
        nv, rv = value(new, key), value(ref, key)
        if kind == "same_host":
            gated = nv == rv
            if not gated:
                print(f"note: {key} differs (reference {rv!r}, fresh {nv!r}); "
                      f"reference ratios below only report")
            continue
        line = f"{key}: fresh {nv!r}, reference {rv!r}"
        if kind == "report":
            print(f"report: {line}")
        elif nv is None or (kind.startswith("ref_") and rv is None):
            fails.append(f"{key} missing")
        elif passes(kind, nv, rv, arg):
            print(f"ok: {line} ({kind} {arg})")
        elif kind.startswith("ref_") and not gated:
            print(f"report (other host): {line} ({kind} {arg})")
        else:
            fails.append(f"{line} fails {kind} {arg}")
    return fails


def main():
    if len(sys.argv) != 4 or sys.argv[1] not in GATES:
        sys.exit(f"usage: check_bench.py {{{','.join(GATES)}}} "
                 f"REFERENCE.json FRESH.json")
    with open(sys.argv[2]) as f:
        ref = json.load(f)
    with open(sys.argv[3]) as f:
        new = json.load(f)
    fails = check(sys.argv[1], ref, new)
    for msg in fails:
        print(f"FAIL: {msg}")
    if fails:
        sys.exit(1)
    print(f"OK: {sys.argv[1]} gate passes")


if __name__ == "__main__":
    main()
