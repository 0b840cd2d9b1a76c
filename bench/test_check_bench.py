#!/usr/bin/env python3
"""Tests for check_bench.py: every checked-in reference passes its own
gate, one mutation per gated field fails it, and report-only fields
never fail however far they move.

Run: python3 bench/test_check_bench.py (ctest runs it as check_bench).
"""

import contextlib
import copy
import io
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import check_bench  # noqa: E402

RESULTS = Path(__file__).resolve().parent / "results"

# The snapshot each gate compares against in CI.
REFERENCE = {
    "fig6": "BENCH_fig6_pr16.json",
    "fig6_cross_era": "BENCH_fig6_pr1_default.json",
    "stream": "BENCH_stream_pr6_avx2.json",
    "serve": "BENCH_serve_pr7.json",
    "faults": "BENCH_faults_pr8.json",
}


def setting(**fields):
    return lambda d: d.update(fields)


def scaling(key, factor):
    def edit(d):
        d[key] = d[key] * factor
    return edit


def scale_iterations(factor):
    def edit(d):
        d["lp_iterations_per_point"] = [
            x * factor for x in d["lp_iterations_per_point"]]
    return edit


def set_objective(point, objective):
    def edit(d):
        d["objectives"][point] = objective
    return edit


def shift(key, delta):
    def edit(d):
        d[key] += delta
    return edit


FIG6 = ("fig6", "fig6_cross_era")

# (gates, what, edit of a copy of the reference): each must fail.
MUTATIONS = [
    (FIG6, "moved objective on proved point 0", set_objective(0, 1e9)),
    # Point 9 is proved in every reference; -1 marks proved infeasible.
    (FIG6, "proved point 9 flips to infeasible", set_objective(9, -1)),
    (FIG6, "sweep size", setting(runs=8)),
    (("fig6", "fig6_cross_era"), "iterations +11%", scale_iterations(1.11)),
    (("fig6",), "node budget", setting(max_nodes_per_solve=800)),
    (("fig6",), "time cap", setting(per_solve_limit_s=20)),
    (("fig6",), "phase-1 fallback share 6%",
     setting(total_dual_reentries=94, total_phase1_fallbacks=6)),
    (("stream",), "eeg allocs 1", setting(eeg_allocs_per_event=1)),
    (("stream",), "speech allocs 1", setting(speech_allocs_per_event=1)),
    (("stream",), "fir4 speedup 0.84x", scaling("fir4_speedup", 0.84)),
    (("stream",), "eeg speedup 0.84x", scaling("eeg_speedup", 0.84)),
    (("stream",), "speedup missing", lambda d: d.pop("dct_speedup")),
    (("serve",), "hit_speedup 4.9", setting(hit_speedup=4.9)),
    (("serve",), "warm basis rejected", setting(warm_basis_rejected=1)),
    (("serve",), "allocs_per_hit +20%", setting(allocs_per_hit=6)),
    (("serve",), "hit_rate 0.84x", scaling("hit_rate", 0.84)),
    (("faults",), "adaptive_gain 0.14", setting(adaptive_gain=0.14)),
    (("faults",), "replay_identical 0", setting(replay_identical=0)),
    (("faults",), "ladder_unresolved 1", setting(ladder_unresolved=1)),
    (("faults",), "stop_wave_unresolved 1", setting(stop_wave_unresolved=1)),
    (("faults",), "ladder accounting off by one", shift("ladder_solved", 1)),
    # 2 of 41 nodes is 4.9% of the fleet.
    (("faults",), "crashes under 5%", setting(num_nodes=41)),
    (("faults",), "no outage", setting(outages=0)),
    (("faults",), "burst chain never bad", setting(burst_bad_steps=0)),
    (("faults",), "baseline rung served", setting(control_baseline_served=1)),
    (("faults",), "fleet hash change", setting(fleet_config_hash="1")),
    (("faults",), "fault hash change", setting(fault_config_hash="1")),
    (("faults",), "static goodput +1e-5", shift("static_mean_goodput", 1e-5)),
    (("faults",), "adaptive goodput +1e-5",
     shift("adaptive_mean_goodput", 1e-5)),
]

# Large moves in report-only fields (or ratios measured on another
# host): each must still pass.
REPORT_ONLY = [
    (("fig6_cross_era",), "protocol differs",
     setting(max_nodes_per_solve=400)),
    (("fig6_cross_era",), "phase-1 fallback share 50%",
     setting(total_dual_reentries=5, total_phase1_fallbacks=5)),
    (("stream",), "samples/sec 0.1x",
     scaling("eeg_simd_samples_per_sec", 0.1)),
    (("stream",), "speedup 0.5x on another ISA",
     lambda d: d.update(isa="neon", fir4_speedup=d["fir4_speedup"] / 2)),
    (("serve",), "requests/sec 0.01x", scaling("requests_per_sec", 0.01)),
    (("serve",), "p99 100x", scaling("p99_us", 100)),
    (("faults",), "ladder p99 100x", scaling("ladder_p99_ms", 100)),
]


def load(gate):
    with open(RESULTS / REFERENCE[gate]) as f:
        return json.load(f)


def failures(gate, ref, new):
    with contextlib.redirect_stdout(io.StringIO()):
        return check_bench.check(gate, ref, new)


def cases(table):
    for gates, what, edit in table:
        for gate in gates:
            ref = load(gate)
            new = copy.deepcopy(ref)
            edit(new)
            yield gate, what, ref, new


class CheckBench(unittest.TestCase):
    def test_every_gate_has_a_reference(self):
        self.assertEqual(set(REFERENCE), set(check_bench.GATES))

    def test_reference_passes_against_itself(self):
        for gate in check_bench.GATES:
            with self.subTest(gate=gate):
                ref = load(gate)
                self.assertEqual(failures(gate, ref, copy.deepcopy(ref)), [])

    def test_each_mutation_fails_its_gate(self):
        for gate, what, ref, new in cases(MUTATIONS):
            with self.subTest(gate=gate, mutation=what):
                self.assertNotEqual(failures(gate, ref, new), [])

    def test_report_fields_never_fail(self):
        for gate, what, ref, new in cases(REPORT_ONLY):
            with self.subTest(gate=gate, change=what):
                self.assertEqual(failures(gate, ref, new), [])

    def test_infeasible_flip_names_the_point(self):
        ref = load("fig6")
        new = copy.deepcopy(ref)
        new["objectives"][9] = -1
        fails = failures("fig6", ref, new)
        self.assertEqual(len(fails), 1)
        self.assertIn("proved point 9", fails[0])


if __name__ == "__main__":
    unittest.main()
