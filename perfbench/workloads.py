"""Workload definitions: seeded inputs, the op each input drives, its check.

Inputs come only from ``random.Random(seed)``; the same seed gives the same
inputs.  In-process workloads build a finite deck of inputs at set-up and
cycle through it, so set-up cost does not grow with the run length and
every input runs several times.

``cli_session`` runs fresh interpreters; the other three call the package
API in one process.  Functions are looked up on the package at call time,
so the tracer's wrappers (installed later) see every call.
"""

import random

import checks

# README command-line examples with their literal arguments, plus one heavier
# curve and scan.  (name, subcommand, arguments, output file or None).
CLI_MIX = [
    ("curve_readme", "curve",
     ["--n", "1", "--rho-min", "0.7", "--rho-max", "0.95", "--out", "curve.csv"], "curve.csv"),
    ("design_readme", "design", ["--n", "2000"], None),
    ("scan_readme", "scan",
     ["--n", "2000", "--ell", "2", "--span", "5e-4", "--points", "2001", "--out", "scan.csv"],
     "scan.csv"),
    ("tables_readme", "tables", ["--which", "1"], None),
    ("curve_n3", "curve",
     ["--n", "3", "--rho-min", "0.5", "--rho-max", "0.95", "--samples", "200"], None),
    ("scan_20001", "scan", ["--n", "2000", "--ell", "2", "--points", "20001"], None),
]
# Known defect: the README transfer example overflows in cmath.cos and exits
# 1 with a traceback.  It is run once per cli_session run as a probe whose
# result is reported but not counted as a workload op.
CLI_PROBE = ("transfer_readme", "transfer", ["--z", "1+0.5i", "--alpha", "2um", "--k", "0.01"])

# Percentile reported as op_tail_ms, taken over each input's slower half of
# its repeats.  Chosen on three 10-seed sets at 30 s on a 2-core Xeon: the
# highest percentile whose spread across seeds stayed within the bound, with
# 26-35 samples beyond it for curve_trace and 9-12 for gain_scan.
# cli_session has too few ops (23-30, so 12-15 kept); its p60 has 4-7.
TAIL_PERCENTILE = {"cli_session": 60, "design_sweep": 99, "curve_trace": 80, "gain_scan": 70}

# Inputs per deck.  An in-process run cycles through its deck, op i running
# input i % size, so every input runs several times in one run (5-10 times
# at 30 s: a pass over the deck takes 2-4 s).
DECK_SIZE = {"design_sweep": 1024, "curve_trace": 32, "gain_scan": 8}
SCAN_POINTS = 20001
SCAN_GEOMETRIES_NM = (1e3, 1e6, 1e7)  # 2 beta / m
REFERENCE_MEDIUM = dict(omega0=5.0, omega_p_sq=-0.04, delta=1.25)


def cli_order(seed, cycle):
    """Seeded order of the CLI mix for one cycle."""
    order = list(range(len(CLI_MIX)))
    random.Random(f"{seed}/{cycle}").shuffle(order)
    return order


def design_inputs(seed):
    """Random design problems: n log-uniform in [1, 1e6], 2 beta/m
    log-uniform in [1 um, 1 cm], m in {1, 2, 3}, medium around the
    reference one, about 10% of media lossy (omega_p^2 > 0)."""
    rng = random.Random(seed)
    deck = []
    for _ in range(DECK_SIZE["design_sweep"]):
        lossy = rng.random() < 0.1
        wp2 = 0.04 * rng.uniform(0.5, 2.0)
        deck.append({
            "n": max(1, round(10 ** rng.uniform(0.0, 6.0))),
            "two_beta_over_m": 10 ** rng.uniform(3.0, 7.0),
            "m": rng.choice((1, 2, 3)),
            "omega0": 5.0 * rng.uniform(0.9, 1.1),
            "omega_p_sq": wp2 if lossy else -wp2,
            "delta": 1.25 * rng.uniform(0.8, 1.2),
            "lossy": lossy,
        })
    return deck


def curve_inputs(seed):
    """Random branch traces: n in [1, 50], rho window inside (0.3, 0.99)."""
    rng = random.Random(seed)
    deck = []
    for _ in range(DECK_SIZE["curve_trace"]):
        lo = rng.uniform(0.3, 0.94)
        deck.append({"n": rng.randint(1, 50), "rho_min": lo,
                     "rho_max": rng.uniform(lo + 0.05, 0.99), "samples": 200})
    return deck


def scan_inputs(seed):
    """Seeded branch index n in [2000, 10000] and per-op scan spans
    log-uniform in [1e-5, 1e-3]; designs are solved at set-up."""
    rng = random.Random(seed)
    n = rng.randint(2000, 10000)
    spans = [10 ** rng.uniform(-5.0, -3.0) for _ in range(DECK_SIZE["gain_scan"])]
    return n, spans, rng


# -- in-process workloads ---------------------------------------------------

class DesignSweep:
    name = "design_sweep"

    def __init__(self, seed):
        import specsing
        self.api = specsing
        self.deck = design_inputs(seed)
        self.problems = [(specsing.GainMedium(d["omega0"], d["omega_p_sq"], d["delta"]),
                          specsing.WaveguideGeometry(beta=d["two_beta_over_m"] * d["m"] / 2.0,
                                                     m=d["m"]))
                         for d in self.deck]

    def op(self, i):
        medium, geom = self.problems[i % len(self.deck)]
        return self.api.find_singularities(medium, geom, self.deck[i % len(self.deck)]["n"])

    def check(self, i, sols):
        return len(sols), checks.check_designs(sols, self.deck[i % len(self.deck)]["lossy"])


class CurveTrace:
    name = "curve_trace"

    def __init__(self, seed):
        import specsing
        self.api = specsing
        self.deck = curve_inputs(seed)

    def op(self, i):
        d = self.deck[i % len(self.deck)]
        return self.api.trace_curve(self.api.BranchLabel(n=d["n"], eps=-1),
                                    d["rho_min"], d["rho_max"], d["samples"])

    def check(self, i, points):
        d = self.deck[i % len(self.deck)]
        return len(points), checks.check_curve_points(points, d["rho_min"], d["rho_max"])


class GainScan:
    """Every ell of the reference-medium designs at each 2 beta/m, except the
    known-defect class (ell = 1 at 2 beta/m >= 1 mm: transfer_matrix
    overflows as the scan nears cutoff), which ``probe`` runs instead."""

    name = "gain_scan"

    def __init__(self, seed):
        import numpy as np
        import specsing
        self.np, self.api = np, specsing
        n, self.spans, rng = scan_inputs(seed)
        medium = specsing.GainMedium(**REFERENCE_MEDIUM)
        self.designs, self.defect_designs, self.setup_checks = [], [], []
        for two_beta in SCAN_GEOMETRIES_NM:
            geom = specsing.WaveguideGeometry(beta=two_beta / 2.0, m=1)
            sols = specsing.find_singularities(medium, geom, n)
            self.setup_checks.append(checks.check_designs(sols, lossy=False))
            for sol in sols:
                target = self.defect_designs if (sol.ell == 1 and two_beta >= 1e6) else self.designs
                target.append((medium, geom, sol))
        self.order = []
        while len(self.order) < len(self.spans):
            self.order += rng.sample(range(len(self.designs)), len(self.designs))

    def op(self, i):
        medium, geom, sol = self.designs[self.order[i % len(self.spans)]]
        span = self.spans[i % len(self.spans)]
        ratios = self.np.linspace(1.0 - span, 1.0 + span, SCAN_POINTS)
        return self.api.gain_scan(sol, medium, geom, ratios)

    def check(self, i, scan):
        return len(scan), checks.check_scan(scan, SCAN_POINTS)

    def probe(self):
        """Scan each known-defect design over 90% of its distance to cutoff;
        return the number that still fail."""
        failing = 0
        for medium, geom, sol in self.defect_designs:
            span = 0.9 * (sol.omega / geom.omega_cutoff - 1.0)
            try:
                scan = self.api.gain_scan(sol, medium, geom,
                                           self.np.linspace(1.0 - span, 1.0 + span, 201))
            except ArithmeticError:
                failing += 1
                continue
            failing += bool(checks.check_scan(scan, 201))
        return failing


IN_PROCESS = {w.name: w for w in (DesignSweep, CurveTrace, GainScan)}
WORKLOADS = ("cli_session",) + tuple(IN_PROCESS)
