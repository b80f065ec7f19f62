"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

The verdict lines are printed with capture suspended so they survive
pytest's capture; run `pytest -v` and grep for CRITERION.
"""

import math

import numpy as np
import pytest

from specsing.barrier import (
    BarrierSpec,
    amplitudes,
    m22_residual,
    transfer_matrix,
)
from specsing.cli import compute_table
from specsing.locus import BranchLabel, solve_sigma, trace_curve
from specsing.waveguide import (
    GainMedium,
    WaveguideGeometry,
    find_singularities,
    gain_scan,
)

from oracles import oracle_transfer_matrix, q_of, r_of

MEDIUM = GainMedium(omega0=5.0, omega_p_sq=-0.04, delta=1.25)
GEOM_1CM = WaveguideGeometry(beta=5e6, m=1)


@pytest.fixture
def verdict(capsys):
    def _verdict(num, desc, ok, detail=""):
        tail = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} - "
                  f"{desc}{tail}", flush=True)
        assert ok, f"criterion {num}: {desc}{tail}"
    return _verdict


def test_criterion_1_table1_reproduction(verdict):
    rows = compute_table(1)
    worst = max(dev for _, dev in rows)
    verdict(1, "reference table 1 (9 rows) reproduced to rel 1e-4",
             len(rows) == 9 and worst < 1e-4, f"worst dev {worst:.2e}")


def test_criterion_2_table2_reproduction(verdict):
    rows = compute_table(2)
    worst = max(dev for _, dev in rows)
    verdict(2, "reference table 2 (8 rows) reproduced to rel 1e-4",
             len(rows) == 8 and worst < 1e-4, f"worst dev {worst:.2e}")


def test_criterion_3_resonance_amplification(verdict):
    sol = find_singularities(MEDIUM, GEOM_1CM, 10000)[1]  # ell = 2 design
    near = dict(gain_scan(sol, MEDIUM, GEOM_1CM,
                          [1 - 2e-4, 1 - 1e-4, 1.0, 1 + 1e-4, 1 + 2e-4]))
    center = near[1.0]
    wide = gain_scan(sol, MEDIUM, GEOM_1CM, np.linspace(0.9, 1.1, 2001))
    floor = min(lg for _, lg in wide)
    ok = (center >= 15
          and all(near[r] < center for r in near if r != 1.0)
          and floor > 0)
    verdict(3, "design resonance: >= 15 decades at omega_s, single sharp peak",
             ok, f"center {center:.2f}, 0.9-1.1 floor {floor:.2f}")


def test_criterion_4_closed_form_vs_matching_oracle(verdict):
    rng = np.random.default_rng(20260824)
    worst_entry, worst_det, tried = 0.0, 0.0, 0
    while tried < 1000:
        z = complex(rng.uniform(-4, 4), rng.uniform(-2, 2))
        k = rng.uniform(0.5, 2.0)
        w = np.sqrt(complex(1 - z / k**2))
        if abs(w) < 1e-3:
            continue  # removable interior degeneracy
        # keep the matrix condition moderate: alpha*k*|Im w| <~ 1.5
        cap = 1.5 / max(abs(w.imag), 0.5)
        alpha = rng.uniform(0.05, cap) / k
        tried += 1
        spec = BarrierSpec(alpha=alpha, z=z)
        m = transfer_matrix(spec, k)
        o = oracle_transfer_matrix(spec, k)
        for name in ("m11", "m12", "m21", "m22"):
            a, b = getattr(m, name), getattr(o, name)
            worst_entry = max(worst_entry, abs(a - b) / max(1.0, abs(b)))
        worst_det = max(worst_det, abs(m.det - 1))
    ok = worst_entry < 1e-10 and worst_det < 1e-12
    verdict(4, "1000 random barriers: closed form matches matching oracle",
             ok, f"entry dev {worst_entry:.1e}, det dev {worst_det:.1e}")


def test_criterion_5_real_barrier_unitarity(verdict):
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(500):
        z = rng.uniform(-5, 5)
        k = rng.uniform(0.5, 2.0)
        alpha = rng.uniform(0.05, 3.0) / k
        amp = amplitudes(transfer_matrix(BarrierSpec(alpha=alpha, z=z), k))
        worst = max(worst, abs(abs(amp.t) ** 2 + abs(amp.r_left) ** 2 - 1))
    verdict(5, "500 real barriers: |T|^2 + |R|^2 = 1 to 1e-12",
             worst < 1e-12, f"worst dev {worst:.1e}")


def test_criterion_6_certified_branch_curves(verdict):
    worst_res, worst_trig, n_pts = 0.0, 0.0, 0
    mirror_ok = True
    ranges = {1: (0.70, 0.95), 2: (0.05, 0.95), 3: (0.05, 0.95)}
    for n, (lo, hi) in ranges.items():
        pts = trace_curve(BranchLabel(n=n, eps=-1), lo, hi, 10)
        assert pts
        for p in pts:
            n_pts += 1
            worst_res = max(worst_res, p.residual)
            # trig product identities satisfied at every certified point
            s = math.sqrt(p.y**2 + 1)
            den = (1 - p.rho) ** 2 * p.y**2 + p.rho**2
            q = q_of(p.rho, p.y, p.alpha_k)
            r = r_of(p.rho, p.y, p.alpha_k)
            num_a = p.rho * s - p.y**2 / (s + 1)
            rhs1 = num_a * (1 + abs(1 - p.rho) * s) / den
            rhs2 = 2 * (1 - p.rho) * p.y / den
            d_plus = max(abs(math.cos(r) * math.cosh(q) - rhs1),
                         abs(math.sin(r) * math.sinh(q) + rhs2))
            d_minus = max(abs(math.cos(r) * math.cosh(q) + rhs1),
                          abs(math.sin(r) * math.sinh(q) - rhs2))
            worst_trig = max(worst_trig, min(d_plus, d_minus))
            # sigma -> -sigma (loss) must not be a singularity
            mspec = BarrierSpec(alpha=p.alpha_k, z=complex(p.rho, -p.sigma))
            mirror_ok = mirror_ok and m22_residual(mspec, 1.0) > 1e-3
    ok = worst_res < 1e-9 and worst_trig < 1e-9 and mirror_ok
    verdict(6, "branch curves n=1,2,3 certified; identities hold; mirrors fail",
             ok, f"{n_pts} pts, res {worst_res:.1e}, trig {worst_trig:.1e}")


def test_criterion_7_first_branch_asymptote(verdict):
    b1 = BranchLabel(n=1, eps=-1)
    lo, hi = 0.6, 0.7  # no solutions at 0.6, one at 0.7 (unit-tested)
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        if solve_sigma(b1, mid):
            hi = mid
        else:
            lo = mid
    verdict(7, "n=1 branch exists only above rho ~ 2/3",
             0.666 <= hi <= 0.668, f"infimum {hi:.6f}")


def test_criterion_8_no_false_singularities(verdict):
    lossy = GainMedium(omega0=5.0, omega_p_sq=0.04, delta=1.25)
    lossy_empty = find_singularities(lossy, GEOM_1CM, 10000) == []
    rng = np.random.default_rng(8)
    floor = math.inf
    for _ in range(400):
        z = rng.uniform(-6, 6)
        k = rng.uniform(0.3, 3.0)
        alpha = rng.uniform(0.05, 8.0) / k
        floor = min(floor, m22_residual(BarrierSpec(alpha=alpha, z=z), k))
    ok = lossy_empty and floor > 1e-3
    verdict(8, "lossy medium and real barriers produce no singularities",
             ok, f"real-z residual floor {floor:.1e}")


def test_criterion_9_macroscopic_geometry_insensitivity(verdict):
    geom_1mm = WaveguideGeometry(beta=5e5, m=1)
    a = find_singularities(MEDIUM, GEOM_1CM, 10000)[1]
    b = [s for s in find_singularities(MEDIUM, geom_1mm, 10000) if s.ell == 2][0]
    dev = max(abs(a.omega - b.omega) / a.omega, abs(a.alpha - b.alpha) / a.alpha)
    verdict(9, "ell=2 design invariant under 1mm vs 1cm guide height to 1e-5",
             dev < 1e-5, f"rel dev {dev:.1e}")
