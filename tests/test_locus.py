import functools
import math
import random

import numpy as np
import pytest

from specsing import kernels
from specsing.barrier import BarrierSpec, m22_residual
from specsing.locus import (
    BranchLabel,
    G_of,
    _grid_roots,
    brentq,
    q_of,
    r_of,
    solve_sigma,
    trace_curve,
)

B1 = BranchLabel(n=1, eps=-1)
B2 = BranchLabel(n=2, eps=-1)
B3 = BranchLabel(n=3, eps=-1)


class TestBranchLabel:
    def test_n_zero_forces_plus(self):
        BranchLabel(n=0, eps=1)
        with pytest.raises(ValueError):
            BranchLabel(n=0, eps=-1)

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            BranchLabel(n=1, eps=0)

    def test_negative_n(self):
        with pytest.raises(ValueError):
            BranchLabel(n=-1, eps=1)


class TestClosedForms:
    def test_q_frozen(self):
        # rho=0, y=0.75, alpha_k=2 -> exactly sqrt(2)
        assert q_of(0.0, 0.75, 2.0) == pytest.approx(math.sqrt(2), rel=1e-14)

    def test_q_odd_in_y(self):
        assert q_of(0.3, -1.2, 1.5) == -q_of(0.3, 1.2, 1.5)

    def test_r_frozen(self):
        assert r_of(0.0, 0.75, 2.0) == pytest.approx(3 * math.sqrt(2), rel=1e-14)

    def test_R_frozen(self):
        # rho=0.5, y=0: arccos argument is exactly 1
        assert kernels.phase(1, -1, 0.5, 0.0) == pytest.approx(math.pi, rel=1e-14)
        assert kernels.phase(0, 1, 0.5, 0.0) == 0.0
        assert G_of(BranchLabel(n=0, eps=1), 0.5, 0.0) == 0.0

    def test_G_frozen(self):
        assert G_of(B1, 0.5, 0.0) == pytest.approx(math.pi / math.sqrt(2), rel=1e-14)

    def test_small_y_stability(self):
        # the naive sqrt(y^2+1)-1 forms lose ~8 digits here, and arccos a
        # with a = 1 - O(y^2) loses half of them; at rho = 0.5,
        # G = pi/sqrt(2) - |y| + O(y^2) (a 50-digit evaluation agrees)
        for y in (1e-9, 2e-9):
            assert G_of(B1, 0.5, y) == pytest.approx(math.pi / math.sqrt(2) - y, rel=1e-14)
            assert G_of(B1, 0.5, -y) == G_of(B1, 0.5, y)


class TestLocusFunction:
    def test_bracketing_sign_change(self):
        # frozen signs on the n=2, rho=0.3 slice
        assert kernels.f_scalar(2, -1, 0.3, 0.5) == pytest.approx(5.758011, rel=1e-5)
        assert kernels.f_scalar(2, -1, 0.3, 1.0) == pytest.approx(-3.106192, rel=1e-5)

    def test_matches_backend_grid(self):
        ys = np.geomspace(1e-3, 1e3, 200)
        grid = kernels.f_grid(2, -1, 0.3, ys)
        scalars = np.array([kernels.f_scalar(2, -1, 0.3, y) for y in ys])
        np.testing.assert_allclose(grid, scalars, rtol=1e-13, atol=1e-300)


class TestSolveSigma:
    def test_rho_07_single_point(self):
        pts = solve_sigma(B1, 0.7)
        assert len(pts) == 1
        p = pts[0]
        assert p.sigma == pytest.approx(0.6168308757, rel=1e-8)
        assert p.alpha_k == pytest.approx(1.3631373392, rel=1e-8)
        assert p.residual < 1e-9

    def test_rho_06_below_asymptote_is_empty(self):
        assert solve_sigma(B1, 0.6) == []

    def test_n2_rho_03_frozen(self):
        pts = solve_sigma(B2, 0.3)
        assert len(pts) == 1
        assert pts[0].sigma == pytest.approx(0.5754487228, rel=1e-8)
        assert pts[0].alpha_k == pytest.approx(2.7101982625, rel=1e-8)

    def test_points_realize_singularity(self):
        for p in solve_sigma(B2, 0.3) + solve_sigma(B3, 0.3):
            spec = BarrierSpec(alpha=p.alpha_k, z=complex(p.rho, p.sigma))
            assert m22_residual(spec, 1.0) < 1e-9

    def test_sigma_decreases_with_n(self):
        s2 = solve_sigma(B2, 0.3)[0].sigma
        s3 = solve_sigma(B3, 0.3)[0].sigma
        s4 = solve_sigma(BranchLabel(n=4, eps=-1), 0.3)[0].sigma
        assert s2 > s3 > s4 > 0

    def test_plus_branch_yields_nothing(self):
        for rho in (0.3, 0.7, 0.9):
            assert solve_sigma(BranchLabel(n=1, eps=1), rho) == []
            assert solve_sigma(BranchLabel(n=0, eps=1), rho) == []

    def test_mirror_sigma_negative_fails_certification(self):
        # sigma < 0 (gain flipped to loss) must not certify
        p = solve_sigma(B1, 0.7)[0]
        spec = BarrierSpec(alpha=p.alpha_k, z=complex(p.rho, -p.sigma))
        assert m22_residual(spec, 1.0) > 1e-3

    def test_rho_at_least_one_rejected(self):
        with pytest.raises(ValueError):
            solve_sigma(B1, 1.0)


class TestTraceCurve:
    def test_ordering_and_residuals(self):
        pts = trace_curve(B1, 0.7, 0.95, 12)
        assert pts
        rhos = [p.rho for p in pts]
        assert rhos == sorted(rhos, reverse=True)
        assert all(p.residual < 1e-9 for p in pts)

    def test_empty_slices_skipped(self):
        # n=1 has no points below the asymptote near rho = 2/3
        pts = trace_curve(B1, 0.2, 0.5, 6)
        assert pts == []

    def test_bad_range(self):
        with pytest.raises(ValueError):
            trace_curve(B1, 0.9, 0.7, 5)
        with pytest.raises(ValueError):
            trace_curve(B1, 0.5, 1.0, 5)
        for rho_min, rho_max in ((-math.inf, 0.5), (math.nan, 0.5), (0.5, math.nan)):
            with pytest.raises(ValueError):
                trace_curve(B1, rho_min, rho_max, 5)


class TestTrigConsistency:
    @pytest.mark.parametrize("branch,rho", [(B1, 0.7), (B2, 0.3), (B3, 0.5)])
    def test_cos_sin_products_at_solutions(self, branch, rho):
        # cos(r) cosh(q) = +-(1 - (|1-rho| s)^2)/den and
        # sin(r) sinh(q) = -+ 2(1-rho) y/den with one consistent sign
        p = solve_sigma(branch, rho)[0]
        s = math.sqrt(p.y**2 + 1)
        den = (1 - rho) ** 2 * p.y**2 + rho**2
        q = q_of(rho, p.y, p.alpha_k)
        r = r_of(rho, p.y, p.alpha_k)
        ar_s = abs(1 - rho) * s
        num_a = rho * s - p.y**2 / (s + 1)  # stable 1 - (1-rho) s form piece
        lhs1 = math.cos(r) * math.cosh(q)
        lhs2 = math.sin(r) * math.sinh(q)
        rhs1 = num_a * (1 + ar_s) / den
        rhs2 = 2 * (1 - rho) * p.y / den
        ok_plus = abs(lhs1 - rhs1) < 1e-9 and abs(lhs2 + rhs2) < 1e-9
        ok_minus = abs(lhs1 + rhs1) < 1e-9 and abs(lhs2 - rhs2) < 1e-9
        assert ok_plus or ok_minus


def _textbook_f(mp, n, eps, rho, y):
    """F from its textbook forms at mpmath precision, with the scale
    |term1| + sinh(x)^2/2 it cancels from and x itself."""
    rho, y = mp.mpf(rho), mp.mpf(y)
    s = mp.sqrt(y * y + 1)
    ar = abs(1 - rho)
    den = (1 - rho) ** 2 * y * y + rho * rho
    term1 = (ar * s + 1 - rho) / den
    a = min(mp.mpf(1), max(mp.mpf(-1), (1 - ar * s) / mp.sqrt(den)))
    x = (mp.pi * n + eps * mp.acos(a)) * mp.sqrt((s - 1) / (s + 1))
    half_sh2 = mp.sinh(x) ** 2 / 2
    return term1 - half_sh2, abs(term1) + half_sh2, x


def _assert_close_to_scale(got, want, rho, y, rtol):
    """|got - want| <= rtol (|term1| + sinh(x)^2/2): F cancels near its roots,
    so its own size is no scale.  term1 >= 0, so the scale is 2 term1 - F."""
    s = np.sqrt(y * y + 1.0)
    term1 = (np.abs(1.0 - rho) * s + 1.0 - rho) / ((1.0 - rho) ** 2 * y * y + rho * rho)
    want = np.asarray(want)
    assert np.all(np.abs(got - want) <= rtol * (2.0 * term1 - want))


class TestKernels:
    # numpy's arccos and sinh may differ from libm's by an ulp or so, and F
    # cancels near its roots, so f_grid and f_scalar are compared relative to
    # the scale F cancels from
    RHOS = (-2.5, 0.01, 0.4, 0.999, 1.0, 1.001, 1.7, 40.0)

    def test_grid_matches_scalar_one_rho(self):
        ys = np.geomspace(1e-6, 1e6, 301)
        for n in (1, 2, 5, 1000):
            for eps in (1, -1):
                for rho in self.RHOS:
                    grid = kernels.f_grid(n, eps, rho, ys)
                    scalars = [kernels.f_scalar(n, eps, rho, y) for y in ys]
                    _assert_close_to_scale(grid, scalars, rho, ys, 1e-13)

    def test_grid_matches_scalar_array_rho(self):
        # rho down a column, y along a row: f_grid broadcasts them
        rho = np.array(self.RHOS)[:, None]
        ys = np.geomspace(1e-6, 1e6, 301)[None, :]
        for n, eps in ((1, -1), (3, 1), (1000, -1)):
            grid = kernels.f_grid(n, eps, rho, ys)
            assert grid.shape == (rho.size, ys.size)
            scalars = [[kernels.f_scalar(n, eps, r, y) for y in ys[0]] for r in rho[:, 0]]
            _assert_close_to_scale(grid, scalars, rho, ys, 1e-13)
            # one rho at a time gives the same doubles as the array of them
            for i, r in enumerate(rho[:, 0]):
                assert np.array_equal(kernels.f_grid(n, eps, r, ys[0]), grid[i])

    def test_overflow_sentinel(self):
        # x = |y| R / (s + 1) > 350 reads -1e300 on every path
        ys = np.array([10.0, 100.0])
        assert list(kernels.f_grid(1000, -1, 0.4, ys)) == [-1e300, -1e300]
        assert list(kernels.f_grid(1000, -1, np.array([0.4, 1.7]), ys)) == [-1e300, -1e300]
        assert kernels.f_scalar(1000, -1, 0.4, 10.0) == -1e300
        assert kernels.f_scalar(1000, -1, 1.7, 100.0) == -1e300

    def test_grid_matches_high_precision_textbook_f(self):
        mpmath = pytest.importorskip("mpmath")
        ys = np.geomspace(1e-6, 1e6, 49)
        # (n, eps, rho, ys): the grid, plus points on branch eps = -1 at large
        # |y|, where 1 + a ~ 1/|y| and a plain arccos a loses digits
        cases = [(n, eps, rho, ys) for n in (1, 7, 50) for eps in (1, -1)
                 for rho in self.RHOS]
        cases += [(1, -1, 40.0, np.array([2.5e5])), (1, -1, -2.5, np.array([7.9e5]))]
        with mpmath.workdps(50):
            for n, eps, rho, ys in cases:
                grid = kernels.f_grid(n, eps, rho, ys)
                for y, got in zip(ys, grid):
                    want, scale, x = _textbook_f(mpmath.mp, n, eps, rho, y)
                    if x > 350:
                        # the sentinel never overstates F
                        assert got == -1e300 and want < -1e300
                        continue
                    err = abs(mpmath.mpf(got) - want)
                    assert err <= 1e-12 * scale, (n, eps, rho, y)
                    assert abs(kernels.f_scalar(n, eps, rho, y) - want) <= 1e-12 * scale

class TestRootPipeline:
    @staticmethod
    def _run(solver, f, a, b):
        """(root or exception name, number of f evaluations)."""
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)
        try:
            return solver(counted, a, b), len(calls)
        except (ValueError, RuntimeError) as exc:
            return type(exc).__name__, len(calls)

    def test_brentq_follows_scipy_step_for_step(self):
        # same root to the bit and the same number of evaluations, on
        # seeded brackets of F and on functions that force bisection,
        # extrapolation and non-convergence
        scipy_optimize = pytest.importorskip("scipy.optimize")

        def reference(f, a, b):
            return scipy_optimize.brentq(f, a, b, xtol=1e-300, rtol=1e-14)
        rng = random.Random(0)
        ys = np.geomspace(1e-6, 1e6, 4801)
        cases = []
        for _ in range(40):
            n, rho = rng.randint(1, 50), rng.uniform(-1.0, 0.99)
            fv = kernels.f_grid(n, -1, rho, ys)
            sgn = np.sign(fv)
            for i in np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]:
                f = functools.partial(kernels.f_scalar, n, -1, rho)
                cases.append((f, ys[i], ys[i + 1]))
        assert len(cases) >= 20
        cases += [
            (lambda x: x * x - 0.01, 0.0, 1.0),
            (lambda x: x ** 20 - 0.5, 0.0, 1.5),
            (lambda x: math.sqrt(x) - 0.1, 0.0, 1.0),
            (lambda x: x ** 3 - 2 * x - 5, 2.0, 3.0),
            (lambda x: math.tanh(40.0 * (x - 0.31)), 0.0, 1.0),
            (lambda x: -1.0 if x < 0.3 else 1.0, 0.0, 1.0),
            (lambda x: (x - 1.0 / 3.0) ** 3, 0.0, 1.0),  # triple root: no convergence
        ]
        for f, a, b in cases:
            assert self._run(brentq, f, a, b) == self._run(reference, f, a, b)

    def test_brentq_raises_without_sign_change(self):
        with pytest.raises(ValueError):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_brentq_raises_on_nan(self):
        with pytest.raises(ValueError):
            brentq(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0)

    def test_brentq_raises_when_not_converged(self):
        # a jump at 1e-200 inside [-1e300, 4e300] needs ~2000 halvings to
        # reach xtol = 1e-300; brentq stops after 100 iterations
        with pytest.raises(RuntimeError):
            brentq(lambda x: -1.0 if x < 1e-200 else 1.0, -1e300, 4e300)

    def test_root_on_a_grid_point_is_kept(self):
        # F = 0 exactly at x = 0.5: no sign change brackets it
        def f(x):
            return (x - 0.5) * (x - 0.8)
        xs = np.linspace(0.0, 1.0, 5)
        fv = f(xs)
        assert fv[2] == 0.0
        assert _grid_roots(brentq, f, xs, fv, 1e-9) == [0.5, pytest.approx(0.8, rel=1e-14)]

    def test_duplicate_roots_merged(self):
        # two sign changes that polish to roots within rel_tol are one root
        xs = np.array([0.0, 1.0, 1.0 + 1e-12, 2.0])
        fv = np.array([-1.0, 1.0, -1.0, 1.0])
        roots = _grid_roots(lambda f, lo, hi: 1.0, None, xs, fv, 1e-9)
        assert roots == [1.0]

    def test_image_maps_roots_before_dedupe(self):
        xs = np.linspace(-1.0, 1.0, 5)
        roots = _grid_roots(brentq, lambda x: x - 0.25, xs, xs - 0.25, 1e-9,
                            lambda x: 2.0 + math.exp(x))
        assert roots == [pytest.approx(2.0 + math.exp(0.25), rel=1e-14)]
