import collections
import functools
import math
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from specsing import kernels, locus
from specsing.barrier import m22_residual
from specsing.locus import (
    _BLOCK,
    _CELL,
    _CELLS,
    _DECADES,
    _PER_DECADE,
    _RHO_MIN,
    _Y_GRID,
    BranchLabel,
    NoSignChange,
    _certify,
    _excluded,
    _grid_roots,
    _windows,
    brentq,
    solve_sigma,
    trace_curve,
)

from oracles import f_grid_both_sides, q_of, r_of, textbook_f, textbook_l

B1 = BranchLabel(n=1)
B2 = BranchLabel(n=2)
B3 = BranchLabel(n=3)


class TestBranchLabel:
    def test_only_branches_minus_from_n_1(self):
        # lemma 1 of the kernels docstring: every singularity lies on a
        # branch (n, -) with n >= 1, the only branches a label names; eps
        # defaults to that sign, and naming it gives the same label
        for kwargs in ({"n": 1, "eps": 1}, {"n": 1, "eps": 2}, {"n": 0}, {"n": 0, "eps": 1}):
            with pytest.raises(ValueError):
                BranchLabel(**kwargs)
        assert BranchLabel(n=1).eps == -1 and BranchLabel(n=1) == BranchLabel(n=1, eps=-1)

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            BranchLabel(n=1, eps=0)

    def test_negative_n(self):
        with pytest.raises(ValueError):
            BranchLabel(n=-1)

    def test_n_too_large_for_a_double(self):
        # float(10**309) overflows: such an n is named before L is evaluated
        largest = int(sys.float_info.max)
        for n in (10**309, largest + 1):
            with pytest.raises(ValueError, match="branch index n does not fit in a double"):
                BranchLabel(n=n)
        BranchLabel(n=largest)

    def test_non_integer_n(self):
        # no branch lies between two integers; NaN and the infinities are none
        for n in (2000.5, 2000.25, 1999.5, 0.5, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="branch index must be an integer"):
                BranchLabel(n=n)
        assert BranchLabel(n=2000.0) == BranchLabel(n=2000)
        assert BranchLabel(n=np.int64(3)) == B3


class TestClosedForms:
    def test_q_frozen(self):
        # rho=0, y=0.75, alpha_k=2 -> exactly sqrt(2)
        assert q_of(0.0, 0.75, 2.0) == pytest.approx(math.sqrt(2), rel=1e-14)

    def test_q_odd_in_y(self):
        assert q_of(0.3, -1.2, 1.5) == -q_of(0.3, 1.2, 1.5)

    def test_r_frozen(self):
        assert r_of(0.0, 0.75, 2.0) == pytest.approx(3 * math.sqrt(2), rel=1e-14)

    def test_R_frozen(self):
        # rho=0.5, y=0: arccos argument is exactly 1, so R = pi at n = 1, and
        # sqrt(2|1-rho|(s+1)) = sqrt(2)
        assert kernels.alpha_k(1, 0.5, 0.0) * math.sqrt(2) == pytest.approx(math.pi, rel=1e-14)

    def test_G_frozen(self):
        assert kernels.alpha_k(1, 0.5, 0.0) == pytest.approx(math.pi / math.sqrt(2), rel=1e-14)

    def test_small_y_stability(self):
        # the naive sqrt(y^2+1)-1 forms lose ~8 digits here, and arccos a
        # with a = 1 - O(y^2) loses half of them; at rho = 0.5,
        # G = pi/sqrt(2) - |y| + O(y^2) (a 50-digit evaluation agrees)
        for y in (1e-9, 2e-9):
            assert kernels.alpha_k(1, 0.5, y) == pytest.approx(math.pi / math.sqrt(2) - y,
                                                                   rel=1e-14)
            assert kernels.alpha_k(1, 0.5, -y) == kernels.alpha_k(1, 0.5, y)


class TestLocusFunction:
    def test_bracketing_sign_change(self):
        # frozen signs on the n=2, rho=0.3 slice: L = X* - x, where F =
        # term1 - sinh(x)^2/2 read 5.758011 and -3.106192
        assert kernels.f_scalar(2, 0.3, 0.5) == pytest.approx(0.8001207, rel=1e-6)
        assert kernels.f_scalar(2, 0.3, 1.0) == pytest.approx(-0.3425915, rel=1e-6)

    def test_matches_backend_grid(self):
        ys = np.geomspace(1e-3, 1e3, 200)
        grid = kernels.f_grid(2, 0.3, ys)
        scalars = np.array([kernels.f_scalar(2, 0.3, y) for y in ys])
        np.testing.assert_allclose(grid, scalars, rtol=1e-13, atol=1e-300)


class TestSolveSigma:
    def test_rho_07_single_point(self):
        pts = solve_sigma(B1, 0.7)
        assert len(pts) == 1
        p = pts[0]
        assert p.sigma == pytest.approx(0.6168308757, rel=1e-8)
        assert p.alpha_k == pytest.approx(1.3631373392, rel=1e-8)
        assert p.residual < 1e-9

    def test_noise_bracket_is_not_an_error(self):
        # in the n = 1 noise tail f_grid and f_scalar can differ in sign at a
        # bracket end; that bracket holds no root of L and is dropped
        pts = solve_sigma(B1, 0.66666666667)
        assert all(p.residual < 1e-9 and p.sigma > 0 for p in pts)

    def test_rho_06_below_asymptote_is_empty(self):
        assert solve_sigma(B1, 0.6) == []

    def test_n2_rho_03_frozen(self):
        pts = solve_sigma(B2, 0.3)
        assert len(pts) == 1
        assert pts[0].sigma == pytest.approx(0.5754487228, rel=1e-8)
        assert pts[0].alpha_k == pytest.approx(2.7101982625, rel=1e-8)

    def test_points_realize_singularity(self):
        for p in solve_sigma(B2, 0.3) + solve_sigma(B3, 0.3):
            assert m22_residual(p.alpha_k, complex(p.rho, p.sigma)) < 1e-9

    def test_sigma_decreases_with_n(self):
        s2 = solve_sigma(B2, 0.3)[0].sigma
        s3 = solve_sigma(B3, 0.3)[0].sigma
        s4 = solve_sigma(BranchLabel(n=4), 0.3)[0].sigma
        assert s2 > s3 > s4 > 0

    def test_mirror_sigma_negative_fails_certification(self):
        # sigma < 0 (gain flipped to loss) must not certify
        p = solve_sigma(B1, 0.7)[0]
        assert m22_residual(p.alpha_k, complex(p.rho, -p.sigma)) > 1e-3

    def test_rho_at_least_one_rejected(self):
        with pytest.raises(ValueError):
            solve_sigma(B1, 1.0)

    def test_lowest_rho_completes_without_warning(self):
        # den = (1-rho)^2 y^2 + rho^2 stays finite up to the grid's top end,
        # y = 1e6 (pytest turns numpy's overflow RuntimeWarning into an error);
        # one step further down is rejected by name
        assert solve_sigma(B1, math.nextafter(_RHO_MIN, 0.0)) == []
        with pytest.raises(ValueError, match="rho must be in"):
            solve_sigma(B1, _RHO_MIN)

    @pytest.mark.parametrize("n,rho", [(2, 1 - 1e-12), (3, 1 - 1e-12), (700000, 0.8)])
    def test_root_below_the_grid(self, n, rho):
        # the root sits near y = (2/(pi n)) asinh(2 sqrt(1-rho)/rho), below
        # the grid's 1e-6: the open cell [0, 1e-6] puts decades below it
        pts = solve_sigma(BranchLabel(n=n), rho)
        assert len(pts) == 1
        want = 2.0 / (math.pi * n) * math.asinh(2.0 * math.sqrt(1.0 - rho) / rho)
        assert pts[0].y < 1e-6 and pts[0].y == pytest.approx(want, rel=1e-3)
        assert pts[0].residual < 1e-9


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

    def test_rho_min_below_the_kernel_bound_fails_before_solving(self, monkeypatch):
        calls = []
        monkeypatch.setattr(locus, "solve_sigma", lambda *args: calls.append(args) or [])
        with pytest.raises(ValueError, match=r"^need finite rho_min < rho_max < 1.*-1e\+150"):
            trace_curve(B1, -1e150, 0.9, 3)
        assert calls == []

    def test_lowest_slice_is_checked(self, monkeypatch):
        # rho_min a few ulps above _RHO_MIN: the slice 1 - exp(log(1 - rho_min))
        # rounds below the bound for some of them, and then trace_curve rejects
        # rho_min by name before it solves any slice
        solved = []
        monkeypatch.setattr(locus, "solve_sigma", lambda b, rho, **_: solved.append(rho) or [])
        rho_min, outcomes = _RHO_MIN, set()
        for _ in range(256):
            rho_min = math.nextafter(rho_min, 0.0)
            solved.clear()
            try:
                trace_curve(B1, rho_min, 0.9, 2)
            except ValueError as exc:
                assert str(exc).startswith("need finite rho_min < rho_max < 1")
                assert repr(rho_min) in str(exc) and solved == []
                outcomes.add("rejected")
            else:
                assert len(solved) == 2 and min(solved) > _RHO_MIN
                outcomes.add("solved")
        assert outcomes == {"rejected", "solved"}


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


#: ulps of the scale (_scale) within which f_grid and f_scalar give L, and
#: of G within which alpha_k gives it
_ULPS = 4


def _scale(rho, y, l):
    """X* + x at L = l: L cancels near its roots, so its own size is no
    scale.  x = X* - L, so X* + x = 2 X* - L, with X* from term1's textbook
    form."""
    s = np.sqrt(y * y + 1.0)
    term1 = (np.abs(1.0 - rho) * s + 1.0 - rho) / ((1.0 - rho) ** 2 * y * y + rho * rho)
    return 2.0 * np.arcsinh(np.sqrt(2.0 * term1)) - l


def _tolerance(scale):
    """_ULPS ulps of X* + x = scale."""
    return _ULPS * sys.float_info.epsilon * scale


def _assert_close_to_scale(got, want, rho, y):
    """|got - want| <= _tolerance, at X* + x from want."""
    want = np.asarray(want)
    assert np.all(np.abs(got - want) <= _tolerance(_scale(rho, y, want)))


def _phase(n, rho, y):
    """R = pi n - arccos a at one point, as f_scalar and alpha_k form it."""
    return kernels._phase(n, rho, kernels._y_pieces(y)[1])


class TestKernels:
    # numpy's atan2 and asinh may differ from libm's by an ulp or so, and L
    # cancels near its roots, so f_grid and f_scalar are compared relative to
    # the scale L cancels from; every kernel takes rho < 1 and y >= 0
    RHOS = (-2.5, 0.01, 0.4, 0.999)

    def test_grid_matches_scalar_one_rho(self):
        ys = np.geomspace(1e-6, 1e6, 301)
        for n in (1, 2, 5, 1000):
            for rho in self.RHOS:
                grid = kernels.f_grid(n, rho, ys)
                scalars = [kernels.f_scalar(n, rho, y) for y in ys]
                _assert_close_to_scale(grid, scalars, rho, ys)

    def test_grid_matches_scalar_array_rho(self):
        # rho down a column, y along a row: f_grid broadcasts them
        rho = np.array(self.RHOS)[:, None]
        ys = np.geomspace(1e-6, 1e6, 301)[None, :]
        for n in (1, 1000):
            grid = kernels.f_grid(n, rho, ys)
            assert grid.shape == (rho.size, ys.size)
            scalars = [[kernels.f_scalar(n, r, y) for y in ys[0]] for r in rho[:, 0]]
            _assert_close_to_scale(grid, scalars, rho, ys)
            # one rho at a time gives the same doubles as the array of them
            for i, r in enumerate(rho[:, 0]):
                assert np.array_equal(kernels.f_grid(n, r, ys[0]), grid[i])

    def test_no_overflow_where_f_read_the_sentinel(self):
        # x = y R / (s + 1) > 350, where F = term1 - sinh(x)^2/2 overflowed
        # and read -1e300: L = X* - x is the finite negative double of a
        # 50-digit L on every path
        mpmath = pytest.importorskip("mpmath")
        ys = np.array([10.0, 100.0])
        grid = kernels.f_grid(1000, np.array([[0.4], [-2.5]]), ys)
        assert np.array_equal(grid[0], kernels.f_grid(1000, 0.4, ys))
        with mpmath.workdps(50):
            for rho, row in zip((0.4, -2.5), grid):
                for y, got in zip(ys, row):
                    want, scale, x = textbook_l(mpmath.mp, 1000, rho, y)
                    assert x > 350 and textbook_f(mpmath.mp, 1000, -1, rho, y)[0] < -1e300
                    for value in (got, kernels.f_scalar(1000, rho, y)):
                        assert math.isfinite(value) and value < 0.0
                        assert abs(value - want) <= _tolerance(scale)

    def test_y_grid_gives_the_same_doubles(self):
        # one YGrid reused for every call gives what a fresh array gives, so
        # no call leaves its y pieces changed
        ys = np.geomspace(1e-6, 1e6, 301)
        grid = kernels.YGrid(ys)
        column = np.array(self.RHOS)[:, None]
        for n in (1, 2, 5, 1000):
            for rho in self.RHOS:
                assert np.array_equal(kernels.f_grid(n, rho, grid), kernels.f_grid(n, rho, ys))
            assert np.array_equal(kernels.f_grid(n, column, grid), kernels.f_grid(n, column, ys))
        with pytest.raises(ValueError):
            grid.sm[0] = 0.0

    def test_grid_matches_scalar_across_x_350(self):
        # n = 200: x = y R / (s + 1) runs from ~0.3 to ~600 on this grid, and
        # L is finite on both sides of x = 350, where F read -1e300
        n, ys = 200, np.geomspace(1e-3, 1e3, 601)
        column = np.array(self.RHOS)[:, None]
        xs = np.array([[_phase(n, rho, y) for y in ys] for rho in self.RHOS])
        xs *= ys / (np.sqrt(ys * ys + 1.0) + 1.0)
        scalars = np.array([[kernels.f_scalar(n, rho, y) for y in ys] for rho in self.RHOS])
        over = xs > 350.0
        assert over.any(axis=1).all() and not over.all(axis=1).any()
        grids = [kernels.f_grid(n, column, ys)]
        grids.append(np.array([kernels.f_grid(n, rho, ys) for rho in self.RHOS]))
        for grid in grids:
            assert np.isfinite(grid).all() and (grid[over] < 0.0).all()
            _assert_close_to_scale(grid, scalars, column, ys)

    def _deck(self):
        """(n, rho, y) against 50-digit values: a grid for n = 1, 7, 50,
        points at large y, where 1 + a ~ 1/y and a plain arccos a loses
        digits, the point where rho s - (s - 1) lost most (10,278 ulps of X*
        + x), and seeded draws with n log-uniform in 1 ... 1e6, rho uniform
        in (-3, 1) or 1 - rho log-uniform in 1e-15 ... 1e-1, y log-uniform
        in 1e-12 ... 1e6 (so below the grid too), 416 of them with x > 350,
        where F read -1e300."""
        points = [(n, rho, y) for n in (1, 7, 50) for rho in self.RHOS
                  for y in np.geomspace(1e-6, 1e6, 49)]
        points += [(1, 0.4, 2.5e5), (1, -2.5, 7.9e5), (4, 0.9999979992909692, 617257.349567287)]
        rng = random.Random(5)
        for _ in range(1500):
            n = round(10.0 ** rng.uniform(0.0, 6.0))
            near_1 = rng.random() < 0.5
            rho = 1.0 - 10.0 ** rng.uniform(-15.0, -1.0) if near_1 else rng.uniform(-3.0, 1.0)
            points.append((n, rho, 10.0 ** rng.uniform(-12.0, 6.0)))
        return points

    def test_grid_matches_high_precision_textbook_l(self):
        # f_grid and f_scalar are within a few ulps of X* + x of a 50-digit
        # L on the deck, and their sign is F's wherever |F| is above its
        # rounding level: the most F = (sinh(X*)^2 - sinh(x)^2)/2 moves as
        # X* and x move by that tolerance.  The 50-digit L and F have the
        # same sign everywhere.
        mpmath = pytest.importorskip("mpmath")
        points = self._deck()
        over, signed = 0, 0
        for n, rho, y in points:
            got = (kernels.f_grid(n, rho, np.array([y]))[0], kernels.f_scalar(n, rho, y))
            with mpmath.workdps(50):
                want, scale, x = textbook_l(mpmath.mp, n, rho, y)
                f = textbook_f(mpmath.mp, n, -1, rho, y)[0]
                assert (want > 0) == (f > 0), (n, rho, y)
                tol = _tolerance(scale)
                level = tol * mpmath.sinh(2 * max(want + x, x)) / 2
                for value in got:
                    assert abs(value - want) <= tol, (n, rho, y)
                    if abs(f) > level:
                        signed += 1
                        assert (value > 0) == (f > 0), (n, rho, y)
            over += x > 350
        assert over >= 400 and signed >= 2 * len(points) - 100

    def test_alpha_k_matches_high_precision_g(self):
        # alpha_k is within a few ulps of a 50-digit G = (pi n - arccos a)/
        # sqrt(2(1-rho)(s+1)) on the deck: R keeps its digits at large y
        # near rho = 1, where rho s - (s - 1) cancels
        mpmath = pytest.importorskip("mpmath")
        for n, rho, y in self._deck():
            with mpmath.workdps(50):
                want = _textbook_g(mpmath.mp, n, -1, rho, y)
                got = kernels.alpha_k(n, rho, y)
                assert abs(got - want) <= _ULPS * sys.float_info.epsilon * want, (n, rho, y)

    @settings(max_examples=200, deadline=None)
    @given(n=st.floats(0.0, 6.0).map(lambda u: round(10.0 ** u)),
           gap=st.floats(-14.0, 12.0).map(lambda u: 10.0 ** u),
           y=st.floats(-10.0, 10.0).map(lambda u: 10.0 ** u), sign=st.sampled_from((1, -1)))
    def test_l_is_negative_above_rho_1_on_branch_minus(self, n, gap, y, sign):
        # lemma 2 of the kernels docstring: on a branch (n, -), F < 0 and so
        # L = X* - |x| < 0 at every rho > 1 (and y != 0), so the design grid
        # takes that sign there and no kernel needs L's forms above rho = 1
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            f, scale, x = textbook_f(mpmath.mp, n, -1, 1.0 + gap, sign * y)
            assert f < 0, (n, 1.0 + gap, sign * y, f, scale)
            term1 = f + mpmath.sinh(x) ** 2 / 2
            assert mpmath.asinh(mpmath.sqrt(2 * term1)) < abs(x)


def _upper_w(mp, rho, sigma):
    """w = sqrt(1 - rho - i sigma) at mpmath precision, on the upper-half-plane branch."""
    w = mp.sqrt(1 - mp.mpc(rho, sigma))
    return -w if w.imag < 0 else w


def _arccos_a(mp, rho, y):
    """(arccos a, s) at mpmath precision, a = (1 - (1-rho) s)/sqrt(den)."""
    s = mp.sqrt(y * y + 1)
    return mp.acos((1 - (1 - rho) * s) / mp.sqrt((1 - rho) ** 2 * y * y + rho * rho)), s


def _textbook_g(mp, n, eps, rho, y):
    """alpha k = R/sqrt(2(1-rho)(s+1)) at mpmath precision at the point y of
    the slice rho on the branch R = pi n + eps arccos a."""
    rho, y = mp.mpf(rho), mp.mpf(y)
    acos_a, s = _arccos_a(mp, rho, y)
    return (mp.pi * n + eps * acos_a) / mp.sqrt(2 * (1 - rho) * (s + 1))


def _branch_residual(mp, n, eps, rho, y):
    """(|c - t|/(|c| + |t|), alpha k) at mpmath precision at the point y of
    the slice rho on the branch R = pi n + eps arccos a, with k = 1 and
    alpha k from _textbook_g; |c - t| = e^{-b} |m22|."""
    rho, y = mp.mpf(rho), mp.mpf(y)
    chi = _textbook_g(mp, n, eps, rho, y)
    w = _upper_w(mp, rho, (1 - rho) * y)
    x = 2 * chi * w
    c, t = mp.cos(x), 1j * (1 + w * w) * chi * mp.sin(x) / x
    return abs(c - t) / (abs(c) + abs(t)), chi


class TestBranchLemma:
    """Lemma 1 of the kernels docstring: every singularity with rho < 1
    lies on a branch (n, -), n >= 1; a branch (n, +) holds none of its own.
    Lemma 3: none has sigma <= 0."""

    def test_phase_of_the_singularity_condition_is_arccos_a(self):
        # on a seeded deck, rho in (-3, 1) and y log-uniform in 1e-6 ... 1e6:
        # Re w = -sqrt((1-rho)(s+1)/2) < 0 < Im w, and (1+w)/(1-w) has
        # argument arccos a
        mpmath = pytest.importorskip("mpmath")
        mp, rng = mpmath.mp, random.Random(3)
        with mpmath.workdps(50):
            for _ in range(1000):
                rho, y = mp.mpf(rng.uniform(-3.0, 1.0)), mp.mpf(10.0 ** rng.uniform(-6.0, 6.0))
                w = _upper_w(mp, rho, (1 - rho) * y)
                acos_a, s = _arccos_a(mp, rho, y)
                assert w.real < 0 < w.imag
                assert abs(w.real + mp.sqrt((1 - rho) * (s + 1) / 2)) <= 1e-45 * -w.real
                assert abs(mp.arg((1 + w) / (1 - w)) - acos_a) <= 1e-40

    def test_certified_points_meet_the_phase_condition(self):
        # at the points solve_sigma certifies, e^{iX} (1-w)/(1+w) = +-1 with
        # X = 2 alpha k w, alpha k as the kernels give it
        mpmath = pytest.importorskip("mpmath")
        mp, rng, points = mpmath.mp, random.Random(4), 0
        for _ in range(100):
            near_1 = rng.random() < 0.5
            rho = 1.0 - 10.0 ** rng.uniform(-12.0, -1.0) if near_1 else rng.uniform(0.3, 0.99)
            for p in solve_sigma(BranchLabel(n=rng.randint(1, 50)), rho):
                points += 1
                with mpmath.workdps(50):
                    w = _upper_w(mp, mp.mpf(p.rho), mp.mpf(p.sigma))
                    v = mp.exp(2j * mp.mpf(p.alpha_k) * w) * (1 - w) / (1 + w)
                    assert min(abs(v - 1), abs(v + 1)) < 1e-12, p
        assert points >= 50

    def test_plus_roots_are_not_zeros_of_m22(self):
        # the roots on the y grid of the oracle's F on branches (n, +), with
        # alpha k > 0, over 300 seeded slices (n in 0 ... 50; rho uniform in
        # [-3, 0.999] or 1 - rho log-uniform in [1e-14, 1e-3]): none is a
        # zero of m22 by the 50-digit |c - t|/(|c| + |t|), which is >= 2.2e-5
        # where 1 - rho > 1e-6 (nearer rho = 1 it is about y/2, >= 5e-7 on
        # the grid).  The (n, -) roots of the same slices all are zeros.  (On
        # this deck: 240 roots on (n, +), 189 of them with 1 - rho > 1e-6,
        # and 228 on (n, -).)
        mpmath = pytest.importorskip("mpmath")
        rng, residuals = random.Random(1), {1: [], -1: []}
        for _ in range(300):
            n = rng.randint(0, 50)
            near_1 = rng.random() >= 0.5
            rho = 1.0 - 10.0 ** rng.uniform(-14.0, -3.0) if near_1 else rng.uniform(-3.0, 0.999)
            for eps in (1, -1) if n else (1,):
                def f(y):
                    return float(f_grid_both_sides(n, eps, rho, np.array([y]))[0])
                signs = np.sign(f_grid_both_sides(n, eps, rho, _Y_GRID))
                for y in _grid_roots(brentq, f, _Y_GRID.y, signs):
                    with mpmath.workdps(50):
                        res, alpha_k = _branch_residual(mpmath.mp, n, eps, rho, y)
                    if alpha_k > 0:
                        residuals[eps].append((1.0 - rho, float(res)))
        plus, minus = residuals[1], residuals[-1]
        assert len(plus) >= 200 and len(minus) >= 200
        assert min(res for _, res in plus) > 1e-9
        far = [res for gap, res in plus if gap > 1e-6]
        assert len(far) >= 150 and min(far) >= 2.2e-5
        assert max(res for _, res in minus) < 1e-12

    def test_plus_meets_minus_only_where_a_is_zero(self):
        # a = 0 where (1-rho) s = 1, at y = sqrt(1/(1-rho)^2 - 1) for rho in
        # (0, 1): there R = pi n + pi/2 on (n, +) and on (n+1, -), so F, L and
        # G of the two branches agree; elsewhere their R differ by 2 arccos a - pi
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        for rho in (0.05, 0.3, 0.5, 0.9, 0.999):
            y = math.sqrt(1.0 / (1.0 - rho) ** 2 - 1.0)
            for n in (0, 1, 7, 50):
                assert _phase(n + 1, rho, y) == pytest.approx(math.pi * (n + 0.5), rel=1e-12)
                with mpmath.workdps(50):
                    y_a0 = mp.sqrt(1 / (1 - mp.mpf(rho)) ** 2 - 1)
                    plus, scale, _ = textbook_f(mp, n, 1, rho, y_a0)
                    assert abs(plus - textbook_f(mp, n + 1, -1, rho, y_a0)[0]) <= 1e-40 * scale
                    want, l_scale, _ = textbook_l(mp, n + 1, rho, y_a0)
                    assert abs(kernels.f_scalar(n + 1, rho, y) - want) <= 1e-9 * l_scale
                    for off in (0.5 * y, 2.0 * y):
                        acos_a, _ = _arccos_a(mp, mp.mpf(rho), mp.mpf(off))
                        assert abs(2 * acos_a - mp.pi) > 1e-3


    def test_no_zero_of_m22_without_gain(self):
        # lemma 3: for sigma <= 0 and chi = alpha k > 0 the upper-branch w has
        # Re w >= 0 and Im w >= 0, so |1+w|^2 e^{Im X} > |1-w|^2 e^{-Im X}
        # (X = 2 chi w, w != 0), and 4 w m22 e^{-2i chi} = (1+w)^2 e^{-iX} -
        # (1-w)^2 e^{iX} is at least their difference in modulus.  Seeded
        # draws: rho uniform in (-3, 3) or near 1, sigma = 0 or -10^u,
        # chi log-uniform in 1e-6 ... 1e4
        mpmath = pytest.importorskip("mpmath")
        mp, rng = mpmath.mp, random.Random(16)
        with mpmath.workdps(50):
            for i in range(2000):
                rho = 1.0 + rng.choice((1, -1)) * 10.0 ** rng.uniform(-12.0, 0.0) if i % 4 == 0 \
                    else rng.uniform(-3.0, 3.0)
                sigma = 0.0 if i % 5 == 0 else -(10.0 ** rng.uniform(-12.0, 3.0))
                chi = mp.mpf(10.0 ** rng.uniform(-6.0, 4.0))
                w = _upper_w(mp, mp.mpf(rho), mp.mpf(sigma))
                assert w.real >= 0 and w.imag >= 0 and w != 0
                x = 2 * chi * w
                big = abs(1 + w) ** 2 * mp.exp(x.imag)
                small = abs(1 - w) ** 2 * mp.exp(-x.imag)
                m22 = (1 + w) ** 2 * mp.exp(-1j * x) - (1 - w) ** 2 * mp.exp(1j * x)
                assert big > small, (rho, sigma, chi)
                assert abs(m22) >= (big - small) * (1 - mp.mpf("1e-40")), (rho, sigma, chi)


class TestHotPath:
    @pytest.fixture
    def counted(self, monkeypatch):
        """(YGrids built, points of each f_grid call)."""
        built, points = [], []
        init, f_grid = kernels.YGrid.__init__, kernels.f_grid

        def counting_init(self, y):
            built.append(y)
            init(self, y)

        def counting_f_grid(*args):
            f = f_grid(*args)
            points.append(f.size)
            return f
        monkeypatch.setattr(kernels.YGrid, "__init__", counting_init)
        monkeypatch.setattr(kernels, "f_grid", counting_f_grid)
        return built, points

    def test_trace_curve_reuses_the_y_grid(self, counted):
        # the y pieces of the bracketing grid are built once, at import:
        # a trace builds no YGrid and evaluates L once per rho sample
        built, points = counted
        assert trace_curve(B1, 0.7, 0.9, 3)
        assert built == [] and len(points) == 3
        kernels.f_grid(1, 0.5, np.ones(2))  # an array is wrapped: counted
        assert len(built) == 1

    def test_f_grid_sees_at_most_two_cells(self, counted):
        # the enclosure leaves L to evaluate on at most two cells of _CELL
        # grid steps (2 _CELL + 1 points) per sample for n = 2...50; wider
        # cells make the enclosure cheaper and this window larger
        built, points = counted
        for n in range(2, 51):
            trace_curve(BranchLabel(n=n), -3.0, 0.999, 8)
        assert built == [] and len(points) == 49 * 8
        assert max(points) <= 2 * _CELL + 1


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
        # seeded brackets of L and on functions that force bisection,
        # extrapolation and non-convergence
        scipy_optimize = pytest.importorskip("scipy.optimize")

        def reference(f, a, b):
            return scipy_optimize.brentq(f, a, b, xtol=1e-300, rtol=1e-14)
        rng = random.Random(0)
        ys = np.geomspace(1e-6, 1e6, 4801)
        cases = []
        for _ in range(40):
            n, rho = rng.randint(1, 50), rng.uniform(-1.0, 0.99)
            fv = kernels.f_grid(n, rho, ys)
            sgn = np.sign(fv)
            for i in np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]:
                f = functools.partial(kernels.f_scalar, n, rho)
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
            (lambda x: 1.0 - x, 0.0, 1.0),  # f(a) > 0 = f(b): b is the root
        ]
        for f, a, b in cases:
            assert self._run(brentq, f, a, b) == self._run(reference, f, a, b)

    def test_brentq_raises_without_sign_change(self):
        with pytest.raises(NoSignChange):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0)
        assert issubclass(NoSignChange, ValueError)

    def test_brentq_raises_on_nan(self):
        with pytest.raises(ValueError) as info:
            brentq(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0)
        assert not isinstance(info.value, NoSignChange)

    def test_bracket_where_f_keeps_its_sign_is_dropped(self):
        # the signs change on [1, 2] where f = 2.5 - x does not: no root there
        xs = np.array([0.0, 1.0, 2.0, 3.0])
        signs = np.array([-1.0, -1.0, 1.0, -1.0])
        roots = _grid_roots(brentq, lambda x: 2.5 - x, xs, signs)
        assert roots == [pytest.approx(2.5, rel=1e-14)]

    def test_nan_still_raises_through_the_pipeline(self):
        xs = np.array([0.0, 1.0])
        with pytest.raises(ValueError):
            _grid_roots(brentq, lambda x: math.nan, xs, np.array([-1.0, 1.0]))

    def test_brentq_raises_when_not_converged(self):
        # a jump at 1e-200 inside [-1e300, 4e300] needs ~2000 halvings to
        # reach xtol = 1e-300; brentq stops after 100 iterations
        with pytest.raises(RuntimeError):
            brentq(lambda x: -1.0 if x < 1e-200 else 1.0, -1e300, 4e300)

    def test_root_on_a_grid_point_is_kept(self):
        # F = 0 exactly at x = 0.5, between opposite signs: a zero is a sign
        # of its own, so it closes the brackets [0.25, 0.5] and [0.5, 0.75],
        # and both polish to 0.5, kept once
        def f(x):
            return (x - 0.5) * (x - 0.8)
        xs = np.linspace(0.0, 1.0, 5)
        signs = np.sign(f(xs))
        assert signs.tolist() == [1, 1, 0, -1, 1]
        assert _grid_roots(brentq, f, xs, signs) == [0.5, pytest.approx(0.8, rel=1e-14)]

    def test_zero_between_equal_signs_is_a_root_only_where_f_is_zero(self):
        # the grid's sign reads 0 at x = 0.5 between two positive ones: a
        # root once where f is exactly 0 there, none where f keeps its sign
        xs = np.linspace(0.0, 1.0, 5)
        signs = np.array([1.0, 1.0, 0.0, 1.0, 1.0])
        assert _grid_roots(brentq, lambda x: (x - 0.5) ** 2, xs, signs) == [0.5]
        assert _grid_roots(brentq, lambda x: (x - 0.5) ** 2 + 1e-3, xs, signs) == []

    def test_zero_closes_a_bracket_in_a_one_byte_sign_array(self):
        # find_singularities' grid: -1, 0, +1 in int8, here with the zero
        # between opposite signs where f itself is not 0 on the grid point
        xs = np.array([0.0, 1.0, 2.0, 3.0])
        signs = np.array([-1, 0, 1, 1], dtype=np.int8)
        roots = _grid_roots(brentq, lambda x: x - 1.25, xs, signs)
        assert roots == [pytest.approx(1.25, rel=1e-14)]

    def test_duplicate_roots_merged(self):
        # three brackets that polish to the same double are one root; roots
        # one ulp apart are two
        xs = np.array([0.0, 1.0, 1.0 + 1e-12, 2.0])
        signs = np.array([-1.0, 1.0, -1.0, 1.0])
        assert _grid_roots(lambda f, lo, hi: 1.0, None, xs, signs) == [1.0]
        apart = math.nextafter(1.0, 2.0)
        assert _grid_roots(lambda f, lo, hi: 1.0 if lo < 1.0 else apart,
                           None, xs, signs) == [1.0, apart]

    def test_noise_slice_keeps_each_sigma_once(self, monkeypatch):
        # on the n = 1 tail just above rho = 2/3 m22 nearly vanishes over a
        # range of sigma: 46 brackets there polish to 29 distinct y, 17 of
        # them repeats of the root before, and the points come out strictly
        # increasing in sigma
        polished, distinct = [], []

        def counting_brentq(f, lo, hi):
            polished.append(brentq(f, lo, hi))
            return polished[-1]

        def counting_roots(*args):
            roots = _grid_roots(*args)
            distinct.extend(roots)
            return roots

        monkeypatch.setattr(locus, "brentq", counting_brentq)
        monkeypatch.setattr(locus, "_grid_roots", counting_roots)
        sigmas = [p.sigma for p in solve_sigma(B1, 0.6666666667)]
        assert len(sigmas) >= 20 and len(polished) > len(distinct)
        assert all(a < b for a, b in zip(sigmas, sigmas[1:]))

    def test_certify_rejects_a_nan_residual(self):
        # the gate accepts only res < RESIDUAL_TOL, so NaN never certifies
        p = solve_sigma(B1, 0.7)[0]
        assert _certify(lambda chi, zeta: 0.0, B1, p.rho, p.y) is not None
        assert _certify(lambda chi, zeta: math.nan, B1, p.rho, p.y) is None

    def test_certify_rejects_a_zero_length_barrier_by_its_residual(self):
        # G = 0 where y^2 underflows; m22 = 1 there, so the residual is 1
        rho, y = -0.5, 1e-170
        assert kernels.alpha_k(1, rho, y) == 0.0
        calls = []

        def residual(chi, zeta):
            calls.append((chi, zeta))
            return m22_residual(chi, zeta)
        assert _certify(residual, B1, rho, y) is None
        assert calls == [(0.0, complex(rho, (1.0 - rho) * y))]
        assert m22_residual(*calls[0]) == 1.0


#: rows an array rho puts around each tested one: rho = 0 and 1e-170, where
#: den = rho^2 is 0 or below the normal range at y = 0, among ordinary rows
_NEIGHBOURS = (0.45, 0.0, -2.5, 1e-170)


def _bounds_both_ways(rhos, cells=_CELLS):
    """The enclosure of nu on cells for each of rhos, (len(rhos), 2,
    cells), from a one-element array per call and from one array of rhos
    among _NEIGHBOURS rows."""
    one_by_one = np.concatenate([kernels.f_bounds(np.array([rho]), cells) for rho in rhos])
    rows = np.array([r for rho in rhos for r in (*_NEIGHBOURS[:3], rho, _NEIGHBOURS[3])])
    batched = kernels.f_bounds(rows, cells)[3::len(_NEIGHBOURS) + 1]
    return one_by_one, batched


def _mask(n, bounds):
    """The cells where bounds (rows lo, hi on axis -2) exclude n."""
    return (n < bounds[..., 0, :]) | (n > bounds[..., 1, :])


def _cell_bounds(rho, cell, cells=_CELLS):
    """(lo, hi) of the enclosure on column ``cell`` of cells, from rho alone
    and from rho among other rows."""
    return [bounds[0, :, cell] for bounds in _bounds_both_ways([rho], cells)]


def _nu(n, y, l):
    """The branch index nu = n + (s+1) L/(pi y) at L = l on the branch (n,
    -): the level of the n-free function nu at y, in floats."""
    return n + (np.sqrt(y * y + 1.0) + 1.0) * l / (math.pi * y)


def _full_grid_solve(branch, rho):
    """solve_sigma with L evaluated on the whole grid: the oracle for the
    window the enclosure leaves."""
    n = branch.n
    roots = _grid_roots(brentq, lambda y: kernels.f_scalar(n, rho, y), _Y_GRID.y,
                        np.sign(kernels.f_grid(n, rho, _Y_GRID)))
    points = [pt for pt in (_certify(m22_residual, branch, rho, y) for y in roots)
              if pt is not None]
    return sorted(points, key=lambda p: p.sigma)


def _seeded_traces():
    """(branch, rho_min, rho_max) of seeded traces of 15 slices: n in
    [1, 50] over windows inside (0.3, 0.99), and traces with rho from -3 and
    n up to 1e4.  Each of the latter draws a sign, and only those that draw
    - are kept, so the deck is the (n, -) half of one over both signs."""
    rng = random.Random(7)
    traces = []
    for _ in range(12):
        lo = rng.uniform(0.3, 0.94)
        traces.append((BranchLabel(n=rng.randint(1, 50)), lo, rng.uniform(lo + 0.05, 0.99)))
    for _ in range(24):
        eps, lo = rng.choice((1, -1)), rng.uniform(-3.0, 0.98)
        n = rng.choice((rng.randint(1, 10), rng.randint(1, 10_000)))
        hi = rng.uniform(lo + 1e-3, 0.999999)
        if eps < 0:
            traces.append((BranchLabel(n=n), lo, hi))
    return traces


def _slices(rho_min, rho_max, samples):
    """The rho slices of trace_curve(branch, rho_min, rho_max, samples)."""
    return [1.0 - math.exp(u)
            for u in np.linspace(math.log(1.0 - rho_max), math.log(1.0 - rho_min), samples)]


def _seeded_slices():
    """(branch, rho) of the slices of _seeded_traces."""
    return [(branch, rho) for branch, lo, hi in _seeded_traces() for rho in _slices(lo, hi, 15)]


class TestEnclosure:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 10_000),
           rho=st.one_of(st.floats(-1e3, 1.0, exclude_max=True),
                         st.floats(-15.0, 0.0).map(lambda u: 1.0 - 10.0 ** u)),
           cell=st.one_of(st.integers(0, _CELLS.y.shape[1] - 1).map(lambda i: (_CELLS, i)),
                          st.integers(0, _DECADES.y.shape[1] - 1).map(lambda i: (_DECADES, i))),
           ts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    def test_nu_lies_in_the_bounds(self, n, rho, cell, ts):
        # nu = n + (s+1) L/(pi y) from L at 50 digits and from f_scalar lies
        # in each cell's bounds, also where x > 350 (where F read -1e300).
        # The cells are those of _CELLS (cell 0 is [0, 1e-6]), and the
        # decades below the grid down to 1e-300, _DECADES, all enclosed for
        # one rho as _below_grid does
        mpmath = pytest.importorskip("mpmath")
        assume(rho < 1.0)
        cells, cell = cell
        y0, y1 = cells.y[:, cell]
        ys = [y1 * max(t, 1e-3) if y0 == 0.0 else min(y0 * (y1 / y0) ** t, y1) for t in ts]
        # where den underflows, term1 overflows a double: there is no L to enclose
        assume(kernels._den(rho, min(ys)) >= sys.float_info.min)
        bounds = _cell_bounds(rho, cell, cells)
        for y in ys:
            f = kernels.f_scalar(n, rho, y)
            with mpmath.workdps(50):
                mp = mpmath.mp
                scale = (mp.sqrt(mp.mpf(y) ** 2 + 1) + 1) / (mp.pi * y)
                want = n + scale * textbook_l(mp, n, rho, y)[0]
                got = n + scale * f
            for lo, hi in bounds:
                assert lo <= got <= hi and lo <= want <= hi, (y, lo, hi)

    def test_cell_ends_lie_in_the_bounds(self):
        # the cells' ends are where the corner bounds are tightest; one
        # enclosure of nu serves every n
        ys = _CELLS.y[:, 1:]
        for rho in (-2.5, 0.01, 0.3, 0.7, 0.99, 1 - 1e-9):
            lo, hi = kernels.f_bounds(np.array([rho]), _CELLS)[0, :, 1:]
            for n in (1, 2, 7, 50, 400, 3000):
                nu = _nu(n, ys, kernels.f_grid(n, rho, ys))
                assert (lo <= nu).all() and (nu <= hi).all()

    def test_margin_exceeds_rounding(self):
        # on cells of zero width [y, y] the bounds sit the margin (1e-9 of
        # nu) away from the nu of f_grid's value, far above the rounding
        # error the two share, also where x > 350 (n = 3000 here); a margin
        # of 0 fails
        ys = np.geomspace(1e-6, 1e6, 97)
        point_cells = kernels.YGrid([ys, ys])
        for n, rho in ((1, 0.7), (50, 0.999), (3000, 0.3)):
            lo, hi = kernels.f_bounds(np.array([rho]), point_cells)[0]
            nu = _nu(n, ys, kernels.f_grid(n, rho, ys))
            assert (nu - lo >= 0.5e-9 * nu).all() and (hi - nu >= 0.5e-9 * nu).all()

    def test_bounds_at_y_zero(self):
        # (s+1)/y = +inf at y = 0 makes hi = +inf with no warning (for every
        # rho: test_array_rho_gives_the_one_row_masks), also where den =
        # rho^2 is 0 there (rho = 0) or below the normal range (1e-170); the
        # cell [0, 1e-6] still excludes n = 2 there, also where it is not the
        # first cell
        moved = kernels.YGrid([[1e-3, 0.0], [1e-2, 1e-6]])
        for rho in (0.0, 1e-170):
            for lo, hi in _cell_bounds(rho, 0) + _cell_bounds(rho, 1, moved):
                assert hi == math.inf and lo > 2.0

    def test_cell_where_den_underflows_is_excluded_without_a_warning(self):
        # on [0, 1e-300] den underflows at both ends for rho = 0 (and is
        # subnormal for 1e-170): term1 has no double there, and the cell is
        # excluded; RuntimeWarnings are errors in this suite
        cell = kernels.YGrid([[0.0], [1e-300]])
        for rho in (0.0, 1e-170):
            (lo,), (hi,) = kernels.f_bounds(np.array([rho]), cell)[0]
            assert lo == hi == math.inf
            assert _excluded(1, np.array([rho]), cell).all()

    def test_excluded_cells_hold_no_sign_change(self):
        # on the full grid, every cell the enclosure excludes keeps one sign
        # (each rho alone, and an array of a trace's rhos, give the bounds):
        # L > 0 where n < lo, L < 0 where n > hi
        cells = (np.arange(1, _CELLS.y.shape[1])[:, None] - 1) * _CELL + np.arange(_CELL + 1)
        for branch, rho_min, rho_max in _seeded_traces():
            n = branch.n
            rhos = _slices(rho_min, rho_max, 15)
            both_ways = _bounds_both_ways(rhos)
            for i, rho in enumerate(rhos):
                f = kernels.f_grid(n, rho, _Y_GRID)[cells]
                for bounds in both_ways:
                    lo, hi = bounds[i, :, 1:]
                    assert (f[n < lo] > 0.0).all() and (f[n > hi] < 0.0).all()
                assert _excluded(n, np.array([rho]), _CELLS)[0, 0]  # no root below the grid here

    def test_one_block_enclosure_serves_every_n(self):
        # one f_bounds call on a block of slices from rho = -3 to 1 - 1e-12:
        # for each n, no cell excluded for n holds a sign change of f_grid(n,
        # ...), on the grid's points of each cell and on [0, 1e-6] sampled
        # at 10 points a decade down to 1e-300
        rhos = _slices(-3.0, 1 - 1e-12, _BLOCK)
        bounds = kernels.f_bounds(np.array(rhos), _CELLS)
        grid_cells = (np.arange(1, _CELLS.y.shape[1])[:, None] - 1) * _CELL + np.arange(_CELL + 1)
        below = np.geomspace(1e-300, _Y_GRID.y[0], 2941)
        for n in (1, 2, 7, 50, 700000):
            above, under = n < bounds[:, 0], n > bounds[:, 1]
            for i, rho in enumerate(rhos):
                f = [kernels.f_grid(n, rho, below), *kernels.f_grid(n, rho, _Y_GRID)[grid_cells]]
                assert all((f[j] > 0.0).all() for j in np.flatnonzero(above[i]))
                assert all((f[j] < 0.0).all() for j in np.flatnonzero(under[i]))
            # cells are excluded on both sides of every level n
            assert above.any() and under.any()

    def test_solve_sigma_matches_the_full_grid(self):
        for branch, rho in _seeded_slices():
            assert solve_sigma(branch, rho) == _full_grid_solve(branch, rho)

    def test_array_rho_gives_the_one_row_masks(self):
        # each row of an array rho excludes, for each n, the cells its rho
        # alone excludes; a bound may differ in its last bit (numpy's vector
        # loops round differently for different layouts), far inside the
        # width hi - lo >= 2e-9 nu that the margin gives a cell
        traces = [(b.n, _slices(lo, hi, 15)) for b, lo, hi in _seeded_traces()]
        for n, rhos in traces + [(2, _NEIGHBOURS)]:
            one_by_one, batched = _bounds_both_ways(rhos)
            assert np.array_equal(_mask(n, batched), _mask(n, one_by_one))
            assert np.array_equal(np.isinf(batched), np.isinf(one_by_one))
            batched, one_by_one = (np.where(np.isinf(b), 0.0, b) for b in (batched, one_by_one))
            assert (np.abs(batched - one_by_one) <= 1e-12 * one_by_one).all()
        # only the cell [0, 1e-6] is unbounded, above, in every row
        batched = _bounds_both_ways(_NEIGHBOURS)[1]
        assert np.isinf(batched[:, 1, 0]).all()
        assert np.count_nonzero(np.isinf(batched)) == len(_NEIGHBOURS)


class TestBlocks:
    """trace_curve encloses L for _BLOCK slices at a time, on _CELLS."""

    def test_cells_cover_the_grid(self):
        # a width that does not divide the grid's steps (128 or 256) would
        # end the cells at y[4736] and leave [y[4736], 1e6] unsearched
        assert (_Y_GRID.y.size - 1) % _CELL == 0
        assert _CELLS.y[1, -1] == _Y_GRID.y[-1] == 1e6

    @staticmethod
    def _assert_trace_is_its_slices(branch, rho_min, rho_max, samples):
        """trace_curve gives what solve_sigma gives slice by slice; return it."""
        points = trace_curve(branch, rho_min, rho_max, samples)
        assert points == [pt for rho in _slices(rho_min, rho_max, samples)
                          for pt in solve_sigma(branch, rho)]
        return points

    def test_trace_equals_its_slices(self):
        for trace in _seeded_traces():
            self._assert_trace_is_its_slices(*trace, 15)
        # three blocks, the last one short
        assert len(self._assert_trace_is_its_slices(B2, 0.3, 0.99, 2 * _BLOCK + 7)) > 2 * _BLOCK

    @pytest.mark.parametrize("n,rho_min,rho_max", [(2, 1 - 1e-11, 1 - 1e-12),
                                                   (700000, 0.79, 0.81)])
    def test_trace_below_the_grid_equals_its_slices(self, n, rho_min, rho_max):
        # these traces hold the rows (2, 1 - 1e-12) and (700000, 0.8), whose
        # roots lie below the grid, found by the decade search
        points = self._assert_trace_is_its_slices(BranchLabel(n=n), rho_min, rho_max, 5)
        assert any(p.y < _Y_GRID.y[0] for p in points)

    def test_trace_with_every_cell_excluded(self, monkeypatch):
        # no input found leaves every cell excluded (none of 800,000 random
        # rows over n, eps and rho did), so an enclosure that excludes every
        # cell stands in: each slice is still solved, with no L evaluated
        f_bounds, solved, grids = kernels.f_bounds, [], []

        def excluding(*args):
            bounds = f_bounds(*args)
            bounds[..., 0, :] = math.inf
            return bounds

        def counted_solve(*args, **kwargs):
            solved.append(kwargs)
            return solve_sigma(*args, **kwargs)
        monkeypatch.setattr(kernels, "f_bounds", excluding)
        monkeypatch.setattr(kernels, "f_grid", lambda *args: grids.append(args))
        monkeypatch.setattr(locus, "solve_sigma", counted_solve)
        assert self._assert_trace_is_its_slices(B2, 0.3, 0.99, _BLOCK + 1) == []
        assert solved == [{"window": None}] * (_BLOCK + 1) and grids == []

    def test_window_memory_is_bounded_by_the_block(self):
        # the windows of 20 blocks of slices peak within 1.2x of one block's;
        # one f_bounds call over all 1280 slices peaks about 16x higher
        def peak(samples):
            rhos = _slices(0.3, 0.99, samples)
            tracemalloc.start()
            try:
                collections.deque(_windows(2, rhos), maxlen=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak(20 * _BLOCK) <= 1.2 * peak(_BLOCK)


def _window_by_decades(n, rho):
    """(window y, decades below the grid) of one slice, with the decade
    cells enclosed one at a time, each as its own one-cell YGrid, down to
    the first that is excluded (or to 1e-300): the reference for _DECADES,
    which _below_grid encloses in one call."""
    open_cells = ~_excluded(n, np.array([rho]), _CELLS)[0]
    if not open_cells.any():
        return None, 0
    first, last = np.flatnonzero(open_cells)[[0, -1]]
    if first > 0:
        return _Y_GRID.y[(first - 1) * _CELL:last * _CELL + 1], 0
    decades, y_min = 0, _Y_GRID.y[0]
    while y_min > 1e-300:
        decades += 1
        y_min = _Y_GRID.y[0] * 10.0 ** -decades
        if _excluded(n, np.array([rho]), kernels.YGrid([[0.0], [y_min]]))[0, 0]:
            break
    below = np.geomspace(y_min, _Y_GRID.y[0], _PER_DECADE * decades + 1)[:-1]
    return np.concatenate((below, _Y_GRID.y[:last * _CELL + 1])), decades


class TestDecades:
    """Below the grid, _below_grid encloses the decade cells _DECADES in one call."""

    def test_decade_cells(self):
        # [0, 1e-6 10^-d] for d = 1 ... 294, whose ends are Python's float
        # powers, the doubles of the search one decade at a time (numpy's
        # 10.0 ** -d differs in the last bit for 12 of them)
        assert _DECADES.y.shape == (2, 294)
        assert (_DECADES.y[0] == 0.0).all()
        want = np.array([1e-6 * 10.0 ** -d for d in range(1, 295)])
        assert _DECADES.y[1].tobytes() == want.tobytes()
        assert _DECADES.y[1, -1] == 1e-300

    def test_windows_match_the_search_one_decade_at_a_time(self):
        # seeded slices near rho = 1, n log-uniform in 1 ... 1e9: the same
        # window, bit for bit, with one to a dozen decades below the grid
        # (n = 1e9 at 1 - rho = 1e-16 needs 11).  Each slice draws a sign,
        # and only those that draw - are kept: the (n, -) half of a deck
        # over both signs
        rng = random.Random(11)
        deck = [(10 ** 9, 1.0 - 1e-16)]
        for _ in range(400):
            n, eps = max(1, round(10 ** rng.uniform(0.0, 9.0))), rng.choice((1, -1))
            rho = 1.0 - 10.0 ** rng.uniform(-16.0, -1.0)
            if eps < 0:
                deck.append((n, rho))
        depths = collections.Counter()
        for n, rho in deck:
            window, = _windows(n, [rho])
            want, decades = _window_by_decades(n, rho)
            assert (window is None) == (want is None)
            if want is not None:
                assert window.y.tobytes() == want.tobytes(), (n, rho)
            depths[decades] += 1
        assert depths[11]
        assert sum(c for d, c in depths.items() if d > 1) >= 50
