import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest

from specsing import kernels, waveguide
from specsing.barrier import m22_residual, principal_sqrt_upper
from specsing.waveguide import (
    GAIN_CAP,
    HBAR_C_EV_NM,
    M22_FLOOR,
    CutoffError,
    GainMedium,
    WaveguideGeometry,
    _rho_sigma,
    find_singularities,
    gain_scan,
    permittivity,
)

from oracles import (
    CAPPED_DESIGN,
    alpha_z_k_transfer,
    coupling_of,
    f_grid_both_sides,
    oracle_transfer_matrix,
)

MEDIUM = GainMedium(omega0=5.0, omega_p_sq=-0.04, delta=1.25)
GEOM_1CM = WaveguideGeometry(beta=5e6, m=1)  # 2 beta / m = 1 cm
OM_1CM = GEOM_1CM.omega_cutoff


def _bits(a):
    """The bits of each double, so -0.0 != 0.0."""
    return np.asarray(a, dtype=float).view(np.uint64).tolist()


# The frequency-scan arithmetic as plain expressions, stated apart from
# gain_scan's so that a change to its operations, their order or operand
# order shows as a changed bit.
def _expr_k(Om, omega):
    u = (omega - Om) / omega * ((omega + Om) / omega)
    return (omega / HBAR_C_EV_NM) * (np.sqrt(u) if isinstance(u, np.ndarray) else math.sqrt(u))


def _expr_rho_sigma(medium, Om, omega):
    d2 = omega**2 - medium.omega0**2
    above_cutoff = (omega - Om) / omega * ((omega + Om) / omega)
    den = (d2 * d2 + 4.0 * omega**2 * medium.delta**2) * above_cutoff
    return (medium.omega_p_sq * d2 / den, -2.0 * omega * medium.omega_p_sq * medium.delta / den,
            above_cutoff)


def _expr_scaled_moduli(chi, zeta):
    w = principal_sqrt_upper(1 - zeta)
    x = 2 * chi * w
    a, b = x.real, x.imag
    p = 0.5 + 0.5 * np.exp(-2 * b)
    q = -0.5 * np.expm1(-2 * b)
    cos_a, sin_a = np.cos(a), np.sin(a)
    c = cos_a * p - 1j * (sin_a * q)
    small = abs(x) < 1e-4
    sinc = (sin_a * p + 1j * (cos_a * q)) / np.where(small, 1.0, x)
    if np.any(small):
        x2 = x * x
        sinc = np.where(small, np.exp(-b) * (1.0 - x2 / 6.0 + x2 * x2 / 120.0), sinc)
    sr = chi * sinc
    t = 1j * (1 + w * w) * sr
    return np.abs(w * w - 1) * np.abs(sr), np.abs(c - t), x.imag


def _expr_scan_values(solution, medium, geom, ratios):
    """The scan's values in one block: its arithmetic is elementwise."""
    om = np.asarray(ratios) * solution.omega
    rho, sigma, _ = _expr_rho_sigma(medium, geom.omega_cutoff, om)
    zeta = rho.astype(complex)
    zeta.imag = sigma
    a12, a22, b = _expr_scaled_moduli(solution.alpha * _expr_k(geom.omega_cutoff, om), zeta)
    lg22 = np.log10(a22, out=np.full_like(a22, -np.inf), where=a22 > 0)
    capped = lg22 + b * math.log10(math.e) < math.log10(M22_FLOOR)
    values = np.log10(np.exp(-2.0 * b) + a12 * a12) - 2.0 * lg22
    return np.where(capped, GAIN_CAP, values)


class TestPermittivity:
    def test_on_resonance_frozen(self):
        # omega = omega0: eps = 1 - omega_p^2/(2 i delta omega0) = 1 - 0.0032i
        assert permittivity(MEDIUM, 5.0) == pytest.approx(1 - 0.0032j, rel=1e-14)

    def test_high_frequency_limit(self):
        assert permittivity(MEDIUM, 1e6) == pytest.approx(1, abs=1e-10)

    def test_gain_sign(self):
        # negative omega_p^2 gives Im eps < 0 below and above resonance
        assert permittivity(MEDIUM, 3.0).imag < 0
        assert permittivity(MEDIUM, 7.0).imag < 0

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            permittivity(MEDIUM, 0.0)


class TestGeometry:
    def test_cutoff_value(self):
        # Omega = pi m hbar c / (2 beta)
        assert GEOM_1CM.omega_cutoff == pytest.approx(
            math.pi * HBAR_C_EV_NM / 1e7, rel=1e-15)

    def test_below_cutoff_raises(self):
        # a scan that reaches the cutoff itself (k = 0) or goes below it
        at_cutoff = dataclasses.replace(find_singularities(MEDIUM, GEOM_1CM, 10000)[1],
                                        omega=GEOM_1CM.omega_cutoff)
        for ratio in (1.0, 0.5):
            with pytest.raises(CutoffError):
                gain_scan(at_cutoff, MEDIUM, GEOM_1CM, [ratio])

    def test_k_just_above_cutoff_is_accurate(self):
        # u = 1 - Omega^2/omega^2 of the map, from which k = (omega/hbar c) sqrt(u)
        Om = GEOM_1CM.omega_cutoff
        om = Om * (1 + 1e-12)
        assert _rho_sigma(MEDIUM, Om, om)[2] == pytest.approx(2e-12, rel=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            WaveguideGeometry(beta=-1.0)
        with pytest.raises(ValueError):
            WaveguideGeometry(beta=1.0, m=0)

    @pytest.mark.parametrize("bad", [1.5, 0.5, -2.5, math.nan, math.inf, -math.inf])
    def test_rejects_a_mode_index_that_is_not_an_integer(self, bad):
        # m = 1.5 once gave a design at a cutoff between two modes, and m =
        # nan reached find_singularities and failed there on its cutoff
        with pytest.raises(ValueError, match="mode index"):
            WaveguideGeometry(beta=5e6, m=bad)

    def test_accepts_integer_mode_indices(self):
        for m in (1, 3, np.int64(2), np.int32(7), 2.0):
            assert WaveguideGeometry(beta=5e6, m=m).omega_cutoff == pytest.approx(
                m * OM_1CM, rel=1e-15)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_input(self, bad):
        with pytest.raises(ValueError):
            WaveguideGeometry(beta=bad)
        for field in ("omega0", "omega_p_sq", "delta"):
            with pytest.raises(ValueError):
                GainMedium(**{"omega0": 5.0, "omega_p_sq": -0.04, "delta": 1.25,
                              field: bad})

    def test_free_medium_rejected(self):
        # omega_p^2 = 0 puts every omega at (rho, sigma) = (0, 0), where L is 0/0
        with pytest.raises(ValueError):
            GainMedium(omega0=5.0, omega_p_sq=0.0, delta=1.25)

    def test_design_k_keeps_the_doubles_of_the_expression_form(self):
        # the design record forms k = (omega/hbar c) sqrt(u) from the map's u
        for sol in find_singularities(MEDIUM, GEOM_1CM, 2000):
            assert _bits(sol.k) == _bits(_expr_k(OM_1CM, sol.omega))


class TestRhoSigma:
    @pytest.mark.parametrize("omega", [0.5, 2.0, 4.9, 5.1, 40.0])
    def test_matches_coupling_over_k_squared(self, omega):
        rho, sigma, _ = _rho_sigma(MEDIUM, OM_1CM, omega)
        z = coupling_of(MEDIUM, omega)
        k = _expr_k(OM_1CM, omega)
        zeta = z / k**2
        assert rho == pytest.approx(zeta.real, rel=1e-14)
        assert sigma == pytest.approx(zeta.imag, rel=1e-14)

    def test_rho_changes_sign_at_resonance(self):
        r_lo = _rho_sigma(MEDIUM, OM_1CM, 4.999)[0]
        r_hi = _rho_sigma(MEDIUM, OM_1CM, 5.001)[0]
        assert r_lo > 0 > r_hi

    def test_sigma_positive_for_gain(self):
        for om in (1.0, 5.0, 9.0):
            assert _rho_sigma(MEDIUM, OM_1CM, om)[1] > 0

    def test_array_matches_floats(self):
        omegas = np.array([0.5, 2.0, 4.999, 5.001, 40.0])
        rho, sigma, u = _rho_sigma(MEDIUM, OM_1CM, omegas)
        assert list(zip(rho, sigma, u)) == \
            [_rho_sigma(MEDIUM, OM_1CM, float(om)) for om in omegas]

    @pytest.mark.parametrize("gap", [3.5e-4, 1e-2, 1e-5, 1e-8])
    def test_near_cutoff_matches_a_40_digit_map(self, gap):
        # 1 - Omega^2/omega^2 is formed from omega - Omega, exact here, so rho
        # and sigma keep their digits just above the cutoff: at omega/Omega -
        # 1 = 3.5e-4 they are 7e-17 off, where the form 1 - Omega^2/omega^2
        # was 1.1e-13 off and (1 - Omega/omega)(1 + Omega/omega) 9.8e-14
        mpmath = pytest.importorskip("mpmath")
        omega = OM_1CM * (1.0 + gap)
        rho, sigma, _ = _rho_sigma(MEDIUM, OM_1CM, omega)
        with mpmath.workdps(40):
            om, o0, wp2, d = (mpmath.mpf(v) for v in (omega, MEDIUM.omega0,
                                                    MEDIUM.omega_p_sq, MEDIUM.delta))
            d2 = om**2 - o0**2
            den = (d2**2 + 4 * om**2 * d**2) * (1 - mpmath.mpf(OM_1CM) ** 2 / om**2)
            for got, want in ((rho, wp2 * d2 / den), (sigma, -2 * om * wp2 * d / den)):
                assert abs(got - want) <= 8 * sys.float_info.epsilon * abs(want), gap

    def test_floats_keep_the_doubles_of_the_expression_form(self):
        # the float path serves the design solver's polish and certification
        rng = np.random.default_rng(21)
        omegas = OM_1CM * (1 + 10 ** rng.uniform(-9, 1.5, 2000))
        omegas[:200] = 5.0 + rng.uniform(-1e-3, 1e-3, 200)  # rho changes sign here
        for om in omegas.tolist():
            assert _bits(_rho_sigma(MEDIUM, OM_1CM, om)) == _bits(_expr_rho_sigma(MEDIUM, OM_1CM, om))


class TestFindSingularities:
    def test_frozen_n10000_solutions(self):
        sols = find_singularities(MEDIUM, GEOM_1CM, 10000)
        assert [s.ell for s in sols] == [1, 2, 3]
        s2 = sols[1]
        assert s2.omega == pytest.approx(2.1554773389535136, rel=1e-10)
        assert s2.lam == pytest.approx(575.2052974777915, rel=1e-10)
        assert 2 * s2.alpha / 1e6 == pytest.approx(2.8786472187502015, rel=1e-10)
        assert s2.refractive_index == pytest.approx(
            0.9990813581 - 2.4332980821e-4j, rel=1e-8)
        assert all(s.residual < 1e-9 for s in sols)

    def test_frozen_n2000_second_solution(self):
        sols = {s.ell: s for s in find_singularities(MEDIUM, GEOM_1CM, 2000)}
        assert sols[2].lam == pytest.approx(306.5878016, rel=1e-8)
        assert 2 * sols[2].alpha / 1e6 == pytest.approx(0.3068453981, rel=1e-8)

    def test_ell_ordered_by_descending_rho(self):
        sols = find_singularities(MEDIUM, GEOM_1CM, 10000)
        rhos = [s.rho_star for s in sols]
        assert rhos == sorted(rhos, reverse=True)

    def test_lossy_medium_has_no_singularities(self):
        lossy = GainMedium(omega0=5.0, omega_p_sq=0.04, delta=1.25)
        assert find_singularities(lossy, GEOM_1CM, 10000) == []

    def test_lossy_medium_is_answered_before_any_grid(self, monkeypatch):
        # lemma 3 in kernels: a lossy medium has sigma < 0 at every omega and
        # so no design, and gets [] with no grid and no kernel call, also
        # where its map from omega would overflow (3e76: exit 3 with gain);
        # an empty window is still a CutoffError
        calls = []
        for name in ("f_grid", "f_scalar", "alpha_k", "f_bounds"):
            monkeypatch.setattr(kernels, name, lambda *args, name=name: calls.append(name))
        monkeypatch.setattr(waveguide, "_rho_sigma", lambda *args: calls.append("_rho_sigma"))
        for omega0 in (5.0, 3e76):
            lossy = GainMedium(omega0=omega0, omega_p_sq=0.04, delta=1.25)
            assert find_singularities(lossy, GEOM_1CM, 10000) == []
        assert calls == []
        with pytest.raises(CutoffError):
            find_singularities(MEDIUM, WaveguideGeometry(beta=5.0), 2000)

    def test_only_beta_over_m_matters(self):
        other = WaveguideGeometry(beta=1e7, m=2)  # same 2 beta / m
        a = find_singularities(MEDIUM, GEOM_1CM, 2000)
        b = find_singularities(MEDIUM, other, 2000)
        assert len(a) == len(b)
        for sa, sb in zip(a, b):
            assert sa.omega == pytest.approx(sb.omega, rel=1e-12)
            assert sa.alpha == pytest.approx(sb.alpha, rel=1e-12)

    def test_independent_root_polish(self):
        # re-solve rho(omega) = rho_star with a bisection unaware of the
        # locus machinery; it must land on the same frequency
        brentq = pytest.importorskip("scipy.optimize").brentq
        s2 = find_singularities(MEDIUM, GEOM_1CM, 10000)[1]
        om = brentq(
            lambda om: _rho_sigma(MEDIUM, OM_1CM, om)[0] - s2.rho_star,
            2.0, 4.0, rtol=1e-15)
        assert om == pytest.approx(s2.omega, rel=1e-6)
        sig = _rho_sigma(MEDIUM, OM_1CM, om)[1]
        assert sig == pytest.approx(s2.sigma_star, rel=1e-6)

    def test_bad_branch_index(self):
        with pytest.raises(ValueError):
            find_singularities(MEDIUM, GEOM_1CM, 0)

    @pytest.mark.parametrize("n", [2000.5, 2000.25, 1999.5, math.nan])
    def test_non_integer_branch_index_is_rejected_before_any_grid(self, monkeypatch, n):
        # between two branches the gate's allowance at chi ~ 3e3 let n = 2000.5
        # certify omega = 5.6161 eV, whose |c - t|/(|c| + |t|) is 8.3e-7
        monkeypatch.setattr(kernels, "f_grid", None)
        with pytest.raises(ValueError, match="branch index must be an integer"):
            find_singularities(MEDIUM, GEOM_1CM, n)

    def test_bad_window(self):
        # the window ends at 10 omega0 = 50 eV; a 10 nm guide cuts off at 62 eV
        geom = WaveguideGeometry(beta=5.0)
        assert geom.omega_cutoff > 10.0 * MEDIUM.omega0
        with pytest.raises(CutoffError):
            find_singularities(MEDIUM, geom, 2000)

    def test_overflowing_denominator_raises_before_any_polish(self, monkeypatch):
        # 1 - rho >= 4e196 at every grid point below rho = 1, so den = (1-rho)^2
        # y^2 + rho^2 overflows there and f_grid would read L = -x, where at
        # rho = -1.87e201, y = 1.87e-298 a 60-digit L is +4.6e-101
        medium = GainMedium(omega0=5.0, omega_p_sq=-1e200, delta=1e-300)
        polished = []
        monkeypatch.setattr(waveguide, "brentq", lambda f, a, b: polished.append((a, b)))
        with pytest.raises(OverflowError, match="L's denominator does not fit in a double"):
            find_singularities(medium, GEOM_1CM, 2000)
        assert polished == []

    @pytest.mark.parametrize("beta", [5e199, 5e299, 5e303])
    def test_size_whose_k_squared_underflows_keeps_its_designs(self, beta):
        # from 2 beta/m = 1e162 nm a near-cutoff candidate's k^2 is below the
        # smallest double (and from 1e300 nm its G/k above the largest);
        # certified at k = 1, it hides neither of the two designs that fit
        # in doubles, and each has a finite alpha
        sols = find_singularities(MEDIUM, WaveguideGeometry(beta=beta), 2000)
        assert [s.ell for s in sols] == [1, 2]
        assert [s.omega for s in sols] == pytest.approx([4.044002981875, 5.615767303166],
                                                        rel=1e-11)
        assert all(s.residual < 1e-9 and 0 < s.alpha < math.inf for s in sols)

    def test_design_whose_alpha_overflows_raises(self):
        # n = 10^200 at 2 beta/m = 1e200 nm certifies at omega = 3.1e-196 eV
        # with G = 1.6e200 and k = 1.6e-198: alpha = G/k is no double, and
        # is reported, not returned as inf
        with pytest.raises(OverflowError, match="alpha = G/k"):
            find_singularities(MEDIUM, WaveguideGeometry(beta=5e199), 10**200)
        (sol,) = find_singularities(MEDIUM, WaveguideGeometry(beta=5e99), 10**100)
        assert sol.residual < 1e-9 and sol.alpha == pytest.approx(9.98e197, rel=1e-3)

    def test_near_cutoff_design_certifies_at_its_own_point(self):
        # at 2 beta/m = 1e14 nm the ell = 1 design has 1 - rho* = 9.8e-7 and
        # residual 9.8e-13 at its own (alpha k, zeta); realized at k = 1.3e-15
        # and mapped back, its residual read 8.9e-8 and it was lost
        sols = find_singularities(MEDIUM, WaveguideGeometry(beta=5e13), 2000)
        assert [s.ell for s in sols] == [1, 2, 3]
        assert sols[0].omega == pytest.approx(6.204175e-12, rel=1e-6)
        assert 1.0 - sols[0].rho_star == pytest.approx(9.83e-7, rel=1e-3)
        assert [s.omega for s in sols[1:]] == pytest.approx([4.044002981875, 5.615767303166],
                                                            rel=1e-11)
        assert all(s.residual < 1e-9 for s in sols)

    def test_every_candidate_is_certified_at_its_own_chi_zeta(self, monkeypatch):
        # the gate sees chi = G(n; rho, y), zeta = rho + i sigma at each
        # candidate's own map point, y = sigma/(1-rho), in wide guides too,
        # where k^2 underflows; each design reports the point of its gate
        points, gates = [], []
        alpha_k, residual = kernels.alpha_k, waveguide.m22_residual

        def spied_alpha_k(n, rho, y):
            points.append((rho, y, alpha_k(n, rho, y)))
            return points[-1][2]

        def spied_residual(chi, zeta):
            gates.append((chi, zeta))
            return residual(chi, zeta)

        monkeypatch.setattr(kernels, "alpha_k", spied_alpha_k)
        monkeypatch.setattr(waveguide, "m22_residual", spied_residual)
        designs = []
        for beta in (5e2, 5e6, 5e13, 5e199):
            designs += find_singularities(MEDIUM, WaveguideGeometry(beta=beta), 2000)
        assert len(gates) == len(points) >= 11
        assert [(chi, zeta.real, zeta.imag / (1.0 - zeta.real)) for chi, zeta in gates] == \
            [(g, rho, y) for rho, y, g in points]
        assert {complex(s.rho_star, s.sigma_star) for s in designs} <= {z for _, z in gates}

    # the Table 1 designs (2 beta/m = 1 um, 1 mm, 1 cm at n = 10000), then
    # ell = 1 designs whose map sigma and (1-rho) (sigma/(1-rho)) differ, so
    # that the residual at the one point differs from the one at the other:
    # problem 164 of the seed-1 design_sweep deck and README-medium guides
    # of 2 beta/m = 10^11.5 and 10^15.5 nm
    @pytest.mark.parametrize("medium,two_beta,n", [
        *((MEDIUM, tb, 10000) for tb in (1e3, 1e6, 1e7)),
        (GainMedium(4.553939056397166, -0.03806571255549165, 1.2542640570918786),
         16243.730524575636, 21),
        (MEDIUM, 10 ** 11.5, 2000),
        (MEDIUM, 10 ** 15.5, 10000),
    ])
    def test_design_is_certified_at_the_point_it_reports(self, medium, two_beta, n):
        # the residual is the gate's at (G, rho* + i sigma*), bit for bit
        sols = find_singularities(medium, WaveguideGeometry(beta=two_beta / 2.0), n)
        assert sols
        for s in sols:
            g = kernels.alpha_k(n, s.rho_star, s.sigma_star / (1.0 - s.rho_star))
            assert m22_residual(g, complex(s.rho_star, s.sigma_star)) == s.residual, s.ell

    # the problems behind the 17 designs of Tables 1 (2 beta/m = 1 um, 1 mm,
    # 1 cm at n = 10000) and 2 (1 cm at n = 2000...5000), where n = 2000 at
    # 1 cm is also the README's design example
    @pytest.mark.parametrize("beta,n", [(tb / 2.0, 10000) for tb in (1e3, 1e6, 1e7)]
                             + [(5e6, n) for n in (2000, 3000, 4000, 5000)])
    def test_designs_do_not_depend_on_grid_density(self, beta, n):
        geom = WaveguideGeometry(beta=beta)
        ref = find_singularities(MEDIUM, geom, n)
        assert len(ref) >= 2
        for points in (5000, 10000, 40000):
            sols = find_singularities(MEDIUM, geom, n, grid_points=points)
            assert [s.ell for s in sols] == [s.ell for s in ref]
            for s, r in zip(sols, ref):
                assert s.omega == pytest.approx(r.omega, rel=1e-13, abs=0)
                assert s.alpha == pytest.approx(r.alpha, rel=1e-13, abs=0)


def _one_array_grid(medium, geom, n, points):
    """u, rho and the locus function of find_singularities' grid, each
    computed on the whole grid at once: L by one f_grid call where rho < 1,
    and elsewhere F in the oracle's form for rho >= 1."""
    Om = geom.omega_cutoff
    us = np.linspace(math.log(Om * (1 + 1e-9) - Om), math.log(10.0 * medium.omega0 - Om), points)
    rho, sigma, _ = _rho_sigma(medium, Om, Om + np.exp(us))
    y = sigma / (1.0 - rho)
    below = rho < 1.0
    locus = np.empty_like(rho)
    locus[below] = kernels.f_grid(n, rho[below], y[below])
    with np.errstate(over="ignore"):
        locus[~below] = f_grid_both_sides(n, -1, rho[~below], y[~below])
    return us, rho, locus


class TestDesignGridBlocks:
    """find_singularities evaluates its grid waveguide.BLOCK points at a time."""

    @staticmethod
    def _grid_of(monkeypatch, *problem, **kwargs):
        """The designs, the (u, sign) grid find_singularities brackets its
        roots on, and L as kernels.f_grid returned it, call after call."""
        seen, returned = [], []
        grid_roots, f_grid = waveguide._grid_roots, kernels.f_grid

        def spy(polish, f, xs, signs, *args):
            seen.append((xs, signs))
            return grid_roots(polish, f, xs, signs, *args)

        def returning(*args):
            returned.append(f_grid(*args))
            return returned[-1]
        with monkeypatch.context() as m:
            m.setattr(waveguide, "_grid_roots", spy)
            m.setattr(kernels, "f_grid", returning)
            sols = find_singularities(*problem, **kwargs)
        return sols, seen[0], np.concatenate(returned)

    # the README design, Table 1's 1 um problem, and a 1 um problem at n = 2000
    @pytest.mark.parametrize("points", [4095, 4096, 4097, 8193, 20000])
    @pytest.mark.parametrize("beta,n", [(5e6, 2000), (500.0, 10000), (500.0, 2000)])
    def test_grid_and_designs_keep_the_doubles_of_the_one_array_form(
            self, monkeypatch, beta, n, points):
        geom = WaveguideGeometry(beta=beta)
        sols, (us, signs), f = self._grid_of(monkeypatch, MEDIUM, geom, n, grid_points=points)
        ref_us, rho, ref_g = _one_array_grid(MEDIUM, geom, n, points)
        # f_grid returns L block by block, at the points below rho = 1 only
        below = rho < 1.0
        assert _bits(us) == _bits(ref_us) and _bits(f) == _bits(ref_g[below])
        # at rho >= 1 the oracle's F is negative, and so is L (lemma 2), the
        # sign the grid takes there without evaluating either
        assert (ref_g[~below] < 0.0).all()
        # one byte per point holds the sign of the locus function
        assert signs.itemsize == 1 and signs.tolist() == np.sign(ref_g).tolist()
        # rho(omega) crosses 1 inside a block, which is then evaluated in part
        crossing = np.flatnonzero(np.diff(below))
        assert any(i % waveguide.BLOCK != waveguide.BLOCK - 1 for i in crossing)
        monkeypatch.setattr(waveguide, "BLOCK", points)  # one block: the one-array form
        assert sols == find_singularities(MEDIUM, geom, n, grid_points=points)
        assert len(sols) >= 2

    def test_f_grid_is_called_once_per_block_below_rho_1(self, monkeypatch):
        # the README problem: rho > 1 in the first block (no call), < 1 from
        # the third, and both in the second, whose points below 1 are evaluated
        sizes, f_grid = [], kernels.f_grid
        rho = _one_array_grid(MEDIUM, GEOM_1CM, 2000, 20000)[1]

        def counted(n, rho, y):
            sizes.append(len(rho))
            return f_grid(n, rho, y)
        monkeypatch.setattr(kernels, "f_grid", counted)
        find_singularities(MEDIUM, GEOM_1CM, 2000)
        below = np.count_nonzero(rho[waveguide.BLOCK:2 * waveguide.BLOCK] < 1.0)
        assert 0 < below < waveguide.BLOCK and (rho[:waveguide.BLOCK] >= 1.0).all()
        assert sizes == [below, *[waveguide.BLOCK] * 2, 20000 - 4 * waveguide.BLOCK]

    def test_no_kernel_sees_rho_at_or_above_1(self, monkeypatch):
        # every kernel takes rho < 1: the grid evaluates L only there, and the
        # polish reads L's sign -1 at rho >= 1 without evaluating it, also in
        # the bracket of the README geometry at n = 1 that straddles rho = 1
        largest = {}  # kernel -> the largest rho it was given
        for name in ("f_grid", "f_scalar", "alpha_k"):
            def spy(n, rho, y, kernel=getattr(kernels, name), name=name):
                largest[name] = max(largest.get(name, -math.inf), np.max(rho))
                return kernel(n, rho, y)
            monkeypatch.setattr(kernels, name, spy)
        brackets, polish = [], waveguide.brentq

        def spied_polish(f, a, b):
            brackets.append((a, b))
            return polish(f, a, b)
        monkeypatch.setattr(waveguide, "brentq", spied_polish)
        one_um = WaveguideGeometry(beta=500.0)
        for geom, n in ((GEOM_1CM, 2000), (one_um, 10000), (one_um, 2000), (GEOM_1CM, 1)):
            brackets.clear()
            assert find_singularities(MEDIUM, geom, n)
        assert sorted(largest) == ["alpha_k", "f_grid", "f_scalar"]
        assert max(largest.values()) < 1.0
        # the brackets of the last problem: one has its lower end at rho >= 1
        rho_ends = [[_rho_sigma(MEDIUM, OM_1CM, OM_1CM + math.exp(u))[0] for u in b]
                    for b in brackets]
        assert any(lo >= 1.0 > hi for lo, hi in rho_ends)

    def test_overflow_in_the_last_block_raises_before_any_polish(self, monkeypatch):
        # (omega^2 - omega0^2)^2 overflows only in the grid's top 0.4 %, past
        # omega = 1.2e77 eV; L changes sign at every point of the other blocks,
        # so a polish before the last block is evaluated would show
        medium = GainMedium(omega0=3e76, omega_p_sq=-0.04, delta=1.25)
        blocks, polished = [], []

        def alternating(n, rho, y):
            blocks.append(len(rho))
            return np.resize([-1.0, 1.0], rho.shape)

        def polish(f, a, b):
            polished.append((a, b))
            return a
        monkeypatch.setattr(kernels, "f_grid", alternating)
        monkeypatch.setattr(waveguide, "brentq", polish)
        with pytest.raises(OverflowError, match="does not fit in a double"):
            find_singularities(medium, GEOM_1CM, 2000)
        assert blocks == [waveguide.BLOCK] * 4 and polished == []

    def test_grid_temporaries_are_bounded_by_the_block(self, monkeypatch):
        # what the grid's evaluation leaves as its traced peak, beyond the u
        # grid and L's signs themselves, is within 1.2x at 200,000 points of
        # its value at 20,000; evaluated in one piece it grew about tenfold
        def peak(points):
            def at_brackets(polish, f, xs, signs, *args):
                peaks.append(tracemalloc.get_traced_memory()[1] - xs.nbytes - signs.nbytes)
                return []
            peaks = []
            monkeypatch.setattr(waveguide, "_grid_roots", at_brackets)
            tracemalloc.start()
            try:
                find_singularities(MEDIUM, GEOM_1CM, 2000, grid_points=points)
            finally:
                tracemalloc.stop()
            return peaks[0]
        find_singularities(MEDIUM, GEOM_1CM, 2000)
        assert peak(200_000) <= 1.2 * peak(20_000)

    def test_whole_call_peak_grows_by_at_most_ten_bytes_per_point(self):
        # the u grid (8 bytes a point) and L's signs (1 byte) are all that
        # grows with the grid, bracketing included; an 8-byte L and four
        # whole-grid masks grew it by about 18.5 bytes a point
        def peak(points):
            tracemalloc.start()
            try:
                find_singularities(MEDIUM, GEOM_1CM, 2000, grid_points=points)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        find_singularities(MEDIUM, GEOM_1CM, 2000)
        assert peak(200_000) - peak(20_000) <= 10 * 180_000


def _oracle_gain(sol, ratio):
    """log10(|T|^2+|R|^2) at one ratio from the plane-wave matching oracle."""
    om = ratio * sol.omega
    _, m12, _, m22 = oracle_transfer_matrix(sol.alpha, coupling_of(MEDIUM, om), _expr_k(OM_1CM, om))
    return math.log10((1 + abs(m12) ** 2) / abs(m22) ** 2)


def _mp_gain(mp, sol, geom, omega):
    """log10(|T|^2 + |R|^2) at the double omega in mpmath, from the textbook
    entries; the doubles alpha, Omega and the medium are taken as exact."""
    om, hc = mp.mpf(omega), mp.mpf(HBAR_C_EV_NM)
    k = om / hc * mp.sqrt(1 - mp.mpf(geom.omega_cutoff) ** 2 / om**2)
    eps = 1 - mp.mpf(MEDIUM.omega_p_sq) / (om**2 - mp.mpf(MEDIUM.omega0) ** 2
                                          + 2j * mp.mpf(MEDIUM.delta) * om)
    w = mp.sqrt(1 - (om / hc) ** 2 * (1 - eps) / k**2)  # either root: M is even in w
    x = 2 * mp.mpf(sol.alpha) * k * w
    sr = mp.sin(x) / (2 * w)
    m12 = 1j * (w * w - 1) * sr
    m22 = mp.exp(2j * mp.mpf(sol.alpha) * k) * (mp.cos(x) - 1j * (1 + w * w) * sr)
    return mp.log10((1 + abs(m12) ** 2) / abs(m22) ** 2)


class TestGainScan:
    def test_returns_ratio_value_rows(self):
        s2 = find_singularities(MEDIUM, GEOM_1CM, 10000)[1]
        ratios = [1 - 1e-4, 1.0, 1 + 1e-4]
        scan = gain_scan(s2, MEDIUM, GEOM_1CM, ratios)
        assert isinstance(scan, np.ndarray)
        assert scan.shape == (3, 2) and scan.dtype == np.float64
        assert list(scan[:, 0]) == ratios
        assert len(scan) == 3 and list(dict(scan)) == ratios
        assert gain_scan(s2, MEDIUM, GEOM_1CM, []).shape == (0, 2)

    def test_peak_grows_only_by_the_rows(self):
        # omega is formed block by block: beyond its 16-byte rows the scan's
        # traced peak does not grow with the grid (a whole-grid omega and
        # its range masks added 11 bytes a point)
        s2 = find_singularities(MEDIUM, GEOM_1CM, 10000)[1]

        def peak(points):
            ratios = np.linspace(1 - 1e-4, 1 + 1e-4, points)
            tracemalloc.start()
            try:
                gain_scan(s2, MEDIUM, GEOM_1CM, ratios)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        peak(20_001)
        assert peak(200_001) - peak(20_001) <= 17 * 180_000

    def test_rows_keep_the_doubles_of_the_expression_form(self):
        # gain_scan works block by block; each row is the double the
        # expressions give, sign bits included, across block edges and at the
        # capped rows, which the frozen CAPPED_DESIGN holds whatever omega
        # the solver returns
        def assert_rows_keep_the_doubles(sol, geom):
            span = min(5e-4, 0.5 * (sol.omega / geom.omega_cutoff - 1))
            ratios = np.linspace(1 - span, 1 + span, 2 * waveguide.BLOCK + 1)
            scan = gain_scan(sol, MEDIUM, geom, ratios)
            want = _expr_scan_values(sol, MEDIUM, geom, ratios)
            assert _bits(scan[:, 0]) == _bits(ratios)
            assert _bits(scan[:, 1]) == _bits(want)
            return want

        designs = 0
        for geom in (WaveguideGeometry(beta=500.0), WaveguideGeometry(beta=5e5), GEOM_1CM):
            for n in (2, 2000, 10000):
                for sol in find_singularities(MEDIUM, geom, n):
                    assert_rows_keep_the_doubles(sol, geom)
                    designs += 1
        assert designs >= 20
        assert (assert_rows_keep_the_doubles(CAPPED_DESIGN, GEOM_1CM) == GAIN_CAP).any()

    def test_blocks_match_pointwise_scans(self):
        # long grids are evaluated in blocks; rows at block edges must match
        s2 = find_singularities(MEDIUM, GEOM_1CM, 10000)[1]
        ratios = np.linspace(1 - 1e-3, 1 + 1e-3, 5001)
        scan = gain_scan(s2, MEDIUM, GEOM_1CM, ratios)
        assert list(scan[:, 0]) == list(ratios)
        for i in (0, 1, 2047, 2048, 2049, 4095, 4096, 5000):
            (row,) = gain_scan(s2, MEDIUM, GEOM_1CM, ratios[i:i + 1])
            assert row[1] == pytest.approx(scan[i, 1], rel=1e-12)

    def test_matches_plane_wave_oracle(self):
        # README scan design: n = 2000, ell = 2, 2 beta / m = 1 cm
        sol = find_singularities(MEDIUM, GEOM_1CM, 2000)[1]
        ratios = np.linspace(1 - 5e-4, 1 + 5e-4, 101)
        ratios = ratios[np.abs(ratios - 1) >= 1e-5]
        for ratio, value in gain_scan(sol, MEDIUM, GEOM_1CM, ratios):
            assert value == pytest.approx(_oracle_gain(sol, ratio), rel=1e-6)

    def test_cap_applies_to_unscaled_m22(self, monkeypatch):
        # |m22| = e^b |m~22| below 1e-300 is capped: an exact zero of m~22 and
        # 1e-305 e^1; 1e-305 e^100 ~ 3e-262 is kept
        s2 = find_singularities(MEDIUM, GEOM_1CM, 10000)[1]
        kernel = waveguide.scaled_moduli

        def tiny_m22(chi, zeta):
            a12, a22, b = kernel(chi, zeta)
            a22, b = a22.copy(), b.copy()
            a22[:] = [0.0, 1e-305, 1e-305]
            b[:] = [1.0, 1.0, 100.0]
            return a12, a22, b

        monkeypatch.setattr(waveguide, "scaled_moduli", tiny_m22)
        scan = gain_scan(s2, MEDIUM, GEOM_1CM, [0.999, 0.9995, 1.001])
        assert list(scan[:2, 1]) == [GAIN_CAP, GAIN_CAP]
        assert 600 < scan[2, 1] < 700

    @pytest.mark.parametrize("bad", [1e-9, math.nan, math.inf])
    def test_bad_ratio_raises_before_evaluating(self, monkeypatch, bad):
        s2 = find_singularities(MEDIUM, GEOM_1CM, 10000)[1]

        def not_called(*args):
            raise AssertionError("transfer matrix evaluated")

        monkeypatch.setattr(waveguide, "scaled_moduli", not_called)
        with pytest.raises(CutoffError):
            gain_scan(s2, MEDIUM, GEOM_1CM, [1.0, bad, 1.1])

    def test_ratio_one_is_the_certified_point(self, monkeypatch):
        # zeta = z/k^2 is the locus point rho + i sigma of omega, so at
        # ratio 1 the scan evaluates the design's own (rho_star, sigma_star)
        kernel, seen = waveguide.scaled_moduli, []

        def recorded(chi, zeta):
            seen.append((chi.copy(), zeta.copy()))
            return kernel(chi, zeta)

        monkeypatch.setattr(waveguide, "scaled_moduli", recorded)
        designs = 0
        for geom in (WaveguideGeometry(beta=500.0), WaveguideGeometry(beta=5e5), GEOM_1CM):
            for n in (2, 2000, 10000):
                for sol in find_singularities(MEDIUM, geom, n):
                    seen.clear()
                    gain_scan(sol, MEDIUM, geom, [1 - 1e-4, 1.0, 1 + 1e-4])
                    ((chi, zeta),) = seen
                    assert zeta[1] == complex(sol.rho_star, sol.sigma_star)
                    assert chi[1] == sol.alpha * sol.k
                    designs += 1
        assert designs >= 10

    def test_rows_near_a_design_are_no_less_accurate(self):
        # against a 50-digit evaluation at the same double omega, the scan's
        # worst row is within 1 % of the (alpha, z, k) path's worst row; both
        # err by the closed form's rounding of x = 2 chi w, amplified where
        # m22 nearly cancels, which neither path can remove.  The rows are
        # those around each of the 41 doubles omega_s (1 + j 2^-52), |j| <=
        # 20, near the design: at a single omega_s either path can be the
        # worse one, so the claim holds for the neighbourhood, not one double
        mpmath = pytest.importorskip("mpmath")
        offsets = [s * d for d in (1e-5, 3e-5, 1e-4, 3e-4, 1e-3) for s in (-1, 1)]
        ratios = 1.0 + np.array(offsets)
        for geom, n, ell in ((GEOM_1CM, 2000, 2), (WaveguideGeometry(beta=5e5), 5000, 2),
                             (WaveguideGeometry(beta=500.0), 3000, 1)):
            design = find_singularities(MEDIUM, geom, n)[ell - 1]
            err_old = err_new = 0.0
            for j in range(-20, 21):
                sol = dataclasses.replace(design, omega=design.omega * (1.0 + j * 2.0 ** -52))
                om = ratios * sol.omega
                _, m12, m22, b = alpha_z_k_transfer(sol.alpha, coupling_of(MEDIUM, om),
                                                    _expr_k(geom.omega_cutoff, om))
                old = np.log10(np.exp(-2 * b) + np.abs(m12) ** 2) - 2 * np.log10(np.abs(m22))
                new = gain_scan(sol, MEDIUM, geom, ratios)[:, 1]
                with mpmath.workdps(50):
                    ref = [_mp_gain(mpmath.mp, sol, geom, w) for w in om]
                    err_old = max(err_old, *(float(abs(v - r) / abs(r)) for v, r in zip(old, ref)))
                    err_new = max(err_new, *(float(abs(v - r) / abs(r)) for v, r in zip(new, ref)))
            assert err_new <= 1.01 * err_old, (geom, n, ell, err_new, err_old)

    def test_ell1_design_scans_to_near_cutoff(self):
        # the matrix entries of this design grow past a double near cutoff
        geom = WaveguideGeometry(beta=5e5, m=1)  # 2 beta / m = 1 mm
        s1 = find_singularities(MEDIUM, geom, 10000)[0]
        span = 0.9 * (s1.omega / geom.omega_cutoff - 1)
        scan = gain_scan(s1, MEDIUM, geom, np.linspace(1 - span, 1 + span, 201))
        assert np.isfinite(scan).all()
        assert scan[100, 0] == pytest.approx(1, abs=1e-12)
        assert scan[100, 1] >= 15 and scan[100, 1] == scan[:, 1].max()

    def test_resonance_dominates_neighbors(self):
        sols = find_singularities(MEDIUM, GEOM_1CM, 10000)
        s2 = sols[1]
        scan = dict(gain_scan(s2, MEDIUM, GEOM_1CM,
                              [1 - 1e-4, 1.0, 1 + 1e-4]))
        assert scan[1.0] > 15
        assert scan[1 - 1e-4] < scan[1.0]
        assert scan[1 + 1e-4] < scan[1.0]

    def test_far_detuned_is_modest(self):
        s2 = find_singularities(MEDIUM, GEOM_1CM, 10000)[1]
        scan = gain_scan(s2, MEDIUM, GEOM_1CM, [0.9, 1.1])
        for _, lg in scan:
            assert lg < 15

    def test_subcutoff_ratio_raises(self):
        s2 = find_singularities(MEDIUM, GEOM_1CM, 10000)[1]
        with pytest.raises(CutoffError):
            gain_scan(s2, MEDIUM, GEOM_1CM, [1e-9])
