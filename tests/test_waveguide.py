import dataclasses
import math

import numpy as np
import pytest

from specsing import waveguide
from specsing.barrier import BarrierSpec, scaled_transfer
from specsing.constants import HBAR_C_EV_NM, principal_sqrt_upper
from specsing.waveguide import (
    GAIN_CAP,
    M22_FLOOR,
    CutoffError,
    GainMedium,
    WaveguideGeometry,
    _k,
    _rho_sigma,
    find_singularities,
    gain_scan,
    permittivity,
)

from oracles import coupling_of, oracle_transfer_matrix

MEDIUM = GainMedium(omega0=5.0, omega_p_sq=-0.04, delta=1.25)
GEOM_1CM = WaveguideGeometry(beta=5e6, m=1)  # 2 beta / m = 1 cm
OM_1CM = GEOM_1CM.omega_cutoff


def _bits(a):
    """The bits of each double, so -0.0 != 0.0."""
    return np.asarray(a, dtype=float).view(np.uint64).tolist()


# The frequency-scan arithmetic as plain expressions on fresh arrays;
# gain_scan forms the same products, sums and quotients in the same order,
# in place.
def _expr_k(Om, omega):
    u = (1 - Om / omega) * (1 + Om / omega)
    return (omega / HBAR_C_EV_NM) * (np.sqrt(u) if isinstance(u, np.ndarray) else math.sqrt(u))


def _expr_rho_sigma(medium, Om, omega):
    d2 = omega**2 - medium.omega0**2
    den = (d2 * d2 + 4.0 * omega**2 * medium.delta**2) * (1 - Om**2 / omega**2)
    return medium.omega_p_sq * d2 / den, -2.0 * omega * medium.omega_p_sq * medium.delta / den


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
    rho, sigma = _expr_rho_sigma(medium, geom.omega_cutoff, om)
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
        Om = GEOM_1CM.omega_cutoff
        om = Om * (1 + 1e-12)
        k = _k(Om, om)
        assert k == pytest.approx((om / HBAR_C_EV_NM) * math.sqrt(2e-12),
                                  rel=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            WaveguideGeometry(beta=-1.0)
        with pytest.raises(ValueError):
            WaveguideGeometry(beta=1.0, m=0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_input(self, bad):
        with pytest.raises(ValueError):
            WaveguideGeometry(beta=bad)
        for field in ("omega0", "omega_p_sq", "delta"):
            with pytest.raises(ValueError):
                GainMedium(**{"omega0": 5.0, "omega_p_sq": -0.04, "delta": 1.25,
                              field: bad})

    def test_free_medium_rejected(self):
        # omega_p^2 = 0 puts every omega at (rho, sigma) = (0, 0), where F is 0/0
        with pytest.raises(ValueError):
            GainMedium(omega0=5.0, omega_p_sq=0.0, delta=1.25)

    def test_k_of_array_matches_floats(self):
        omegas = np.array([0.5, 2.0, 5.0, 40.0])
        assert list(_k(OM_1CM, omegas)) == [_k(OM_1CM, float(om)) for om in omegas]


class TestRhoSigma:
    @pytest.mark.parametrize("omega", [0.5, 2.0, 4.9, 5.1, 40.0])
    def test_matches_coupling_over_k_squared(self, omega):
        rho, sigma = _rho_sigma(MEDIUM, OM_1CM, omega)
        z = coupling_of(MEDIUM, omega)
        k = _k(OM_1CM, omega)
        u = z / k**2
        assert rho == pytest.approx(u.real, rel=1e-14)
        assert sigma == pytest.approx(u.imag, rel=1e-14)

    def test_rho_changes_sign_at_resonance(self):
        r_lo, _ = _rho_sigma(MEDIUM, OM_1CM, 4.999)
        r_hi, _ = _rho_sigma(MEDIUM, OM_1CM, 5.001)
        assert r_lo > 0 > r_hi

    def test_sigma_positive_for_gain(self):
        for om in (1.0, 5.0, 9.0):
            _, sigma = _rho_sigma(MEDIUM, OM_1CM, om)
            assert sigma > 0

    def test_array_matches_floats(self):
        omegas = np.array([0.5, 2.0, 4.999, 5.001, 40.0])
        rho, sigma = _rho_sigma(MEDIUM, OM_1CM, omegas)
        assert [(r, s) for r, s in zip(rho, sigma)] == \
            [_rho_sigma(MEDIUM, OM_1CM, float(om)) for om in omegas]

    def test_floats_keep_the_doubles_of_the_expression_form(self):
        # the float path serves the design solver's polish and certification
        rng = np.random.default_rng(21)
        omegas = OM_1CM * (1 + 10 ** rng.uniform(-9, 1.5, 2000))
        omegas[:200] = 5.0 + rng.uniform(-1e-3, 1e-3, 200)  # rho changes sign here
        for om in omegas.tolist():
            assert _bits(_rho_sigma(MEDIUM, OM_1CM, om)) == _bits(_expr_rho_sigma(MEDIUM, OM_1CM, om))
            assert _bits(_k(OM_1CM, om)) == _bits(_expr_k(OM_1CM, om))


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
        _, sig = _rho_sigma(MEDIUM, OM_1CM, om)
        assert sig == pytest.approx(s2.sigma_star, rel=1e-6)

    def test_bad_branch_index(self):
        with pytest.raises(ValueError):
            find_singularities(MEDIUM, GEOM_1CM, 0)

    def test_bad_window(self):
        # the window ends at 10 omega0 = 50 eV; a 10 nm guide cuts off at 62 eV
        geom = WaveguideGeometry(beta=5.0)
        assert geom.omega_cutoff > 10.0 * MEDIUM.omega0
        with pytest.raises(CutoffError):
            find_singularities(MEDIUM, geom, 2000)

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


def _oracle_gain(sol, ratio):
    """log10(|T|^2+|R|^2) at one ratio from the plane-wave matching oracle."""
    om = ratio * sol.omega
    m = oracle_transfer_matrix(BarrierSpec(alpha=sol.alpha, z=coupling_of(MEDIUM, om)),
                               _k(OM_1CM, om))
    return math.log10((1 + abs(m.m12) ** 2) / abs(m.m22) ** 2)


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

    def test_rows_keep_the_doubles_of_the_expression_form(self):
        # gain_scan works in place, block by block; each row is the double the
        # expressions give, sign bits included, across block edges and at the
        # capped rows
        designs = capped = 0
        for geom in (WaveguideGeometry(beta=500.0), WaveguideGeometry(beta=5e5), GEOM_1CM):
            for n in (2, 2000, 10000):
                for sol in find_singularities(MEDIUM, geom, n):
                    span = min(5e-4, 0.5 * (sol.omega / geom.omega_cutoff - 1))
                    ratios = np.linspace(1 - span, 1 + span, 2 * waveguide._SCAN_BLOCK + 1)
                    scan = gain_scan(sol, MEDIUM, geom, ratios)
                    want = _expr_scan_values(sol, MEDIUM, geom, ratios)
                    assert _bits(scan[:, 0]) == _bits(ratios)
                    assert _bits(scan[:, 1]) == _bits(want)
                    designs += 1
                    capped += int((want == GAIN_CAP).sum())
        assert designs >= 20 and capped >= 1

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
        # m22 nearly cancels, which neither path can remove
        mpmath = pytest.importorskip("mpmath")
        offsets = [s * d for d in (1e-5, 3e-5, 1e-4, 3e-4, 1e-3) for s in (-1, 1)]
        for geom, n, ell in ((GEOM_1CM, 2000, 2), (WaveguideGeometry(beta=5e5), 5000, 2),
                             (WaveguideGeometry(beta=500.0), 3000, 1)):
            sol = find_singularities(MEDIUM, geom, n)[ell - 1]
            ratios = 1.0 + np.array(offsets)
            om = ratios * sol.omega
            _, m12, m22, b = scaled_transfer(sol.alpha, coupling_of(MEDIUM, om),
                                             _k(geom.omega_cutoff, om))
            old = np.log10(np.exp(-2 * b) + np.abs(m12) ** 2) - 2 * np.log10(np.abs(m22))
            new = gain_scan(sol, MEDIUM, geom, ratios)[:, 1]
            with mpmath.workdps(50):
                ref = [_mp_gain(mpmath.mp, sol, geom, w) for w in om]
                err_old = max(float(abs(v - r) / abs(r)) for v, r in zip(old, ref))
                err_new = max(float(abs(v - r) / abs(r)) for v, r in zip(new, ref))
            assert err_new <= 1.01 * err_old

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
