import math

import numpy as np
import pytest

from specsing.constants import HBAR_C_EV_NM
from specsing.waveguide import (
    CutoffError,
    GainMedium,
    WaveguideGeometry,
    coupling_of,
    find_singularities,
    gain_scan,
    k_of,
    permittivity,
    rho_sigma_of,
)

MEDIUM = GainMedium(omega0=5.0, omega_p_sq=-0.04, delta=1.25)
GEOM_1CM = WaveguideGeometry(beta=5e6, m=1)  # 2 beta / m = 1 cm


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
        with pytest.raises(CutoffError):
            k_of(GEOM_1CM, GEOM_1CM.omega_cutoff)
        with pytest.raises(CutoffError):
            rho_sigma_of(MEDIUM, GEOM_1CM, GEOM_1CM.omega_cutoff * 0.5)

    def test_k_just_above_cutoff_is_accurate(self):
        Om = GEOM_1CM.omega_cutoff
        om = Om * (1 + 1e-12)
        k = k_of(GEOM_1CM, om)
        assert k == pytest.approx((om / HBAR_C_EV_NM) * math.sqrt(2e-12),
                                  rel=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            WaveguideGeometry(beta=-1.0)
        with pytest.raises(ValueError):
            WaveguideGeometry(beta=1.0, m=0)


class TestRhoSigma:
    @pytest.mark.parametrize("omega", [0.5, 2.0, 4.9, 5.1, 40.0])
    def test_matches_coupling_over_k_squared(self, omega):
        rho, sigma = rho_sigma_of(MEDIUM, GEOM_1CM, omega)
        z = coupling_of(MEDIUM, GEOM_1CM, omega)
        k = k_of(GEOM_1CM, omega)
        u = z / k**2
        assert rho == pytest.approx(u.real, rel=1e-14)
        assert sigma == pytest.approx(u.imag, rel=1e-14)

    def test_rho_changes_sign_at_resonance(self):
        r_lo, _ = rho_sigma_of(MEDIUM, GEOM_1CM, 4.999)
        r_hi, _ = rho_sigma_of(MEDIUM, GEOM_1CM, 5.001)
        assert r_lo > 0 > r_hi

    def test_sigma_positive_for_gain(self):
        for om in (1.0, 5.0, 9.0):
            _, sigma = rho_sigma_of(MEDIUM, GEOM_1CM, om)
            assert sigma > 0

    def test_array_matches_floats(self):
        omegas = np.array([0.5, 2.0, 4.999, 5.001, 40.0])
        rho, sigma = rho_sigma_of(MEDIUM, GEOM_1CM, omegas)
        assert [(r, s) for r, s in zip(rho, sigma)] == \
            [rho_sigma_of(MEDIUM, GEOM_1CM, float(om)) for om in omegas]

    def test_subcutoff_raises(self):
        Om = GEOM_1CM.omega_cutoff
        with pytest.raises(CutoffError):
            rho_sigma_of(MEDIUM, GEOM_1CM, Om * 0.5)
        with pytest.raises(CutoffError):
            rho_sigma_of(MEDIUM, GEOM_1CM, np.array([Om * 2, Om * 0.5, 1.0]))


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
            lambda om: rho_sigma_of(MEDIUM, GEOM_1CM, om)[0] - s2.rho_star,
            2.0, 4.0, rtol=1e-15)
        assert om == pytest.approx(s2.omega, rel=1e-6)
        _, sig = rho_sigma_of(MEDIUM, GEOM_1CM, om)
        assert sig == pytest.approx(s2.sigma_star, rel=1e-6)

    def test_bad_branch_index(self):
        with pytest.raises(ValueError):
            find_singularities(MEDIUM, GEOM_1CM, 0)

    def test_bad_window(self):
        Om = GEOM_1CM.omega_cutoff
        with pytest.raises(CutoffError):
            find_singularities(MEDIUM, GEOM_1CM, 2000,
                               omega_window=(Om * 0.5, 10.0))


class TestGainScan:
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
