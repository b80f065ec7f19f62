import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specsing.barrier import (
    BarrierSpec,
    SpectralSingularityError,
    amplitudes,
    f_func,
    m22_residual,
    oracle_transfer_matrix,
    scaled_transfer,
    transfer_matrix,
    wavefunction_profile,
)

NON_FINITE = (math.inf, -math.inf, math.nan)


class TestFFunc:
    def test_chi_zero(self):
        # (1+2)^2 - (1-2)^2 = 8
        assert f_func(2, 0) == pytest.approx(8)

    def test_w_one_kills_second_term(self):
        assert f_func(1, 0.7) == pytest.approx(4 * cmath.exp(-1.4j))

    def test_w_zero_vanishes_identically(self):
        for chi in (0.1, 1.0, 7.3):
            assert f_func(0, chi) == pytest.approx(0)


class TestTransferMatrix:
    def test_free_case_is_identity(self):
        m = transfer_matrix(BarrierSpec(alpha=1.3, z=0), 2.0)
        assert m.m11 == pytest.approx(1)
        assert m.m22 == pytest.approx(1)
        assert abs(m.m12) < 1e-15 and abs(m.m21) < 1e-15

    def test_removable_point_analytic_limit(self):
        # z = k^2 makes w = 0; entries must hit the analytic limits
        alpha, k = 0.8, 1.5
        chi = alpha * k
        m = transfer_matrix(BarrierSpec(alpha=alpha, z=k * k), k)
        assert m.m11 == pytest.approx(cmath.exp(-2j * chi) * (1 + 1j * chi),
                                      rel=1e-12)
        assert m.m22 == pytest.approx(cmath.exp(2j * chi) * (1 - 1j * chi),
                                      rel=1e-12)
        assert m.m12 == pytest.approx(-1j * chi, rel=1e-12)

    def test_near_removable_point_is_continuous(self):
        alpha, k = 0.8, 1.5
        m0 = transfer_matrix(BarrierSpec(alpha=alpha, z=k * k), k)
        m1 = transfer_matrix(BarrierSpec(alpha=alpha, z=k * k * (1 + 1e-9)), k)
        assert m1.m22 == pytest.approx(m0.m22, rel=1e-7)

    @pytest.mark.parametrize("z,alpha,k", [
        (0.5 + 0.3j, 1.0, 1.0),
        (-2.0 + 0.1j, 0.7, 2.5),
        (3.0 - 0.8j, 2.0, 1.3),
        (0.9, 5.0, 1.0),
    ])
    def test_unit_determinant(self, z, alpha, k):
        m = transfer_matrix(BarrierSpec(alpha=alpha, z=z), k)
        assert abs(m.det - 1) < 1e-12

    @pytest.mark.parametrize("z,alpha,k", [
        (0.5 + 0.3j, 1.0, 1.0),
        (-2.0 + 0.1j, 0.7, 2.5),
        (3.0 - 0.8j, 2.0, 1.3),
        (1.2 - 0.4j, 0.3, 0.9),
    ])
    def test_matches_plane_wave_oracle(self, z, alpha, k):
        spec = BarrierSpec(alpha=alpha, z=z)
        m = transfer_matrix(spec, k)
        o = oracle_transfer_matrix(spec, k)
        for name in ("m11", "m12", "m21", "m22"):
            a, b = getattr(m, name), getattr(o, name)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))

    def test_real_z_unitarity(self):
        # real potential: |T|^2 + |R|^2 = 1
        for z in (0.4, -1.7, 2.9):
            amp = amplitudes(transfer_matrix(BarrierSpec(alpha=1.1, z=z), 1.3))
            assert abs(amp.t) ** 2 + abs(amp.r_left) ** 2 == pytest.approx(1, abs=1e-12)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            transfer_matrix(BarrierSpec(alpha=1, z=1j), 0.0)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            BarrierSpec(alpha=0, z=1j)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_rejects_non_finite_barrier(self, bad):
        with pytest.raises(ValueError):
            BarrierSpec(alpha=bad, z=1j)
        with pytest.raises(ValueError):
            BarrierSpec(alpha=1.0, z=complex(bad, 1.0))
        with pytest.raises(ValueError):
            BarrierSpec(alpha=1.0, z=complex(1.0, bad))

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("fn", [transfer_matrix, m22_residual, oracle_transfer_matrix])
    def test_rejects_non_finite_k(self, fn, bad):
        with pytest.raises(ValueError):
            fn(BarrierSpec(alpha=1.0, z=1j), bad)

    def test_overflow_raises_where_entries_exceed_a_double(self):
        # README example: 2 chi Im w ~ 4116, entries ~ e^4116
        with pytest.raises(OverflowError):
            transfer_matrix(BarrierSpec(alpha=2000.0, z=1 + 0.5j), 0.01)


def _mp_scaled_transfer(mp, alpha, z, k):
    """((m11, m12, m22) e^{-b}, x) at mpmath precision, from the textbook
    entries cos(x) +- i(1 + w^2) sin(x)/(2w), x = 2 alpha k w = a + ib."""
    alpha, z, k = mp.mpf(alpha), mp.mpc(z), mp.mpf(k)
    w = mp.sqrt(1 - z / k**2)
    if w.imag < 0 or (w.imag == 0 and w.real < 0):
        w = -w
    chi = alpha * k
    x = 2 * chi * w
    c, sr = mp.cos(x), chi * mp.sinc(x)
    scale = mp.exp(-x.imag)
    return ((scale * mp.exp(-2j * chi) * (c + 1j * (1 + w * w) * sr),
             scale * 1j * (w * w - 1) * sr,
             scale * mp.exp(2j * chi) * (c - 1j * (1 + w * w) * sr)), x)


# (alpha, z, k): b = 2 chi Im w from 0 to 1e4, w -> 0, and both sides of the
# |x| = 1e-4 switch to the sinc series
HARD_BARRIERS = [
    (1.1, 0.4, 1.3),                      # real z < k^2: b = 0
    (1.1, 2.9, 1.3),                      # real z > k^2: evanescent
    (0.8, 1.5**2, 1.5),                   # w = 0
    (1.0, 1 + 1e-9j, 1.0),                # |x| ~ 6e-5, series
    (1.0, 1 + 2e-8j, 1.0),                # |x| ~ 3e-4, sin(x)/x
    (3.0, 1 - 1e-12j, 1.0),               # b ~ 4e-6
    (0.5, 0.5 + 0.3j, 1.0),
    (2000.0, 1e-4 + 5e-5j, 0.01),         # b ~ 20
    (2.0, 300.0 + 1.0j, 1.0),             # b ~ 69
    (230.0, -150.0 + 40.0j, 1.0),         # b ~ 740, past where cosh overflows
    (2000.0, 1 + 0.5j, 0.01),             # README transfer example, b ~ 4116
    (2.6e3, 4.0 + 3.0j, 1.0),             # b ~ 1e4
    (3.4e6, 1.6e-16 + 1e-19j, 1.4e-11),   # 1 cm guide at omega/Omega - 1 ~ 1e-9
]


class TestScaledTransfer:
    @pytest.mark.parametrize("alpha,z,k", HARD_BARRIERS)
    def test_matches_50_digit_evaluation(self, alpha, z, k):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            want, x = _mp_scaled_transfer(mpmath.mp, alpha, z, k)
            m11, m12, m22, b = scaled_transfer(alpha, z, k)
            assert b >= 0
            # x = 2 chi w carries rounding of |x| eps, and cos/sin pass it on
            tol = 1e-15 * (16 + abs(x))
            assert abs(b - x.imag) <= tol
            scale = max(abs(v) for v in want)
            for got, ref in zip((m11, m12, m22), want):
                assert abs(mpmath.mpc(complex(got)) - ref) <= tol * scale

    def test_broadcasts_like_scalar_calls(self):
        zs = np.array([0.5 + 0.3j, 1.5**2, 1 + 0.5j, -150.0 + 40.0j])
        ks = np.array([1.0, 1.5, 0.01, 1.0])
        arrays = scaled_transfer(2.0, zs, ks)
        for i, (z, k) in enumerate(zip(zs, ks)):
            for got, want in zip(arrays, scaled_transfer(2.0, complex(z), float(k))):
                assert got[i] == pytest.approx(want, rel=1e-15, abs=1e-300)

    def test_transfer_matrix_is_its_rescaling(self):
        spec = BarrierSpec(alpha=2.0, z=3.0 - 0.8j)
        m11, m12, m22, b = scaled_transfer(spec.alpha, spec.z, 1.3)
        m = transfer_matrix(spec, 1.3)
        assert (m.m11, m.m12, m.m21, m.m22) == (
            complex(m11) * math.exp(b), complex(m12) * math.exp(b),
            -complex(m12) * math.exp(b), complex(m22) * math.exp(b))

    @settings(max_examples=300, deadline=None)
    @given(chi=st.floats(1e-3, 1e4), k=st.floats(1e-3, 1e2),
           u=st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False))
    def test_scaled_determinant(self, chi, k, u):
        # det M = 1, so m11 m22 - m12 m21 = e^{-2b} for the scaled entries;
        # m11 and m22 are c + t and c - t, so rounding scales with the larger
        m11, m12, m22, b = scaled_transfer(chi / k, u * k * k, k)
        det = m11 * m22 + m12 * m12
        scale = max(abs(m11), abs(m22)) ** 2 + abs(m12) ** 2
        assert abs(det - math.exp(-2 * b)) <= 1e-13 * scale

    @settings(max_examples=300, deadline=None)
    @given(chi=st.floats(1e-3, 1e4), k=st.floats(1e-3, 1e2), u=st.floats(-1e3, 1e3))
    def test_real_coupling_conserves_flux(self, chi, k, u):
        # |T|^2 + |R|^2 = (e^{-2b} + |m12|^2) / |m22|^2 = 1 for real z
        _, m12, m22, b = scaled_transfer(chi / k, u * k * k, k)
        assert math.exp(-2 * b) + abs(m12) ** 2 == pytest.approx(abs(m22) ** 2, rel=1e-12)


class TestAmplitudes:
    def test_transmission_is_inverse_m22(self):
        m = transfer_matrix(BarrierSpec(alpha=1.0, z=0.5 + 0.2j), 1.0)
        amp = amplitudes(m)
        assert amp.t == pytest.approx(1 / m.m22)
        assert amp.r_left == pytest.approx(-m.m21 / m.m22)
        assert amp.r_right == pytest.approx(m.m12 / m.m22)

    def test_singular_matrix_raises(self):
        from specsing.barrier import TransferMatrix
        with pytest.raises(SpectralSingularityError):
            amplitudes(TransferMatrix(m11=1, m12=0, m21=0, m22=0))


class TestResidual:
    def test_free_case_value(self):
        # w = 1: |f| = 4, denominator = |2|^2 + 0 = 4
        assert m22_residual(BarrierSpec(alpha=0.7, z=0), 2.0) == pytest.approx(1.0)

    def test_real_z_never_singular(self):
        # a real barrier has no spectral singularity: residual stays large
        rng = np.random.default_rng(7)
        vals = []
        for _ in range(200):
            z = rng.uniform(-5, 5)
            alpha = rng.uniform(0.1, 5)
            k = rng.uniform(0.5, 3)
            if abs(1 - z / k**2) < 1e-3:
                continue  # removable point, metric degenerates there
            vals.append(m22_residual(BarrierSpec(alpha=alpha, z=z), k))
        assert min(vals) > 1e-3


    def test_overflowing_f_gives_inf(self):
        # f ~ e^4116: no zero of m22 is possible there
        assert m22_residual(BarrierSpec(alpha=2000.0, z=1 + 0.5j), 0.01) == math.inf


class TestWavefunction:
    @pytest.mark.parametrize("which", ["left-incident", "right-incident"])
    def test_continuity_at_edges(self, which):
        spec = BarrierSpec(alpha=1.0, z=0.8 + 0.3j)
        k = 1.2
        h = 1e-9
        for edge in (-spec.alpha, spec.alpha):
            lo, hi = wavefunction_profile(spec, k, which,
                                          [edge - h, edge + h])
            assert abs(hi - lo) < 1e-6

    @pytest.mark.parametrize("which", ["left-incident", "right-incident"])
    def test_satisfies_schrodinger_equation(self, which):
        # finite-difference check of psi'' + (k^2 - v) psi = 0 in all regions
        spec = BarrierSpec(alpha=1.0, z=0.8 + 0.3j)
        k = 1.2
        h = 1e-4 / k
        for x0, v in ((-2.0, 0.0), (0.3, spec.z), (1.7, 0.0)):
            pm, p0, pp = wavefunction_profile(spec, k, which,
                                              [x0 - h, x0, x0 + h])
            lap = (pp - 2 * p0 + pm) / (h * h)
            res = abs(lap + (k * k - v) * p0) / (k * k * abs(p0))
            assert res < 1e-6

    def test_left_incident_transmitted_side(self):
        spec = BarrierSpec(alpha=1.0, z=0.8 + 0.3j)
        k = 1.2
        amp = amplitudes(transfer_matrix(spec, k))
        x = 3.0
        (psi,) = wavefunction_profile(spec, k, "left-incident", [x])
        assert psi == pytest.approx(amp.t * cmath.exp(1j * k * x))
