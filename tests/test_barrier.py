import cmath
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specsing.barrier import (
    BarrierSpec,
    _MATH,
    _NUMPY,
    _scaled_parts,
    m22_residual,
    scaled_moduli,
    transfer_matrix,
)
from specsing.cli import TABLE1, TABLE2
from specsing.locus import RESIDUAL_TOL, BranchLabel, trace_curve
from specsing.waveguide import GainMedium, WaveguideGeometry, find_singularities

from oracles import (
    alpha_z_k_parts,
    alpha_z_k_transfer,
    amplitudes_of,
    mp_scaled_transfer,
    oracle_transfer_matrix,
    wavefunction_profile,
)

NON_FINITE = (math.inf, -math.inf, math.nan)


def _unscaled(spec, k):
    """M's (m11, m12, m21, m22): the scaled entries times e^b."""
    m11, m12, m22, b = transfer_matrix(spec, k)
    g = math.exp(b)
    return m11 * g, m12 * g, -m12 * g, m22 * g


class TestTransferMatrix:
    def test_free_case_is_identity(self):
        m11, m12, m22, b = transfer_matrix(BarrierSpec(alpha=1.3, z=0), 2.0)
        assert b == 0
        assert m11 == pytest.approx(1)
        assert m22 == pytest.approx(1)
        assert abs(m12) < 1e-15

    def test_removable_point_analytic_limit(self):
        # z = k^2 makes w = 0; entries must hit the analytic limits
        alpha, k = 0.8, 1.5
        chi = alpha * k
        m11, m12, m22, b = transfer_matrix(BarrierSpec(alpha=alpha, z=k * k), k)
        assert b == 0
        assert m11 == pytest.approx(cmath.exp(-2j * chi) * (1 + 1j * chi),
                                    rel=1e-12)
        assert m22 == pytest.approx(cmath.exp(2j * chi) * (1 - 1j * chi),
                                    rel=1e-12)
        assert m12 == pytest.approx(-1j * chi, rel=1e-12)

    def test_near_removable_point_is_continuous(self):
        alpha, k = 0.8, 1.5
        m0 = _unscaled(BarrierSpec(alpha=alpha, z=k * k), k)
        m1 = _unscaled(BarrierSpec(alpha=alpha, z=k * k * (1 + 1e-9)), k)
        assert m1[3] == pytest.approx(m0[3], rel=1e-7)

    @pytest.mark.parametrize("z,alpha,k", [
        (0.5 + 0.3j, 1.0, 1.0),
        (-2.0 + 0.1j, 0.7, 2.5),
        (3.0 - 0.8j, 2.0, 1.3),
        (0.9, 5.0, 1.0),
    ])
    def test_unit_determinant(self, z, alpha, k):
        # det M = e^{2b}(m11 m22 + m12^2) of the scaled entries: rescaling each
        # entry first would add four roundings of the test's own
        m11, m12, m22, b = transfer_matrix(BarrierSpec(alpha=alpha, z=z), k)
        assert abs((m11 * m22 + m12 * m12) * math.exp(2 * b) - 1) < 1e-12

    @pytest.mark.parametrize("z,alpha,k", [
        (0.5 + 0.3j, 1.0, 1.0),
        (-2.0 + 0.1j, 0.7, 2.5),
        (3.0 - 0.8j, 2.0, 1.3),
        (1.2 - 0.4j, 0.3, 0.9),
    ])
    def test_matches_plane_wave_oracle(self, z, alpha, k):
        spec = BarrierSpec(alpha=alpha, z=z)
        for a, b in zip(_unscaled(spec, k), oracle_transfer_matrix(spec, k)):
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))

    def test_real_z_unitarity(self):
        # real potential: |T|^2 + |R|^2 = 1
        for z in (0.4, -1.7, 2.9):
            t, r = amplitudes_of(BarrierSpec(alpha=1.1, z=z), 1.3)
            assert abs(t) ** 2 + abs(r) ** 2 == pytest.approx(1, abs=1e-12)

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

    @pytest.mark.parametrize("k", [1e-170, 5e-324])
    @pytest.mark.parametrize("fn", [transfer_matrix, m22_residual, oracle_transfer_matrix])
    def test_rejects_k_whose_square_underflows(self, fn, k):
        # k^2 == 0 in a double: z/k^2 would divide by zero
        with pytest.raises(ValueError):
            fn(BarrierSpec(alpha=1.0, z=1 + 1j), k)

    # 1 ulp above sqrt(DBL_MAX), whose own square still fits
    @pytest.mark.parametrize("k", [1e200, math.nextafter(math.sqrt(sys.float_info.max), math.inf)])
    @pytest.mark.parametrize("fn", [transfer_matrix, m22_residual, oracle_transfer_matrix])
    def test_rejects_k_whose_square_overflows(self, fn, k):
        # k^2 == inf in a double, where k**2 raises a bare OverflowError (34, ...)
        with pytest.raises(ValueError):
            fn(BarrierSpec(alpha=1.0, z=1 + 1j), k)

    def test_entries_stay_finite_where_e_b_overflows(self):
        # README example: 2 chi Im w ~ 4116, so M's entries ~ e^4116 exceed a
        # double; the scaled ones do not
        *entries, b = transfer_matrix(BarrierSpec(alpha=2000.0, z=1 + 0.5j), 0.01)
        assert b == pytest.approx(4116.16, abs=0.01)
        assert all(cmath.isfinite(v) and 1 < abs(v) < 1e2 for v in entries)


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
            want, x = mp_scaled_transfer(mpmath.mp, alpha, z, k)
            m11, m12, m22, b = transfer_matrix(BarrierSpec(alpha=alpha, z=z), k)
            assert b >= 0
            # x = 2 chi w carries rounding of |x| eps, and cos/sin pass it on
            tol = 1e-15 * (16 + abs(x))
            assert abs(b - x.imag) <= tol
            scale = max(abs(v) for v in want)
            for got, ref in zip((m11, m12, m22), want):
                assert abs(mpmath.mpc(complex(got)) - ref) <= tol * scale

    @pytest.mark.parametrize("alpha,z,k", HARD_BARRIERS)
    def test_hard_barriers_keep_determinant_and_flux(self, alpha, z, k):
        # the bounds of the two property tests below
        m11, m12, m22, b = transfer_matrix(BarrierSpec(alpha=alpha, z=z), k)
        scale = max(abs(m11), abs(m22)) ** 2 + abs(m12) ** 2
        assert abs(m11 * m22 + m12 * m12 - math.exp(-2 * b)) <= 1e-13 * scale
        if complex(z).imag == 0:
            assert math.exp(-2 * b) + abs(m12) ** 2 == pytest.approx(abs(m22) ** 2, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(chi=st.floats(1e-3, 1e4), k=st.floats(1e-3, 1e2),
           u=st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False))
    def test_scaled_determinant(self, chi, k, u):
        # det M = 1, so m11 m22 - m12 m21 = e^{-2b} for the scaled entries;
        # m11 and m22 are c + t and c - t, so rounding scales with the larger
        m11, m12, m22, b = transfer_matrix(BarrierSpec(alpha=chi / k, z=u * k * k), k)
        det = m11 * m22 + m12 * m12
        scale = max(abs(m11), abs(m22)) ** 2 + abs(m12) ** 2
        assert abs(det - math.exp(-2 * b)) <= 1e-13 * scale

    @settings(max_examples=300, deadline=None)
    @given(chi=st.floats(1e-3, 1e4), k=st.floats(1e-3, 1e2), u=st.floats(-1e3, 1e3))
    def test_real_coupling_conserves_flux(self, chi, k, u):
        # |T|^2 + |R|^2 = (e^{-2b} + |m12|^2) / |m22|^2 = 1 for real z
        _, m12, m22, b = transfer_matrix(BarrierSpec(alpha=chi / k, z=u * k * k), k)
        assert math.exp(-2 * b) + abs(m12) ** 2 == pytest.approx(abs(m22) ** 2, rel=1e-12)


def _alpha_z_k_matrix(alpha, z, k):
    """`alpha_z_k_transfer` on math, as `transfer_matrix` evaluates it."""
    chi, w, x, c, t, sr = alpha_z_k_parts(alpha, z, k, _MATH)
    return (cmath.exp(-2j * chi) * (c + t), 1j * (w * w - 1) * sr,
            cmath.exp(2j * chi) * (c - t), x.imag)


def _alpha_z_k_residual(alpha, z, k):
    _, _, x, c, t, _ = alpha_z_k_parts(alpha, z, k, _MATH)
    return abs(c - t) / ((abs(c) + abs(t)) * min(1 + abs(x), 1e3))


def _bits(values):
    """The bits of each double (complex: both parts), so -0.0 != 0.0."""
    return [np.atleast_1d(np.asarray(v, dtype=complex)).view(np.uint64).tolist()
            for v in values]


def _seeded_barriers(count, seed=11):
    """(alpha, z, k) arrays: chi from 1e-3 to 1e4, |z/k^2| up to 1e3, and a
    quarter within 1e-9 of z = k^2, where the sinc series is taken."""
    rng = np.random.default_rng(seed)
    k = 10 ** rng.uniform(-3, 2, count)
    alpha = 10 ** rng.uniform(-3, 4, count) / k
    zeta = (10 ** rng.uniform(-3, 3, count)
            * np.exp(1j * rng.uniform(-np.pi, np.pi, count)))
    near = rng.random(count) < 0.25
    zeta[near] = 1 + 1e-9 * (rng.uniform(-1, 1, near.sum()) + 1j * rng.uniform(-1, 1, near.sum()))
    return alpha, zeta * k * k, k


class TestChiZetaForm:
    """`_scaled_parts` takes chi = alpha k and zeta = z/k^2; its callers form
    them with the operations the (alpha, z, k) form did, so every double of
    the certified and scaled paths is unchanged."""

    @pytest.mark.parametrize("alpha,z,k", HARD_BARRIERS)
    def test_hard_barriers_give_the_same_doubles(self, alpha, z, k):
        spec = BarrierSpec(alpha=alpha, z=z)
        assert _bits(transfer_matrix(spec, k)) == _bits(_alpha_z_k_matrix(alpha, z, k))
        assert _bits([m22_residual(spec, k)]) == _bits([_alpha_z_k_residual(alpha, z, k)])

    def test_seeded_matrices_give_the_same_doubles(self):
        for alpha, z, k in zip(*_seeded_barriers(2000)):
            alpha, z, k = float(alpha), complex(z), float(k)
            assert _bits(transfer_matrix(BarrierSpec(alpha=alpha, z=z), k)) == _bits(
                _alpha_z_k_matrix(alpha, z, k))

    def test_seeded_residuals_give_the_same_doubles(self):
        for alpha, z, k in zip(*_seeded_barriers(2000, seed=12)):
            spec = BarrierSpec(alpha=float(alpha), z=complex(z))
            assert m22_residual(spec, float(k)) == _alpha_z_k_residual(
                float(alpha), complex(z), float(k))


class TestPartsFromRealParts:
    """`_scaled_parts` builds c and the sinc numerator from their real and
    imaginary parts and works in place; each part keeps the doubles of the
    complex arithmetic of `alpha_z_k_parts`, signed zeros included."""

    @staticmethod
    def _signed_zero_barriers():
        # real zeta < 1 gives b = 0 (q = 0.0) with a in all four quadrants, so
        # sin a q and cos a q are 0.0 or -0.0; zeta = 5 + 5e-324j rounds the
        # real part of w to -0.0, so a = -0.0 where b = 4 chi
        chi = np.linspace(0.05, 4.0, 80)
        zeta = np.array([0.5, complex(0.5, -0.0), -3.0, 5.0, 5 + 5e-324j, 5 - 5e-324j])
        chi, zeta = (v.ravel() for v in np.meshgrid(chi, zeta))
        return chi, zeta

    def test_arrays_keep_every_part(self):
        chi, zeta = self._signed_zero_barriers()
        want = alpha_z_k_parts(chi, zeta, 1.0, _NUMPY)[1:]
        got = _scaled_parts(chi, zeta, _NUMPY)
        assert _bits(got) == _bits(want)
        x = want[1]
        assert (np.signbit(x.real) & (x.real == 0)).any()           # a = -0.0
        assert ((x.imag == 0) & (np.cos(x.real) < 0)).any()          # sin a q, cos a q = +-0.0

    @pytest.mark.parametrize("ops", [_NUMPY, _MATH], ids=["numpy", "math"])
    def test_floats_keep_every_part(self, ops):
        for chi, zeta in zip(*self._signed_zero_barriers()):
            want = alpha_z_k_parts(float(chi), complex(zeta), 1.0, ops)[1:]
            assert _bits(_scaled_parts(float(chi), complex(zeta), ops)) == _bits(want)

    @pytest.mark.parametrize("size,count", [(1, 64), (2, 32), (5, 16), (4096, 2)])
    def test_arrays_of_any_length_keep_every_part(self, size, count):
        # numpy rounds an in-place complex product of one element differently
        # from the product into a new array, for about a quarter of these
        alpha, z, k = _seeded_barriers(count * size, seed=14)
        for lo in range(0, count * size, size):
            part = slice(lo, lo + size)
            chi, zeta = alpha[part] * k[part], z[part] / k[part] ** 2
            w, x, c, t, sr = want = alpha_z_k_parts(alpha[part], z[part], k[part], _NUMPY)[1:]
            assert _bits(_scaled_parts(chi, zeta, _NUMPY)) == _bits(want)
            assert _bits(scaled_moduli(chi, zeta)) == _bits(
                [np.abs(w * w - 1) * np.abs(sr), np.abs(c - t), x.imag])


class TestScaledModuli:
    @pytest.mark.parametrize("alpha,z,k", HARD_BARRIERS)
    def test_moduli_of_the_scaled_entries(self, alpha, z, k):
        # |e^{+-2i chi}| = 1 up to rounding, so the moduli agree to a few ulp
        a12, a22, b = scaled_moduli(alpha * k, z / k**2)
        _, m12, m22, b_ref = alpha_z_k_transfer(alpha, z, k)
        assert b == b_ref
        assert a12 == pytest.approx(abs(m12), rel=1e-15, abs=1e-300)
        assert a22 == pytest.approx(abs(m22), rel=1e-15, abs=1e-300)

    def test_seeded_arrays(self):
        alpha, z, k = _seeded_barriers(4000, seed=13)
        a12, a22, b = scaled_moduli(alpha * k, z / k**2)
        _, m12, m22, b_ref = alpha_z_k_transfer(alpha, z, k)
        assert (b == b_ref).all()
        np.testing.assert_allclose(a12, np.abs(m12), rtol=1e-15, atol=1e-300)
        np.testing.assert_allclose(a22, np.abs(m22), rtol=1e-15, atol=1e-300)


def _f_form_residual(alpha, z, k):
    """The certification residual as first written, through f = e^{-2i chi
    w}(1+w)^2 - e^{2i chi w}(1-w)^2 = 4w e^{-2i chi} m22: an independent
    reference that certified points must pass too (it reads 0 at w = 0)."""
    w = cmath.sqrt(1 - z / k**2)
    w = w if w.imag > 0 or (w.imag == 0 and w.real >= 0) else -w
    chi = alpha * k
    f = cmath.exp(-2j * chi * w) * (1 + w) ** 2 - cmath.exp(2j * chi * w) * (1 - w) ** 2
    return abs(f) / (abs(1 + w) ** 2 + abs(1 - w) ** 2)


class TestResidual:
    def test_free_case_value(self):
        # w = 1: c - t = e^{-ix} with x = 2 chi real, |c| + |t| = |cos x| + |sin x|
        chi = 0.7 * 2.0
        want = 1 / ((abs(math.cos(2 * chi)) + abs(math.sin(2 * chi))) * (1 + 2 * chi))
        assert m22_residual(BarrierSpec(alpha=0.7, z=0), 2.0) == pytest.approx(want, rel=1e-14)

    def test_free_case_value_past_the_cap(self):
        # the rounding-level factor 1 + |x| stops growing at 1e3
        chi = 1e9
        want = 1 / ((abs(math.cos(2 * chi)) + abs(math.sin(2 * chi))) * 1e3)
        assert m22_residual(BarrierSpec(alpha=chi, z=0), 1.0) == pytest.approx(want, rel=1e-14)

    def test_real_z_never_singular(self):
        # a real barrier has no spectral singularity: residual stays large
        rng = np.random.default_rng(7)
        vals = []
        for _ in range(200):
            z = rng.uniform(-5, 5)
            alpha = rng.uniform(0.1, 5)
            k = rng.uniform(0.5, 3)
            vals.append(m22_residual(BarrierSpec(alpha=alpha, z=z), k))
        assert min(vals) > 1e-3

    @pytest.mark.parametrize("alpha,z,k", [
        (2.0, 1 + 1e-20j, 1.0),     # next to the removable point z = k^2
        (2.0, 1 - 1e-20j, 1.0),
        (2.0, 1.0, 1.0),            # w = 0
        (1000.0, 4.0, 2.0),         # w = 0, chi = 2000
        (2000.0, 1 + 0.5j, 0.01),   # README transfer example: m22 ~ e^4116
        (1e9, 0.0, 1.0),            # free space at chi = 1e9
        (1e9, 0.5, 1.0),            # real barriers at large chi
        (3e8, -2.0, 1.0),
    ])
    def test_no_singularity_reads_finite_and_large(self, alpha, z, k):
        res = m22_residual(BarrierSpec(alpha=alpha, z=z), k)
        assert math.isfinite(res) and res >= RESIDUAL_TOL

    @pytest.mark.parametrize("z,alpha,k", [(1.0, 2.0, 1.0), (4.0, 1000.0, 2.0), (2.25, 0.8, 1.5)])
    def test_removable_point_value(self, z, alpha, k):
        # w = 0: c = 1, t = i chi and x = 0, so the residual is |1 - i chi| / (1 + chi);
        # |m22| = |1 - i chi| >= 1 (b = 0: m22 is not scaled), so no singularity is there
        chi = alpha * k
        spec = BarrierSpec(alpha=alpha, z=z)
        assert 1 - z / k**2 == 0
        _, _, m22, b = transfer_matrix(spec, k)
        assert b == 0 and abs(m22) == pytest.approx(math.hypot(1.0, chi), rel=1e-12)
        assert m22_residual(spec, k) == pytest.approx(math.hypot(1.0, chi) / (1 + chi), rel=1e-14)

    @pytest.mark.parametrize("alpha,z,k", HARD_BARRIERS)
    def test_float_and_array_tables_agree(self, alpha, z, k):
        # transfer_matrix and m22_residual run the closed form on math,
        # scaled_moduli on numpy
        chi, zeta = alpha * k, z / k**2
        for got, want in zip(_scaled_parts(chi, zeta, _MATH),
                             _scaled_parts(chi, zeta, _NUMPY)):
            assert abs(got - want) <= 1e-14 * max(1.0, abs(want))

    @pytest.mark.parametrize("alpha,z,k", [(1e300, 1 + 1j, 1e10), (1.0, 1 + 1j, 1e-160)])
    def test_overflowing_chi_or_coupling_raises(self, alpha, z, k):
        # chi = 1e310, or z/k^2 = 1e320: no double holds them
        spec = BarrierSpec(alpha=alpha, z=z)
        for fn in (m22_residual, transfer_matrix):
            with pytest.raises(OverflowError):
                fn(spec, k)

    def test_certified_points_pass_the_f_form(self):
        for n, (lo, hi) in {1: (0.70, 0.95), 2: (0.05, 0.95), 3: (0.05, 0.95)}.items():
            pts = trace_curve(BranchLabel(n=n), lo, hi, 10)
            assert pts
            for p in pts:
                assert _f_form_residual(p.alpha_k, complex(p.rho, p.sigma), 1.0) < RESIDUAL_TOL

    def test_table_designs_pass_the_f_form(self):
        medium = GainMedium(omega0=5.0, omega_p_sq=-0.04, delta=1.25)
        problems = [(WaveguideGeometry(beta=tb / 2.0), 10000, [row[0] for row in rows])
                    for _, tb, rows in TABLE1]
        problems += [(WaveguideGeometry(beta=5e6), row[0], [ell])
                     for ell, rows in TABLE2 for row in rows]
        designs = 0
        for geom, n, ells in problems:
            sols = {s.ell: s for s in find_singularities(medium, geom, n)}
            for ell in ells:
                s = sols[ell]
                z = s.k * s.k * complex(s.rho_star, s.sigma_star)
                assert _f_form_residual(s.alpha, z, s.k) < RESIDUAL_TOL
                designs += 1
        assert designs == 17


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
        t, _ = amplitudes_of(spec, k)
        x = 3.0
        (psi,) = wavefunction_profile(spec, k, "left-incident", [x])
        assert psi == pytest.approx(t * cmath.exp(1j * k * x))
