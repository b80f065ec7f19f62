import cmath
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specsing.barrier import (
    _MATH,
    _NUMPY,
    _scaled_parts,
    m22_residual,
    principal_sqrt_upper,
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


def _unscaled(chi, zeta):
    """M's (m11, m12, m21, m22): the scaled entries times e^b."""
    m11, m12, m22, b = transfer_matrix(chi, zeta)
    g = math.exp(b)
    return m11 * g, m12 * g, -m12 * g, m22 * g


class TestPrincipalSqrtUpper:
    def test_positive_real(self):
        assert principal_sqrt_upper(4) == 2

    def test_negative_real_maps_to_upper_axis(self):
        assert principal_sqrt_upper(-4) == 2j

    def test_lower_half_plane_input_flips_standard_root(self):
        # standard sqrt(3-4i) = 2-i has Im < 0, so the branch negates it
        w = principal_sqrt_upper(3 - 4j)
        assert w == pytest.approx(-2 + 1j)
        assert w * w == pytest.approx(3 - 4j)

    def test_zero(self):
        assert principal_sqrt_upper(0) == 0

    @given(st.complex_numbers(min_magnitude=1e-12, max_magnitude=1e12,
                              allow_nan=False, allow_infinity=False))
    def test_square_recovers_input(self, u):
        w = principal_sqrt_upper(u)
        assert abs(w * w - u) <= 1e-14 * abs(u)

    @given(st.complex_numbers(min_magnitude=1e-12, max_magnitude=1e12,
                              allow_nan=False, allow_infinity=False))
    def test_argument_in_upper_interval(self, u):
        # arg(w) in [0, pi): Im w > 0, or Im w = 0 with Re w >= 0
        w = principal_sqrt_upper(u)
        assert w.imag > 0 or (w.imag == 0 and w.real >= 0)

    @given(st.floats(min_value=0, max_value=1e12, allow_nan=False))
    def test_nonnegative_real_stays_real(self, x):
        w = principal_sqrt_upper(x)
        assert w.imag == 0 and w.real >= 0


def _mask_and_where_sqrt_upper(u):
    """The array branch as first written: flip where Im < 0, or where Im = 0
    and Re < 0."""
    s = np.sqrt(np.asarray(u, dtype=np.complex128))
    flip = (s.imag < 0) | ((s.imag == 0) & (s.real < 0))
    return np.where(flip, -s, s)


_INF, _NAN = math.inf, math.nan
# signed zeros on both axes, negative reals, tiny and huge moduli, nan and inf
EDGE_INPUTS = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)] + [
    complex(-4.0, 0.0), complex(-4.0, -0.0), complex(4.0, -0.0), complex(-0.0, -4.0),
    3 - 4j, -3 - 4j, -3 + 4j, complex(-1e-320, -0.0), complex(1e-320, -1e-320),
    complex(-5e-324, 5e-324), 1e308 + 1e308j, complex(-1e308, -1e308), complex(-1e308, -0.0),
    complex(_NAN, 0.0), complex(0.0, _NAN), complex(-1.0, _NAN), complex(_NAN, -1.0),
    complex(_INF, -1.0), complex(-_INF, -1.0), complex(-_INF, 0.0), complex(-_INF, -0.0),
    complex(1.0, _INF), complex(1.0, -_INF), complex(-_INF, _NAN), complex(_NAN, -_INF),
]


class TestPrincipalSqrtUpperArrays:
    def test_equals_mask_and_where_bit_for_bit(self):
        u = np.array(EDGE_INPUTS)
        got, want = principal_sqrt_upper(u), _mask_and_where_sqrt_upper(u)
        # compare the bits, so signed zeros and nan signs count
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_shape_kept_and_input_untouched(self):
        u = np.array([[-4.0 + 0j, 3 - 4j]])
        before = u.copy()
        w = principal_sqrt_upper(u)
        assert w.shape == (1, 2) and (u == before).all()
        assert w.tolist() == [[2j, -2 + 1j]]
        zero_d = principal_sqrt_upper(np.array(-4.0))
        assert isinstance(zero_d, np.ndarray) and zero_d.shape == () and zero_d == 2j


class TestTransferMatrix:
    def test_free_case_is_identity(self):
        m11, m12, m22, b = transfer_matrix(1.3 * 2.0, 0.0)
        assert b == 0
        assert m11 == pytest.approx(1)
        assert m22 == pytest.approx(1)
        assert abs(m12) < 1e-15

    def test_removable_point_analytic_limit(self):
        # zeta = z/k^2 = 1 makes w = 0; entries must hit the analytic limits
        chi = 0.8 * 1.5
        m11, m12, m22, b = transfer_matrix(chi, 1.0)
        assert b == 0
        assert m11 == pytest.approx(cmath.exp(-2j * chi) * (1 + 1j * chi),
                                    rel=1e-12)
        assert m22 == pytest.approx(cmath.exp(2j * chi) * (1 - 1j * chi),
                                    rel=1e-12)
        assert m12 == pytest.approx(-1j * chi, rel=1e-12)

    def test_near_removable_point_is_continuous(self):
        m0 = _unscaled(0.8 * 1.5, 1.0)
        m1 = _unscaled(0.8 * 1.5, 1 + 1e-9)
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
        m11, m12, m22, b = transfer_matrix(alpha * k, z / k**2)
        assert abs((m11 * m22 + m12 * m12) * math.exp(2 * b) - 1) < 1e-12

    @pytest.mark.parametrize("z,alpha,k", [
        (0.5 + 0.3j, 1.0, 1.0),
        (-2.0 + 0.1j, 0.7, 2.5),
        (3.0 - 0.8j, 2.0, 1.3),
        (1.2 - 0.4j, 0.3, 0.9),
    ])
    def test_matches_plane_wave_oracle(self, z, alpha, k):
        for a, b in zip(_unscaled(alpha * k, z / k**2), oracle_transfer_matrix(alpha, z, k)):
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))

    def test_real_z_unitarity(self):
        # real potential: |T|^2 + |R|^2 = 1
        for z in (0.4, -1.7, 2.9):
            t, r = amplitudes_of(1.1, z, 1.3)
            assert abs(t) ** 2 + abs(r) ** 2 == pytest.approx(1, abs=1e-12)

    @pytest.mark.parametrize("chi", [-1.0, -5e-324, -math.inf, math.nan])
    @pytest.mark.parametrize("fn", [transfer_matrix, m22_residual])
    def test_rejects_negative_or_nan_chi(self, fn, chi):
        with pytest.raises(ValueError, match=r"chi = alpha k must be >= 0"):
            fn(chi, 0.5 + 0.5j)

    def test_moduli_reject_one_negative_or_nan_chi(self):
        for bad in (-1.0, math.nan):
            with pytest.raises(ValueError, match=r"chi = alpha k must be >= 0"):
                scaled_moduli(np.array([1.0, bad, 2.0]), np.full(3, 0.5 + 0.5j))

    @pytest.mark.parametrize("chi", [0.0, -0.0])
    def test_zero_chi_is_the_empty_barrier(self, chi):
        # an alpha k that underflows to 0: the identity, with residual 1
        assert transfer_matrix(chi, 1e20 + 0j) == (1, 0, 1, 0)
        assert m22_residual(chi, 1e20 + 0j) == 1.0

    @pytest.mark.parametrize("chi,zeta", [
        (math.inf, 0.5 + 0j),
        (1.0, complex(math.inf, 1.0)),
        (1.0, complex(1.0, -math.inf)),
        (1.0, complex(math.nan, 1.0)),
        (0.0, complex(0.5, math.nan)),
    ])
    @pytest.mark.parametrize("fn", [transfer_matrix, m22_residual])
    def test_non_finite_chi_or_zeta_overflows(self, fn, chi, zeta):
        with pytest.raises(OverflowError, match=r"^alpha k, z/k\^2 or 2 alpha k w does not"):
            fn(chi, zeta)

    @pytest.mark.parametrize("alpha,z,k", [
        (0.0, 1j, 1.0), (-1.0, 1j, 1.0), *((bad, 1j, 1.0) for bad in NON_FINITE),
        *((1.0, complex(bad, 1.0), 1.0) for bad in NON_FINITE),
        *((1.0, complex(1.0, bad), 1.0) for bad in NON_FINITE),
        (1.0, 1j, 0.0), (1.0, 1j, -1.0), *((1.0, 1j, bad) for bad in NON_FINITE),
        # k^2 == 0 in a double: z/k^2 would divide by zero
        (1.0, 1 + 1j, 1e-170), (1.0, 1 + 1j, 5e-324),
        # k^2 == inf, where k**2 raises a bare OverflowError (34, ...); the
        # second k is 1 ulp above sqrt(DBL_MAX), whose own square still fits
        (1.0, 1 + 1j, 1e200),
        (1.0, 1 + 1j, math.nextafter(math.sqrt(sys.float_info.max), math.inf)),
    ])
    def test_oracle_rejects_a_barrier_with_no_physical_chi_zeta(self, alpha, z, k):
        with pytest.raises(ValueError):
            oracle_transfer_matrix(alpha, z, k)

    def test_entries_stay_finite_where_e_b_overflows(self):
        # README example: 2 chi Im w ~ 4116, so M's entries ~ e^4116 exceed a
        # double; the scaled ones do not
        *entries, b = transfer_matrix(2000.0 * 0.01, (1 + 0.5j) / 0.01**2)
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
            m11, m12, m22, b = transfer_matrix(alpha * k, z / k**2)
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
        m11, m12, m22, b = transfer_matrix(alpha * k, z / k**2)
        scale = max(abs(m11), abs(m22)) ** 2 + abs(m12) ** 2
        assert abs(m11 * m22 + m12 * m12 - math.exp(-2 * b)) <= 1e-13 * scale
        if complex(z).imag == 0:
            assert math.exp(-2 * b) + abs(m12) ** 2 == pytest.approx(abs(m22) ** 2, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(chi=st.floats(1e-3, 1e4),
           u=st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False))
    def test_scaled_determinant(self, chi, u):
        # det M = 1, so m11 m22 - m12 m21 = e^{-2b} for the scaled entries;
        # m11 and m22 are c + t and c - t, so rounding scales with the larger
        m11, m12, m22, b = transfer_matrix(chi, u)
        det = m11 * m22 + m12 * m12
        scale = max(abs(m11), abs(m22)) ** 2 + abs(m12) ** 2
        assert abs(det - math.exp(-2 * b)) <= 1e-13 * scale

    @settings(max_examples=300, deadline=None)
    @given(chi=st.floats(1e-3, 1e4), u=st.floats(-1e3, 1e3))
    def test_real_coupling_conserves_flux(self, chi, u):
        # |T|^2 + |R|^2 = (e^{-2b} + |m12|^2) / |m22|^2 = 1 for real z
        _, m12, m22, b = transfer_matrix(chi, u)
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
        chi, zeta = alpha * k, z / k**2
        assert _bits(transfer_matrix(chi, zeta)) == _bits(_alpha_z_k_matrix(alpha, z, k))
        assert _bits([m22_residual(chi, zeta)]) == _bits([_alpha_z_k_residual(alpha, z, k)])

    def test_seeded_matrices_give_the_same_doubles(self):
        for alpha, z, k in zip(*_seeded_barriers(2000)):
            alpha, z, k = float(alpha), complex(z), float(k)
            assert _bits(transfer_matrix(alpha * k, z / k**2)) == _bits(
                _alpha_z_k_matrix(alpha, z, k))

    def test_seeded_residuals_give_the_same_doubles(self):
        for alpha, z, k in zip(*_seeded_barriers(2000, seed=12)):
            alpha, z, k = float(alpha), complex(z), float(k)
            assert m22_residual(alpha * k, z / k**2) == _alpha_z_k_residual(alpha, z, k)


class TestPartsFromRealParts:
    """`_scaled_parts` builds c and the sinc numerator from their real and
    imaginary parts; each part keeps the doubles of the complex arithmetic
    of `alpha_z_k_parts`, signed zeros included."""

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


def _time_reversal_bits(points):
    """For each (chi, zeta): the bits of transfer_matrix(chi, conj zeta), and
    of what time reversal says it is, (conj m22, -conj m12, conj m11, b) of
    transfer_matrix(chi, zeta)."""
    got, want = [], []
    for chi, zeta in points:
        m11, m12, m22, b = transfer_matrix(chi, zeta)
        got.append(transfer_matrix(chi, zeta.conjugate()))
        want.append((m22.conjugate(), -m12.conjugate(), m11.conjugate(), b))
    return _bits([got])[0], _bits([want])[0]


class TestTimeReversal:
    """For real chi >= 0 the upper branch has w(conj zeta) = -conj w(zeta),
    so c is unchanged and t changes sign: m11(chi, conj zeta) = conj m22(chi,
    zeta), m12 -> -conj m12 and b stays, bit for bit.  A zero of m22 at
    sigma > 0 is a zero of m11 at -sigma, the time reverse of a spectral
    singularity."""

    def test_seeded_points(self):
        rng = np.random.default_rng(15)
        chi = 10 ** rng.uniform(-3, 4, 20000)
        zeta = 10 ** rng.uniform(-3, 3, 20000) * np.exp(1j * rng.uniform(-np.pi, np.pi, 20000))
        got, want = _time_reversal_bits(zip(chi.tolist(), zeta.tolist()))
        assert got == want

    def test_near_the_removable_point(self):
        # |zeta - 1| <= 1.5e-9 and chi <= 1 keep |x| < 1e-4: the sinc series
        rng = np.random.default_rng(16)
        chi = 10 ** rng.uniform(-3, 0, 2000)
        zeta = 1 + 1e-9 * (rng.uniform(-1, 1, 2000) + 1j * rng.uniform(-1, 1, 2000))
        x = _scaled_parts(chi, zeta, _NUMPY)[1]
        assert (abs(x) < 1e-4).all()
        got, want = _time_reversal_bits(zip(chi.tolist(), zeta.tolist()))
        assert got == want

    def test_readme_designs(self):
        # `design --n 2000` in the default medium and guide: at each design
        # m22 vanishes, so at the mirrored coupling m11 does
        medium = GainMedium(omega0=5.0, omega_p_sq=-0.04, delta=1.25)
        sols = find_singularities(medium, WaveguideGeometry(beta=5e6), 2000)
        assert len(sols) == 3
        points = [(s.alpha * s.k, complex(s.rho_star, s.sigma_star)) for s in sols]
        got, want = _time_reversal_bits(points)
        assert got == want
        for chi, zeta in points:
            m11, _, _, b = transfer_matrix(chi, zeta.conjugate())
            assert b > 0 and abs(m11) < 1e-6


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
        assert m22_residual(chi, 0.0) == pytest.approx(want, rel=1e-14)

    def test_free_case_value_past_the_cap(self):
        # the rounding-level factor 1 + |x| stops growing at 1e3
        chi = 1e9
        want = 1 / ((abs(math.cos(2 * chi)) + abs(math.sin(2 * chi))) * 1e3)
        assert m22_residual(chi, 0.0) == pytest.approx(want, rel=1e-14)

    def test_real_z_never_singular(self):
        # a real barrier has no spectral singularity: residual stays large
        rng = np.random.default_rng(7)
        vals = []
        for _ in range(200):
            z = rng.uniform(-5, 5)
            alpha = rng.uniform(0.1, 5)
            k = rng.uniform(0.5, 3)
            vals.append(m22_residual(alpha * k, z / k**2))
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
        res = m22_residual(alpha * k, z / k**2)
        assert math.isfinite(res) and res >= RESIDUAL_TOL

    @pytest.mark.parametrize("z,alpha,k", [(1.0, 2.0, 1.0), (4.0, 1000.0, 2.0), (2.25, 0.8, 1.5)])
    def test_removable_point_value(self, z, alpha, k):
        # w = 0: c = 1, t = i chi and x = 0, so the residual is |1 - i chi| / (1 + chi);
        # |m22| = |1 - i chi| >= 1 (b = 0: m22 is not scaled), so no singularity is there
        chi, zeta = alpha * k, z / k**2
        assert 1 - zeta == 0
        _, _, m22, b = transfer_matrix(chi, zeta)
        assert b == 0 and abs(m22) == pytest.approx(math.hypot(1.0, chi), rel=1e-12)
        assert m22_residual(chi, zeta) == pytest.approx(math.hypot(1.0, chi) / (1 + chi), rel=1e-14)

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
        for fn in (m22_residual, transfer_matrix):
            with pytest.raises(OverflowError):
                fn(alpha * k, z / k**2)

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
        alpha, z, k = 1.0, 0.8 + 0.3j, 1.2
        h = 1e-9
        for edge in (-alpha, alpha):
            lo, hi = wavefunction_profile(alpha, z, k, which, [edge - h, edge + h])
            assert abs(hi - lo) < 1e-6

    @pytest.mark.parametrize("which", ["left-incident", "right-incident"])
    def test_satisfies_schrodinger_equation(self, which):
        # finite-difference check of psi'' + (k^2 - v) psi = 0 in all regions
        alpha, z, k = 1.0, 0.8 + 0.3j, 1.2
        h = 1e-4 / k
        for x0, v in ((-2.0, 0.0), (0.3, z), (1.7, 0.0)):
            pm, p0, pp = wavefunction_profile(alpha, z, k, which, [x0 - h, x0, x0 + h])
            lap = (pp - 2 * p0 + pm) / (h * h)
            res = abs(lap + (k * k - v) * p0) / (k * k * abs(p0))
            assert res < 1e-6

    def test_left_incident_transmitted_side(self):
        alpha, z, k = 1.0, 0.8 + 0.3j, 1.2
        t, _ = amplitudes_of(alpha, z, k)
        x = 3.0
        (psi,) = wavefunction_profile(alpha, z, k, "left-incident", [x])
        assert psi == pytest.approx(t * cmath.exp(1j * k * x))
