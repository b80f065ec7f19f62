import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from specsing.constants import principal_sqrt_upper


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

