import cmath
import math

import pytest
from hypothesis import given, strategies as st

from specsing.constants import HBAR_C_EV_NM, ev_to_inverse_nm, principal_sqrt_upper


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


class TestEvToInverseNm:
    def test_zero(self):
        assert ev_to_inverse_nm(0) == 0

    def test_hbar_c_maps_to_unity(self):
        assert ev_to_inverse_nm(HBAR_C_EV_NM) == pytest.approx(1.0)

    def test_direct_arithmetic(self):
        assert ev_to_inverse_nm(2.15548) == pytest.approx(2.15548 / 197.3269804,
                                                          rel=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ev_to_inverse_nm(-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            ev_to_inverse_nm(bad)
