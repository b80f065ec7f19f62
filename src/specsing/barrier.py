"""Transfer matrix and scattering amplitudes of the complex barrier potential.

The potential is v(x) = z for |x| < alpha and 0 elsewhere, with a complex
coupling z.  The closed-form transfer matrix is expressed through
w = sqrt(1 - z/k^2) taken on the upper-half-plane branch; a spectral
singularity is a real k at which the m22 entry vanishes, making the
reflection and transmission coefficients blow up.  `_scaled_parts` is the
only statement of the closed form, in the dimensionless chi = alpha k and
zeta = z/k^2: `scaled_transfer` evaluates it with numpy (it broadcasts),
`scaled_moduli` takes only the moduli a frequency scan prints from it, and
`m22_residual`, which certifies singularities, evaluates it with math.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .constants import principal_sqrt_upper

__all__ = [
    "BarrierSpec",
    "TransferMatrix",
    "ScatteringAmplitudes",
    "SpectralSingularityError",
    "scaled_transfer",
    "scaled_moduli",
    "transfer_matrix",
    "amplitudes",
    "m22_residual",
]


class SpectralSingularityError(ArithmeticError):
    """Raised when amplitudes are requested exactly at a zero of m22."""


@dataclass(frozen=True)
class BarrierSpec:
    """Barrier half-length alpha (nm) and complex coupling z (nm^-2)."""

    alpha: float
    z: complex

    def __post_init__(self):
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not cmath.isfinite(self.z):
            raise ValueError(f"z must be finite, got {self.z}")


@dataclass(frozen=True)
class TransferMatrix:
    m11: complex
    m12: complex
    m21: complex
    m22: complex

    @property
    def det(self):
        return self.m11 * self.m22 - self.m12 * self.m21


@dataclass(frozen=True)
class ScatteringAmplitudes:
    t: complex
    r_left: complex


def _check_k(k):
    # z/k^2 needs a k^2 that neither underflows to 0 nor overflows to inf
    if not (0 < k < math.inf and 0 < k * k < math.inf):
        raise ValueError(f"k must be positive and finite with 0 < k^2 < inf, got {k}")


def _scaled_parts(chi, zeta, ops):
    """(w, x, c, t, sr) at chi = alpha k and zeta = z/k^2: w = sqrt(1 - zeta)
    on the upper-half-plane branch, x = 2 chi w = a + ib (b >= 0) and the
    scaled c = e^{-b} cos x, sr = e^{-b} sin(x)/(2w) = chi e^{-b} sinc x and
    t = i(1 + w^2) sr.  ``ops`` = (exp, expm1, cos, sin, where, any, finite,
    complex), where complex(re, im) builds re + i im from its two real parts:
    ``_NUMPY`` broadcasts, ``_MATH`` is faster on one point of floats.

    e^{-b} cos x = cos a p - i sin a q and e^{-b} sin x = sin a p + i cos a q
    with p = (1 + e^{-2b})/2 and q = -expm1(-2b)/2, so nothing overflows
    however large b grows; the sinc (by its series where |x| < 1e-4) removes
    the w = 0 (zeta = 1) removable point.  Raises OverflowError where x is
    not finite (chi or zeta does not fit in a double).

    Each part is formed once, in place where numpy allows, with the
    operations and operand order of the plain complex expressions, so its
    doubles are theirs.  numpy rounds a complex a*b and b*a differently, and
    an in-place complex product of one element differently from one into a
    new array, so complex products keep their order and go into new arrays.
    """
    exp, expm1, cos, sin, where, any, finite, complex_ = ops
    w = principal_sqrt_upper(1 - zeta)
    x = 2 * chi * w
    if not finite(x):
        raise OverflowError("alpha k, z/k^2 or 2 alpha k w does not fit in a double")
    a, b = x.real, x.imag
    m2b = -2 * b
    p = exp(m2b)
    p *= 0.5
    p += 0.5
    q = expm1(m2b)
    q *= -0.5
    cos_a, sin_a = cos(a), sin(a)
    # the parts of cos_a p - 1j (sin_a q): cos_a p is never 0, and 0.0 - turns
    # a -0.0 imaginary part into 0.0 as the complex difference does
    c = complex_(cos_a * p, 0.0 - sin_a * q)
    cos_a *= q
    sin_a *= p
    # sin_a p + 1j (cos_a q) may carry the other sign of a zero part, but only
    # where the product with chi > 0 below gives that zero one sign
    sr = complex_(sin_a, cos_a)
    small = abs(x) < 1e-4
    if any(small):
        x2 = x * x
        sr = chi * where(small, exp(-b) * (1.0 - x2 / 6.0 + x2 * x2 / 120.0),
                         sr / where(small, 1.0, x))
    else:
        # sr / x, not sr /= x: on one point of floats sr is a 0-d array, and
        # sr / x a numpy scalar, so the products below round as the plain
        # expressions' do
        sr = sr / x
        sr *= chi
    t = w * w
    t += 1
    t *= 1j
    return w, x, c, t * sr, sr


def _complex_array(re, im):
    """re + i im with numpy: a new array of re's shape (0-d for floats)."""
    z = np.empty_like(re, dtype=complex)
    z.real = re
    z.imag = im
    return z


_NUMPY = (np.exp, np.expm1, np.cos, np.sin, np.where, np.any,
          lambda v: np.isfinite(v).all(), _complex_array)
_MATH = (math.exp, math.expm1, math.cos, math.sin,
         lambda cond, a, b: a if cond else b, bool, cmath.isfinite, complex)


def scaled_transfer(alpha, z, k):
    """Closed-form transfer matrix with its growth factor e^b taken out.

    Broadcasts over alpha, z and k (k > 0).  Returns (m11, m12, m22, b) with
    M = e^b [[m11, m12], [-m12, m22]], where m11 = e^{-2i chi}(c + t),
    m22 = e^{2i chi}(c - t) and m12 = i(w^2 - 1) sr from `_scaled_parts` at
    chi = alpha k and zeta = z/k^2, so no entry is formed unscaled.  At w = 0
    the analytic limits m11 -> e^{-2i chi}(1 + i chi),
    m22 -> e^{2i chi}(1 - i chi), m12 -> -i chi come out automatically.
    Raises OverflowError where alpha k or z/k^2 does not fit in a double.
    """
    chi = alpha * k
    w, x, c, t, sr = _scaled_parts(chi, z / k**2, _NUMPY)
    m11 = np.exp(-2j * chi) * (c + t)
    m22 = np.exp(2j * chi) * (c - t)
    m12 = 1j * (w * w - 1) * sr
    return m11, m12, m22, np.imag(x)


def scaled_moduli(chi, zeta):
    """(|m12|, |m22|, b) of `scaled_transfer` at real chi = alpha k and
    zeta = z/k^2 (numpy arrays, broadcast).

    |e^{+-2i chi}| = 1, so |m22| = |c - t| and |m12| = |w^2 - 1| |sr|: the
    phase factors and m11 are never formed.
    """
    w, x, c, t, sr = _scaled_parts(chi, zeta, _NUMPY)
    w = w * w
    w -= 1
    a12 = np.abs(w)
    a12 *= np.abs(sr)
    c -= t
    return a12, np.abs(c), x.imag


def transfer_matrix(spec, k):
    """Closed-form transfer matrix of the barrier at wave number k (nm^-1).

    The entries of `scaled_transfer` times e^b; raises OverflowError where
    they do not fit in a double.
    """
    _check_k(k)
    m11, m12, m22, b = scaled_transfer(spec.alpha, spec.z, k)
    try:
        g = math.exp(b)
    except OverflowError:
        raise OverflowError(f"transfer-matrix entries grow like e^{float(b):.6g} "
                            f"and do not fit in a double") from None
    m12 = complex(m12) * g
    return TransferMatrix(m11=complex(m11) * g, m12=m12, m21=-m12,
                          m22=complex(m22) * g)


def amplitudes(m):
    """Transmission and reflection amplitudes t = 1/m22 and r = -m21/m22."""
    if m.m22 == 0:
        raise SpectralSingularityError("m22 = 0: amplitudes are infinite")
    return ScatteringAmplitudes(t=1 / m.m22, r_left=-m.m21 / m.m22)


def m22_residual(spec, k):
    """Scale-free singularity residual |c - t| / ((|c| + |t|) min(1 + |x|, 1e3)).

    c, t and x are `_scaled_parts` at chi = alpha k and zeta = z/k^2, on
    math.  |c - t| = e^{-b} |m22|, measured against the rounding level of
    c - t, which grows like 1 + |x|; values below ~1e-9 certify a spectral
    singularity at working precision.  The growth is followed only up to
    |x| = 1e3, so a certified point always has |c - t| < 1e-6 (|c| + |t|) and
    no large alpha k can bring a point far from a zero of m22 under the gate.
    At the removable point z = k^2 it is |1 - i alpha k| / (1 + alpha k).
    Raises OverflowError where alpha k or z/k^2 does not fit in a double.
    """
    _check_k(k)
    _, x, c, t, _ = _scaled_parts(spec.alpha * k, spec.z / k**2, _MATH)
    return abs(c - t) / ((abs(c) + abs(t)) * min(1 + abs(x), 1e3))

