"""Transfer matrix of the complex barrier potential.

The potential is v(x) = z for |x| < alpha and 0 elsewhere, with a complex
coupling z.  m22 depends on the barrier only through the dimensionless
chi = alpha k and zeta = z/k^2, and every entry point here takes those two:
the physical alpha, z and k are formed and checked by the caller.  The
closed-form transfer matrix is expressed through w = sqrt(1 - zeta) taken on
the upper-half-plane branch (`principal_sqrt_upper`); a spectral
singularity is a real k at which m22 vanishes, making the reflection and
transmission coefficients blow up.  `_scaled_parts` is the only statement
of the closed form, with the growth factor e^b of the entries taken out.
`transfer_matrix` and `m22_residual`, which certifies singularities,
evaluate it at one point with math; `scaled_moduli` evaluates it with numpy
(it broadcasts) and takes only the moduli a frequency scan prints from it.
`transfer_matrix` returns the scaled entries and b, never M itself, whose
entries overflow a double once b passes about 709.
"""

import cmath
import math

import numpy as np

__all__ = ["principal_sqrt_upper", "scaled_moduli", "transfer_matrix", "m22_residual"]


def principal_sqrt_upper(u):
    """Square root of a complex number with argument in [0, pi).

    This is NOT the standard principal branch: of the two roots of u we pick
    the one in the closed upper half plane, with the positive real axis
    included and the negative real axis excluded.  For Im(u) != 0 this flips
    the sign of the standard root whenever that root has negative imaginary
    part.

    Accepts scalars or arrays; u = 0 returns 0.
    """
    if isinstance(u, complex) or np.isscalar(u):  # the cheaper test first
        s = cmath.sqrt(u)
        if s.imag > 0 or (s.imag == 0 and s.real >= 0):
            return s
        return -s
    u = np.asarray(u, dtype=np.complex128)
    # numpy's principal root has Re >= 0, so only Im < 0 needs the flip
    s = np.sqrt(u, out=np.empty_like(u))
    np.negative(s, out=s, where=s.imag < 0)
    return s


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
    the w = 0 (zeta = 1) removable point.  Raises ValueError where chi < 0 or
    is NaN (chi = 0 is the zero-length barrier), and OverflowError where x is
    not finite (chi or zeta does not fit in a double).

    Each part keeps the doubles of the plain complex expressions.  c and the
    sinc numerator are built from their real and imaginary parts, plain real
    expressions.  Only t += 1, t *= 1j and sr *= chi work in place: a sum, or
    a product by a scalar or a real array, rounds there as into a new array.
    A complex-by-complex product does not: numpy rounds a*b and b*a
    differently, and an in-place product of one element differently from one
    into a new array, so those keep their order and go into new arrays.
    """
    exp, expm1, cos, sin, where, any, finite, complex_ = ops
    if any(chi < 0) or any(chi != chi):
        raise ValueError(f"chi = alpha k must be >= 0, got {chi}")
    w = principal_sqrt_upper(1 - zeta)
    x = 2 * chi * w
    if not finite(x):
        raise OverflowError("alpha k, z/k^2 or 2 alpha k w does not fit in a double")
    a, b = x.real, x.imag
    p = 0.5 + 0.5 * exp(-2 * b)
    q = -0.5 * expm1(-2 * b)
    cos_a, sin_a = cos(a), sin(a)
    # the parts of cos_a p - 1j (sin_a q): cos_a p is never 0, and 0.0 - turns
    # a -0.0 imaginary part into 0.0 as the complex difference does
    c = complex_(cos_a * p, 0.0 - sin_a * q)
    # sin_a p + 1j (cos_a q) may carry the other sign of a zero part, but only
    # where the product with chi > 0 below gives that zero one sign
    sr = complex_(sin_a * p, cos_a * q)
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


def scaled_moduli(chi, zeta):
    """(|m12|, |m22|, b) of `transfer_matrix` at real chi = alpha k and
    zeta = z/k^2 (numpy arrays, broadcast).

    |e^{+-2i chi}| = 1, so |m22| = |c - t| and |m12| = |w^2 - 1| |sr|: the
    phase factors and m11 are never formed.
    """
    w, x, c, t, sr = _scaled_parts(chi, zeta, _NUMPY)
    return np.abs(w * w - 1) * np.abs(sr), np.abs(c - t), x.imag


def transfer_matrix(chi, zeta):
    """Closed-form transfer matrix of the barrier at chi = alpha k and
    zeta = z/k^2, with its growth factor e^b taken out.

    Returns (m11, m12, m22, b) with M = e^b [[m11, m12], [-m12, m22]], where
    m11 = e^{-2i chi}(c + t), m22 = e^{2i chi}(c - t) and m12 = i(w^2 - 1) sr
    from `_scaled_parts`, so no entry is formed unscaled and none overflows.
    det M = 1, so m11 m22 + m12^2 = e^{-2b}; t = e^{-b}/m22 and r = m12/m22.
    At w = 0 the analytic limits m11 -> e^{-2i chi}(1 + i chi),
    m22 -> e^{2i chi}(1 - i chi), m12 -> -i chi come out automatically.
    Raises as `_scaled_parts` does.
    """
    w, x, c, t, sr = _scaled_parts(chi, zeta, _MATH)
    return (cmath.exp(-2j * chi) * (c + t), 1j * (w * w - 1) * sr,
            cmath.exp(2j * chi) * (c - t), x.imag)


def m22_residual(chi, zeta):
    """Scale-free singularity residual |c - t| / ((|c| + |t|) min(1 + |x|, 1e3)).

    c, t and x are `_scaled_parts` at chi = alpha k and zeta = z/k^2, on
    math.  |c - t| = e^{-b} |m22|, measured against the rounding level of
    c - t, which grows like 1 + |x|; values below ~1e-9 certify a spectral
    singularity at working precision.  The growth is followed only up to
    |x| = 1e3, so a certified point always has |c - t| < 1e-6 (|c| + |t|) and
    no large chi can bring a point far from a zero of m22 under the gate.
    At the removable point zeta = 1 it is |1 - i chi| / (1 + chi).  Raises as
    `_scaled_parts` does.
    """
    _, x, c, t, _ = _scaled_parts(chi, zeta, _MATH)
    return abs(c - t) / ((abs(c) + abs(t)) * min(1 + abs(x), 1e3))

