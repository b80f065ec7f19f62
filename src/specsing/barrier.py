"""Transfer matrix and scattering amplitudes of the complex barrier potential.

The potential is v(x) = z for |x| < alpha and 0 elsewhere, with a complex
coupling z.  The closed-form transfer matrix is expressed through
w = sqrt(1 - z/k^2) taken on the upper-half-plane branch; a spectral
singularity is a real k at which the m22 entry vanishes, making the
reflection and transmission coefficients blow up.

`oracle_transfer_matrix` re-derives the matrix by brute-force plane-wave
matching (a 4x4 linear solve per basis column) and is kept deliberately
independent of the closed form for cross-validation.
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
    "NumericalDegeneracyError",
    "f_func",
    "scaled_transfer",
    "transfer_matrix",
    "amplitudes",
    "m22_residual",
    "oracle_transfer_matrix",
    "wavefunction_profile",
]


class SpectralSingularityError(ArithmeticError):
    """Raised when amplitudes are requested exactly at a zero of m22."""


class NumericalDegeneracyError(ArithmeticError):
    """Raised when a plane-wave matching system is numerically singular."""


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
    r_right: complex


def f_func(w, chi):
    """e^{-2i chi w}(1+w)^2 - e^{2i chi w}(1-w)^2; zero iff m22 is zero."""
    w = complex(w)
    return (cmath.exp(-2j * chi * w) * (1 + w) ** 2
            - cmath.exp(2j * chi * w) * (1 - w) ** 2)


def _check_k(k):
    if not (k > 0 and math.isfinite(k)):
        raise ValueError(f"k must be positive and finite, got {k}")


def scaled_transfer(alpha, z, k):
    """Closed-form transfer matrix with its growth factor e^b taken out.

    Broadcasts over alpha, z and k (k > 0).  With chi = alpha k,
    w = sqrt(1 - z/k^2) on the upper-half-plane branch and x = 2 chi w = a + ib
    (b >= 0), returns (m11, m12, m22, b) such that

        M = e^b [[m11, m12], [-m12, m22]].

    cos x and sin x enter only scaled,

        e^{-b} cos x = cos a p - i sin a q,    e^{-b} sin x = sin a p + i cos a q,

    with p = e^{-b} cosh b = (1 + e^{-2b})/2 and q = e^{-b} sinh b =
    -expm1(-2b)/2, so no entry is ever formed unscaled and nothing overflows
    however large b grows.  sin(x)/(2w) = chi sinc(x) removes the w = 0
    (z = k^2) removable point without a branch switch; the analytic limits
    m11 -> e^{-2i chi}(1 + i chi), m22 -> e^{2i chi}(1 - i chi),
    m12 -> -i chi come out automatically.
    """
    chi = alpha * k
    w = principal_sqrt_upper(1 - z / k**2)
    x = 2 * chi * w
    c, sinc = _scaled_cos_sinc(x)
    sr = chi * sinc  # e^{-b} sin(x) / (2w)
    w2 = w * w
    t = 1j * (1 + w2) * sr
    m11 = np.exp(-2j * chi) * (c + t)
    m22 = np.exp(2j * chi) * (c - t)
    m12 = 1j * (w2 - 1) * sr
    return m11, m12, m22, np.imag(x)


def _scaled_cos_sinc(x):
    """e^{-b} cos x and e^{-b} sin(x)/x for x = a + ib, b >= 0; the sinc by
    its series where |x| < 1e-4."""
    a, b = np.real(x), np.imag(x)
    p = 0.5 + 0.5 * np.exp(-2 * b)
    q = -0.5 * np.expm1(-2 * b)
    cos_a, sin_a = np.cos(a), np.sin(a)
    c = cos_a * p - 1j * (sin_a * q)
    small = np.abs(x) < 1e-4
    sinc = (sin_a * p + 1j * (cos_a * q)) / np.where(small, 1.0, x)
    if np.any(small):
        x2 = x * x
        sinc = np.where(small, np.exp(-b) * (1.0 - x2 / 6.0 + x2 * x2 / 120.0), sinc)
    return c, sinc


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
    """Transmission and reflection amplitudes t = 1/m22, r = -m21/m22, m12/m22."""
    if m.m22 == 0:
        raise SpectralSingularityError("m22 = 0: amplitudes are infinite")
    return ScatteringAmplitudes(
        t=1 / m.m22,
        r_left=-m.m21 / m.m22,
        r_right=m.m12 / m.m22,
    )


def m22_residual(spec, k):
    """Scale-free singularity residual |f(w, alpha k)| / (|1+w|^2 + |1-w|^2).

    Values below ~1e-9 certify a spectral singularity at working precision.
    The metric degenerates at the removable point z = k^2 (w = 0), where f
    vanishes identically while m22 stays finite; callers stay away from it.
    Where a term of f exceeds a double, f cannot vanish and the residual is
    inf.
    """
    _check_k(k)
    w = principal_sqrt_upper(1 - spec.z / k**2)
    try:
        f = f_func(w, spec.alpha * k)
    except OverflowError:
        return math.inf
    return abs(f) / (abs(1 + w) ** 2 + abs(1 - w) ** 2)


def oracle_transfer_matrix(spec, k):
    """Transfer matrix by direct plane-wave matching; independent oracle.

    For each prescribed left-side coefficient pair (1,0), (0,1) the interior
    solution C e^{i k w x} + D e^{-i k w x} is matched (value and derivative)
    at x = -alpha and x = +alpha and the right-side pair is read off; the two
    results form the matrix columns.  Uses numpy's standard sqrt branch: the
    interior basis only spans the same space, so the result is branch-free.
    """
    _check_k(k)
    a = spec.alpha
    w = np.sqrt(complex(1 - spec.z / k**2))
    if w == 0:
        raise NumericalDegeneracyError("degenerate interior (z = k^2)")
    ep = np.exp(1j * k * a)          # e^{+ika}
    em = np.exp(-1j * k * a)         # e^{-ika}
    fp = np.exp(1j * k * w * a)      # e^{+ikwa}
    fm = np.exp(-1j * k * w * a)     # e^{-ikwa}
    cols = []
    for am, bm in ((1.0, 0.0), (0.0, 1.0)):
        # unknowns: C, D, A+, B+
        A = np.array([
            [fm, fp, 0, 0],
            [w * fm, -w * fp, 0, 0],
            [fp, fm, -ep, -em],
            [w * fp, -w * fm, -ep, em],
        ], dtype=complex)
        b = np.array([
            am * em + bm * ep,
            am * em - bm * ep,
            0,
            0,
        ], dtype=complex)
        try:
            sol = np.linalg.solve(A, b)
        except np.linalg.LinAlgError as exc:
            raise NumericalDegeneracyError(str(exc)) from exc
        cols.append((sol[2], sol[3]))
    return TransferMatrix(m11=cols[0][0], m12=cols[1][0],
                          m21=cols[0][1], m22=cols[1][1])


def wavefunction_profile(spec, k, which, xs):
    """Scattering wavefunction psi(x) sampled at sorted positions xs (nm).

    which: 'left-incident' (unit wave from x = -inf) or 'right-incident'.
    psi and psi' are continuous at +-alpha by construction.
    """
    _check_k(k)
    if which not in ("left-incident", "right-incident"):
        raise ValueError(f"unknown incidence {which!r}")
    a = spec.alpha
    amp = amplitudes(transfer_matrix(spec, k))
    w = np.sqrt(complex(1 - spec.z / k**2))
    if w == 0:
        raise NumericalDegeneracyError("degenerate interior (z = k^2)")
    if which == "left-incident":
        # x < -a: e^{ikx} + R e^{-ikx};  x > a: T e^{ikx}
        a_l, b_l = 1.0, amp.r_left
        a_r, b_r = amp.t, 0.0
    else:
        # x > a: e^{-ikx} + R e^{ikx};  x < -a: T e^{-ikx}
        a_l, b_l = 0.0, amp.t
        a_r, b_r = amp.r_right, 1.0
    # interior C e^{ikwx} + D e^{-ikwx} matched at x = -a
    em = np.exp(-1j * k * a)
    ep = np.exp(1j * k * a)
    fm = np.exp(-1j * k * w * a)
    fp = np.exp(1j * k * w * a)
    A = np.array([[fm, fp], [w * fm, -w * fp]], dtype=complex)
    b = np.array([a_l * em + b_l * ep, a_l * em - b_l * ep], dtype=complex)
    try:
        c_in, d_in = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise NumericalDegeneracyError(str(exc)) from exc
    xs = np.asarray(xs, dtype=float)
    psi = np.empty(xs.shape, dtype=complex)
    left = xs < -a
    right = xs > a
    mid = ~(left | right)
    psi[left] = a_l * np.exp(1j * k * xs[left]) + b_l * np.exp(-1j * k * xs[left])
    psi[mid] = c_in * np.exp(1j * k * w * xs[mid]) + d_in * np.exp(-1j * k * w * xs[mid])
    psi[right] = a_r * np.exp(1j * k * xs[right]) + b_r * np.exp(-1j * k * xs[right])
    return psi
