"""Independent references that the tests check the package against.

A check is independent only if the code it checks cannot reach it, so these
live beside the tests: nothing in ``specsing``, its command line or its
benchmark calls them, and CI fails if importing ``specsing.cli`` loads this
module.  ``oracle_transfer_matrix`` re-derives M by plane-wave matching,
``mp_scaled_transfer`` evaluates the textbook entries at mpmath precision,
``alpha_z_k_transfer`` is the numpy closed form as first written on
(alpha, z, k), ``textbook_f`` is F(n, eps; rho, y) = term1 - sinh(x)^2/2
from its textbook forms at mpmath precision and ``textbook_l`` the
package's locus function L = asinh sqrt(2 term1) - x from the same forms,
``f_grid_both_sides`` is F on arrays as first written, with both sides of
rho = 1 evaluated at every point and one kept (the package has only L,
only the forms for rho < 1 and the branches eps = -1; this module keeps F,
its overflow sentinel and the forms for rho >= 1 and eps = +1),
``wavefunction_profile`` builds psi from the package's amplitudes
(``amplitudes_of``), ``coupling_of`` gives z from the permittivity rather
than from (rho, sigma), and ``q_of`` and ``r_of`` are the textbook q and r
of the trig identities.  ``check_barrier`` holds the checks of a physical
(alpha, z, k), which the package makes only in ``cli transfer``: its
barrier takes chi = alpha k and zeta = z/k^2.  ``CAPPED_DESIGN`` is a
reference input, not an oracle: a design as frozen doubles whose scan has a
capped row.
"""

import math

import numpy as np

from specsing.barrier import _NUMPY, principal_sqrt_upper, transfer_matrix
from specsing.kernels import YGrid, _den, _num_a, _sin2_a, _term1
from specsing.locus import BranchLabel
from specsing.waveguide import HBAR_C_EV_NM, SingularitySolution, permittivity


class NumericalDegeneracyError(ArithmeticError):
    """Raised when a plane-wave matching system is numerically singular."""


def check_barrier(alpha, z, k):
    """The physical barrier's own checks: alpha > 0 and z finite, and a k
    whose square neither underflows to 0 nor overflows to inf, so z/k^2
    is defined."""
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"z must be finite, got {z}")
    if not (0 < k < math.inf and 0 < k * k < math.inf):
        raise ValueError(f"k must be positive and finite with 0 < k^2 < inf, got {k}")


def oracle_transfer_matrix(alpha, z, k):
    """Transfer matrix by direct plane-wave matching; independent oracle.

    For each prescribed left-side coefficient pair (1,0), (0,1) the interior
    solution C e^{i k w x} + D e^{-i k w x} is matched (value and derivative)
    at x = -alpha and x = +alpha and the right-side pair is read off; the two
    results form the matrix columns.  Uses numpy's standard sqrt branch: the
    interior basis only spans the same space, so the result is branch-free.
    """
    check_barrier(alpha, z, k)
    a = alpha
    w = np.sqrt(complex(1 - z / k**2))
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
        b = np.array([am * em + bm * ep, am * em - bm * ep, 0, 0], dtype=complex)
        try:
            sol = np.linalg.solve(A, b)
        except np.linalg.LinAlgError as exc:
            raise NumericalDegeneracyError(str(exc)) from exc
        cols.append((sol[2], sol[3]))
    return cols[0][0], cols[1][0], cols[0][1], cols[1][1]  # m11, m12, m21, m22


def mp_scaled_transfer(mp, alpha, z, k):
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


def alpha_z_k_parts(alpha, z, k, ops):
    """`_scaled_parts` as written on (alpha, z, k), before it took
    chi = alpha k and zeta = z/k^2: (chi, w, x, c, t, sr)."""
    exp, expm1, cos, sin, where, any, finite, _ = ops
    chi = alpha * k
    w = principal_sqrt_upper(1 - z / k**2)
    x = 2 * chi * w
    assert finite(x)
    a, b = x.real, x.imag
    p = 0.5 + 0.5 * exp(-2 * b)
    q = -0.5 * expm1(-2 * b)
    cos_a, sin_a = cos(a), sin(a)
    c = cos_a * p - 1j * (sin_a * q)
    small = abs(x) < 1e-4
    sinc = (sin_a * p + 1j * (cos_a * q)) / where(small, 1.0, x)
    if any(small):
        x2 = x * x
        sinc = where(small, exp(-b) * (1.0 - x2 / 6.0 + x2 * x2 / 120.0), sinc)
    sr = chi * sinc
    return chi, w, x, c, 1j * (1 + w * w) * sr, sr


def alpha_z_k_transfer(alpha, z, k):
    """The scaled (m11, m12, m22, b) on numpy arrays (it broadcasts), from
    `alpha_z_k_parts`."""
    chi, w, x, c, t, sr = alpha_z_k_parts(alpha, z, k, _NUMPY)
    return (np.exp(-2j * chi) * (c + t), 1j * (w * w - 1) * sr,
            np.exp(2j * chi) * (c - t), np.imag(x))


def _textbook_parts(mp, n, eps, rho, y):
    """(term1, x) on the branch R = pi n + eps arccos a, from their
    textbook forms at mpmath precision."""
    rho, y = mp.mpf(rho), mp.mpf(y)
    s = mp.sqrt(y * y + 1)
    ar = abs(1 - rho)
    den = (1 - rho) ** 2 * y * y + rho * rho
    term1 = (ar * s + 1 - rho) / den
    a = min(mp.mpf(1), max(mp.mpf(-1), (1 - ar * s) / mp.sqrt(den)))
    return term1, (mp.pi * n + eps * mp.acos(a)) * mp.sqrt((s - 1) / (s + 1))


def textbook_f(mp, n, eps, rho, y):
    """F = term1 - sinh(x)^2/2 on the branch R = pi n + eps arccos a, from
    its textbook forms at mpmath precision, with the scale |term1| +
    sinh(x)^2/2 it cancels from and x itself."""
    term1, x = _textbook_parts(mp, n, eps, rho, y)
    half_sh2 = mp.sinh(x) ** 2 / 2
    return term1 - half_sh2, abs(term1) + half_sh2, x


def textbook_l(mp, n, rho, y):
    """L = X* - x on the branch (n, -) at mpmath precision, X* = asinh
    sqrt(2 term1), from the textbook forms of ``textbook_f``, with the scale
    X* + x it cancels from and x itself."""
    term1, x = _textbook_parts(mp, n, -1, rho, y)
    x_star = mp.asinh(mp.sqrt(2 * term1))
    return x_star - x, x_star + x, x


#: F's overflow guard: where x > _OVERFLOW, sinh(x)^2 would overflow, and F
#: reads _SENTINEL, far below any root
_OVERFLOW = 350.0
_SENTINEL = -1e300


def f_grid_both_sides(n, eps, rho, y):
    """`kernels.f_grid` as it was when one call took rho on both sides of 1:
    each piece is evaluated in the package's form for rho < 1 and in its
    form for rho >= 1 at every point, and one is kept.  Above rho = 1, S^2 =
    2|1-rho| (s + 1), num_a = 1 - |1-rho| s and term1 = |1-rho| (s - 1)/den."""
    g = y if isinstance(y, YGrid) else YGrid(y)
    below = rho < 1.0
    x = np.where(below, _sin2_a(rho, g.y, g.sp), 2.0 * (rho - 1.0) * g.sp)
    np.sqrt(x, out=x)
    num_a = np.where(below, _num_a(rho, g.s, g.sm), 1.0 - (rho - 1.0) * g.s)
    if eps < 0:
        np.negative(num_a, out=num_a)
    np.arctan2(x, num_a, out=x)
    x += math.pi * (n + (eps - 1) // 2)  # R
    x *= np.abs(g.y)
    x /= g.sp
    over = ~(x <= _OVERFLOW)  # x > 350, or NaN
    np.minimum(x, _OVERFLOW, out=x)  # sinh stays finite; these points read -1e300
    sh = np.sinh(x, out=x)
    half_sh2 = np.multiply(sh, 0.5, out=num_a)
    half_sh2 *= sh
    den = _den(rho, g.y)
    f = np.where(below, _term1(rho, g.sp, den), (rho - 1.0) * g.y * g.y / (g.sp * den))
    f -= half_sh2
    f[over] = _SENTINEL
    return f


def amplitudes_of(alpha, z, k):
    """t = e^{-b}/m22 and r = m12/m22 from the package's scaled transfer
    matrix at chi = alpha k, zeta = z/k^2; the barrier is symmetric, so r is
    both the left- and the right-incident reflection amplitude."""
    check_barrier(alpha, z, k)
    _, m12, m22, b = transfer_matrix(alpha * k, z / k**2)
    return math.exp(-b) / m22, m12 / m22


def wavefunction_profile(alpha, z, k, which, xs):
    """Scattering wavefunction psi(x) sampled at sorted positions xs (nm).

    which: 'left-incident' (unit wave from x = -inf) or 'right-incident'.
    psi and psi' are continuous at +-alpha by construction.  The barrier is
    symmetric (m21 = -m12), so both incidences reflect with the same r.
    """
    if which not in ("left-incident", "right-incident"):
        raise ValueError(f"unknown incidence {which!r}")
    a = alpha
    t, r = amplitudes_of(alpha, z, k)
    w = np.sqrt(complex(1 - z / k**2))
    if w == 0:
        raise NumericalDegeneracyError("degenerate interior (z = k^2)")
    if which == "left-incident":
        # x < -a: e^{ikx} + R e^{-ikx};  x > a: T e^{ikx}
        a_l, b_l = 1.0, r
        a_r, b_r = t, 0.0
    else:
        # x > a: e^{-ikx} + R e^{ikx};  x < -a: T e^{-ikx}
        a_l, b_l = 0.0, t
        a_r, b_r = r, 1.0
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


def coupling_of(medium, omega):
    """Complex barrier coupling z (nm^-2) at the drive frequency omega, a
    float or an array of them."""
    kk = omega / HBAR_C_EV_NM  # vacuum wave number omega/c
    return kk * kk * (1 - permittivity(medium, omega))


def q_of(rho, y, alpha_k):
    """alpha_k * sqrt(2|1-rho|(sqrt(y^2+1)-1)) * sgn(y); odd in y."""
    if rho == 1:
        raise ValueError("rho = 1")
    s = math.sqrt(y * y + 1.0)
    return alpha_k * math.sqrt(2.0 * abs(1.0 - rho) / (s + 1.0)) * y


def r_of(rho, y, alpha_k):
    """alpha_k * sqrt(2|1-rho|(sqrt(y^2+1)+1)); positive for alpha_k > 0."""
    if rho == 1:
        raise ValueError("rho = 1")
    s = math.sqrt(y * y + 1.0)
    return alpha_k * math.sqrt(2.0 * abs(1.0 - rho) * (s + 1.0))


#: the ell = 2 design of n = 10000 in the medium (omega0, omega_p^2, delta) =
#: (5, -0.04, 1.25) eV at 2 beta/m = 1 cm, as the solver gave it, frozen: at
#: its omega m~22 rounds to exactly 0, so the scan row at ratio 1 is capped.
#: One ulp more of omega leaves no row of a 21-point scan capped, so a test
#: that needs a capped row takes these doubles, not the solver's
CAPPED_DESIGN = SingularitySolution(
    branch=BranchLabel(n=10000), ell=2, omega=2.1554773389535136, k=0.010923378717358911,
    alpha=1439323.6093751006, lam=575.2052974777915,
    epsilon=(0.998163500968723-0.0004862125505264838j),
    refractive_index=(0.9990813581376236-0.00024332980821142896j), residual=0.0,
    rho_star=0.0018364990327961296, sigma_star=0.00048621255092865597)
