"""Independent references that the tests check the package against.

A check is independent only if the code it checks cannot reach it, so these
live beside the tests: nothing in ``specsing``, its command line or its
benchmark calls them, and CI fails if importing ``specsing.cli`` loads this
module.  ``oracle_transfer_matrix`` re-derives M by plane-wave matching,
``wavefunction_profile`` builds psi from the package's amplitudes,
``coupling_of`` gives z from the permittivity rather than from (rho, sigma),
and ``q_of`` and ``r_of`` are the textbook q and r of the trig identities.
"""

import math

import numpy as np

from specsing.barrier import TransferMatrix, _check_k, amplitudes, transfer_matrix
from specsing.constants import HBAR_C_EV_NM
from specsing.waveguide import permittivity


class NumericalDegeneracyError(ArithmeticError):
    """Raised when a plane-wave matching system is numerically singular."""


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
        b = np.array([am * em + bm * ep, am * em - bm * ep, 0, 0], dtype=complex)
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
    psi and psi' are continuous at +-alpha by construction.  The barrier is
    symmetric (m21 = -m12), so both incidences reflect with r_left.
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
        a_r, b_r = amp.r_left, 1.0
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
