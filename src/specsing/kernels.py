"""The reduction of m22 = 0 to F(n, eps; rho, y) = 0, the only place it is
written: the locus function F and the phase R that fixes alpha*k.

    F = term1 - sinh(x)^2 / 2,   x = |y| R / (s + 1),   R = pi n + eps arccos a,

with s = sqrt(y^2 + 1), den = (1-rho)^2 y^2 + rho^2 and a = num_a/sqrt(den).
The textbook term1 and num_a contain s - 1 and 1 - |1-rho| s, which cancel
catastrophically for small y; both sides of rho = 1 use the stable rewrites
s - 1 = y^2/(s+1) and (for rho < 1) 1 - (1-rho) s = rho s - y^2/(s+1).
arccos a is ill-conditioned near a = +-1 (1 - a ~ y^2 at small y, 1 + a ~
1/|y| at large |y|), so it is taken as atan2(S, num_a) with S^2 = den -
num_a^2 = 2|1-rho|(s -+ 1) (- below rho = 1, + above), and for eps = -1 the
pi is folded in: pi n - arccos a = pi (n - 1) + atan2(S, -num_a).  Where
sinh(x) would overflow (x > 350) F is far below any root and reads -1e300.

``f_scalar`` evaluates one point with the math module (the root polish) and
``phase`` gives R there; ``f_grid`` evaluates numpy arrays, with rho and y
broadcast against each other (the bracketing grids).  The two agree up to
the last-place differences between numpy's and libm's atan2 and sinh.
"""

import math

import numpy as np

__all__ = ["f_scalar", "f_grid", "phase"]

_OVERFLOW = 350.0
_SENTINEL = -1e300


def _num_a(rho, y, s, below):
    """Arccos numerator 1 - |1-rho| s; ``below`` is rho < 1."""
    return rho * s - y * y / (s + 1.0) if below else 1.0 - (rho - 1.0) * s


def _term1(rho, y, s, den, below):
    """First term |1-rho| (s+1 or s-1) / den; ``below`` is rho < 1."""
    if below:
        return (1.0 - rho) * (s + 1.0) / den
    return (rho - 1.0) * y * y / ((s + 1.0) * den)


def _sin2_a(rho, y, s, below):
    """S^2 = den - num_a^2 = 2|1-rho| (s - 1 or s + 1); ``below`` is rho < 1."""
    if below:
        return 2.0 * (1.0 - rho) * y * y / (s + 1.0)
    return 2.0 * (rho - 1.0) * (s + 1.0)


def _side(below, part, *args):
    """``part`` on the side of rho = 1 where ``below`` puts each element."""
    if np.ndim(below) == 0:
        return part(*args, below)
    return np.where(below, part(*args, True), part(*args, False))


def _phase(n, eps, rho, y, s, below):
    """R at one point, from the pieces f_scalar shares."""
    sin_a = math.sqrt(_sin2_a(rho, y, s, below))
    return math.pi * (n + (eps - 1) // 2) + math.atan2(sin_a, eps * _num_a(rho, y, s, below))


def phase(n, eps, rho, y):
    """R = pi n + eps arccos a at one point (floats); alpha*k = R/sqrt(2|1-rho|(s+1))."""
    return _phase(n, eps, rho, y, math.sqrt(y * y + 1.0), rho < 1.0)


def f_scalar(n, eps, rho, y):
    """F at one point (floats)."""
    s = math.sqrt(y * y + 1.0)
    den = (1.0 - rho) ** 2 * y * y + rho * rho
    below = rho < 1.0
    x = abs(y) * _phase(n, eps, rho, y, s, below) / (s + 1.0)
    if x > _OVERFLOW:
        return _SENTINEL
    sh = math.sinh(x)
    return _term1(rho, y, s, den, below) - 0.5 * sh * sh


def f_grid(n, eps, rho, y):
    """F on arrays; rho and y broadcast against each other."""
    y = np.asarray(y, dtype=float)
    s = np.sqrt(y * y + 1.0)
    den = (1.0 - rho) ** 2 * y * y + rho * rho
    below = rho < 1.0
    sin_a = np.sqrt(_side(below, _sin2_a, rho, y, s))
    r = np.pi * (n + (eps - 1) // 2) + np.arctan2(sin_a, eps * _side(below, _num_a, rho, y, s))
    x = np.abs(y) * r / (s + 1.0)
    safe = x <= _OVERFLOW
    out = np.full(x.shape, _SENTINEL)
    sh = np.sinh(x[safe])
    out[safe] = _side(below, _term1, rho, y, s, den)[safe] - 0.5 * sh * sh
    return out
