"""The locus function F(n, eps; rho, y), the only place it is written.

    F = term1 - sinh(x)^2 / 2,   x = |y| (pi n + eps arccos a) / (s + 1),

with s = sqrt(y^2 + 1), den = (1-rho)^2 y^2 + rho^2 and a = num_a/sqrt(den).
The textbook term1 and num_a contain s - 1 and 1 - |1-rho| s, which cancel
catastrophically for small y; both sides of rho = 1 use the stable rewrites
s - 1 = y^2/(s+1) and (for rho < 1) 1 - (1-rho) s = rho s - y^2/(s+1).
Rounding can push a out of [-1, 1] by an ulp, so it is clamped.  Where
sinh(x) would overflow (x > 350) F is far below any root and reads -1e300.

``f_scalar`` evaluates one point with the math module (the root polish);
``f_grid`` evaluates numpy arrays, with rho and y broadcast against each
other (the bracketing grids).  The two agree up to the last-place
differences between numpy's and libm's arccos and sinh.
"""

import math

import numpy as np

__all__ = ["f_scalar", "f_grid"]

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


def _side(below, part, *args):
    """``part`` on the side of rho = 1 where ``below`` puts each element."""
    if np.ndim(below) == 0:
        return part(*args, below)
    return np.where(below, part(*args, True), part(*args, False))


def f_scalar(n, eps, rho, y):
    """F at one point (floats)."""
    s = math.sqrt(y * y + 1.0)
    den = (1.0 - rho) ** 2 * y * y + rho * rho
    below = rho < 1.0
    a = min(1.0, max(-1.0, _num_a(rho, y, s, below) / math.sqrt(den)))
    x = abs(y) * (math.pi * n + eps * math.acos(a)) / (s + 1.0)
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
    a = np.clip(_side(below, _num_a, rho, y, s) / np.sqrt(den), -1.0, 1.0)
    x = np.abs(y) * (np.pi * n + eps * np.arccos(a)) / (s + 1.0)
    safe = x <= _OVERFLOW
    out = np.full(x.shape, _SENTINEL)
    sh = np.sinh(x[safe])
    out[safe] = _side(below, _term1, rho, y, s, den)[safe] - 0.5 * sh * sh
    return out
