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

``YGrid`` holds a y grid with the pieces that depend on y alone (s, s + 1,
s - 1 and |y|), so a bracketing grid built once (``locus`` keeps one from
import) pays for them once, not on every call.  The per-side helpers
``_num_a``, ``_sin2_a`` and ``_term1`` are the only statement of the stable
forms; they are written with augmented assignment, so the same lines serve
floats (``f_scalar`` for the root polish, ``phase`` for R) and arrays, which
they allocate once and then update in place (``f_grid``, with rho and y
broadcast against each other).  The float and array paths agree up to the
last-place differences between numpy's and libm's atan2 and sinh.
"""

import math

import numpy as np

__all__ = ["YGrid", "f_scalar", "f_grid", "phase"]

_OVERFLOW = 350.0
_SENTINEL = -1e300


class YGrid:
    """A y grid with the pieces of F that depend on y alone: s = sqrt(y^2 +
    1), sp = s + 1, sm = s - 1 = y^2/(s+1) and ay = |y| (read-only arrays)."""

    __slots__ = ("y", "s", "sp", "sm", "ay")

    def __init__(self, y):
        self.y = np.atleast_1d(np.asarray(y, dtype=float))
        self.s, self.sp, self.sm, self.ay = _y_pieces(self.y, np.sqrt)
        for piece in (self.s, self.sp, self.sm, self.ay):
            piece.flags.writeable = False


def _y_pieces(y, sqrt=math.sqrt):
    """s, s + 1, s - 1 = y^2/(s+1) and |y|, of a float or (with np.sqrt) an array."""
    s = sqrt(y * y + 1.0)
    sp = s + 1.0
    return s, sp, y * y / sp, abs(y)


def _num_a(rho, s, sm, below):
    """Arccos numerator 1 - |1-rho| s; ``below`` is rho < 1."""
    if below:
        t = rho * s
        t -= sm
        return t
    return 1.0 - (rho - 1.0) * s


def _term1(rho, y, sp, den, below):
    """First term |1-rho| (s+1 or s-1) / den; ``below`` is rho < 1."""
    if below:
        t = (1.0 - rho) * sp
        t /= den
        return t
    t = (rho - 1.0) * y
    t *= y
    t /= sp * den
    return t


def _sin2_a(rho, y, sp, below):
    """S^2 = den - num_a^2 = 2|1-rho| (s - 1 or s + 1); ``below`` is rho < 1."""
    if below:
        t = 2.0 * (1.0 - rho) * y
        t *= y
        t /= sp
        return t
    return 2.0 * (rho - 1.0) * sp


def _side(below, part, *args):
    """``part`` on the side of rho = 1 where ``below`` puts each element."""
    if np.ndim(below) == 0:
        return part(*args, below)
    return np.where(below, part(*args, True), part(*args, False))


def _phase(n, eps, rho, y, s, sp, sm, below):
    """R at one point, from the pieces f_scalar shares."""
    sin_a = math.sqrt(_sin2_a(rho, y, sp, below))
    return math.pi * (n + (eps - 1) // 2) + math.atan2(sin_a, eps * _num_a(rho, s, sm, below))


def phase(n, eps, rho, y):
    """R = pi n + eps arccos a at one point (floats); alpha*k = R/sqrt(2|1-rho|(s+1))."""
    s, sp, sm, _ = _y_pieces(y)
    return _phase(n, eps, rho, y, s, sp, sm, rho < 1.0)


def f_scalar(n, eps, rho, y):
    """F at one point (floats)."""
    s, sp, sm, ay = _y_pieces(y)
    den = (1.0 - rho) ** 2 * y * y + rho * rho
    below = rho < 1.0
    x = ay * _phase(n, eps, rho, y, s, sp, sm, below) / sp
    if x > _OVERFLOW:
        return _SENTINEL
    sh = math.sinh(x)
    return _term1(rho, y, sp, den, below) - 0.5 * sh * sh


def f_grid(n, eps, rho, y):
    """F on arrays; rho and y (an array or a YGrid of one) broadcast against
    each other.  Each helper allocates its result once; the rest is in place."""
    g = y if isinstance(y, YGrid) else YGrid(y)
    below = rho < 1.0
    x = _side(below, _sin2_a, rho, g.y, g.sp)
    np.sqrt(x, out=x)
    num_a = _side(below, _num_a, rho, g.s, g.sm)
    if eps < 0:
        np.negative(num_a, out=num_a)
    np.arctan2(x, num_a, out=x)
    x += math.pi * (n + (eps - 1) // 2)  # R
    x *= g.ay
    x /= g.sp
    over = ~(x <= _OVERFLOW)  # x > 350, or NaN
    np.minimum(x, _OVERFLOW, out=x)  # sinh stays finite; these points read -1e300
    sh = np.sinh(x, out=x)
    half_sh2 = np.multiply(sh, 0.5, out=num_a)
    half_sh2 *= sh
    den = (1.0 - rho) ** 2 * g.y
    den *= g.y
    den += rho * rho
    f = _side(below, _term1, rho, g.y, g.sp, den)
    f -= half_sh2
    f[over] = _SENTINEL
    return f
