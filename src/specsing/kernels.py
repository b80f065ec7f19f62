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

``f_bounds`` encloses F on cells [y0, y1] (y >= 0, rho < 1) in the sense of
interval analysis (Moore, Kearfott & Cloud, Introduction to Interval
Analysis, SIAM 2009): every piece of F is monotone in y there, so the same
helpers evaluated at the cells' ends bound it, widened by a relative margin
far above f_grid's rounding error.  A cell whose bounds exclude 0 provably
holds no root of F and no sign change of f_grid.
"""

import math
import sys

import numpy as np

__all__ = ["Cells", "YGrid", "f_bounds", "f_grid", "f_scalar", "phase"]

_OVERFLOW = 350.0
_SENTINEL = -1e300
#: outward margin of f_bounds, relative to each of F's two terms; f_grid's
#: error against a 50-digit F is tested below 1e-12 of their sum
_MARGIN = 1e-9


class YGrid:
    """A y grid with the pieces of F that depend on y alone: s = sqrt(y^2 +
    1), sp = s + 1, sm = s - 1 = y^2/(s+1) and ay = |y| (read-only arrays)."""

    __slots__ = ("y", "s", "sp", "sm", "ay")

    def __init__(self, y):
        self.y = np.atleast_1d(np.asarray(y, dtype=float))
        self.s, self.sp, self.sm, self.ay = _y_pieces(self.y, np.sqrt)
        for piece in (self.s, self.sp, self.sm, self.ay):
            piece.flags.writeable = False

    def __getitem__(self, index):
        """The grid at a basic index (a slice): views of these pieces, so
        nothing is recomputed."""
        g = object.__new__(YGrid)
        for name in self.__slots__:
            setattr(g, name, getattr(self, name)[index])
        return g


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


def _den(rho, y):
    """den = (1-rho)^2 y^2 + rho^2."""
    t = (1.0 - rho) ** 2 * y
    t *= y
    t += rho * rho
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
    if not isinstance(below, np.ndarray):
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
    den = _den(rho, y)
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
    f = _side(below, _term1, rho, g.y, g.sp, _den(rho, g.y))
    f -= half_sh2
    f[over] = _SENTINEL
    return f


class Cells:
    """Cells [y0, y1] between ascending nodes y >= 0, laid out for f_bounds.

    ``ends`` is a YGrid of rows y0, y1 and y0 again, so that [y0; y1] and
    [y1; y0] are both contiguous views.  ``q`` holds |y|/(s+1) at [y1; y0]
    and ``sp`` holds s + 1 at [y0; y1], each moved outward by _MARGIN: up
    where it enters an upper bound on its term of F, down where it enters a
    lower one (a margin on x moves sinh(x)^2 by at least twice as much).
    """

    __slots__ = ("ends", "q", "sp")

    def __init__(self, nodes):
        nodes = np.asarray(nodes, dtype=float)
        self.ends = g = YGrid(np.stack((nodes[:-1], nodes[1:], nodes[:-1])))
        outward = np.array([[1.0 + _MARGIN], [1.0 - _MARGIN]])
        self.q = g.ay[1:] / g.sp[1:] * outward
        self.sp = g.sp[:2] * outward[::-1]


def f_bounds(n, eps, rho, cells):
    """Bounds lo <= F <= hi on each of ``cells`` (a Cells), for rho < 1 and
    a branch with R >= 0 (n >= 1, or n = 0 with eps = +1).

    rho is a float or a 1-d array of them.  The bounds are rows lo and hi on
    axis -2, one column per cell: shape (2, cells) for a float rho and
    (rho.size, 2, cells) for an array, whose row pair i is that of rho[i].
    The masks lo > 0 and hi < 0 are those of each rho on its own; a bound
    may differ from the float rho's in its last bit, where numpy's vector
    loops round differently from its scalar ones.

    Each of F's two terms is moved outward by at least the relative margin
    _MARGIN, far above the rounding error of f_grid, so a cell with lo > 0
    or hi < 0 holds no root and no sign change of f_grid.  (Where f_grid
    reads -1e300 for x > 350, lo is below that, and hi may be too.)

    On y >= 0 the pieces are monotone: S, |y|/(s+1), s + 1 and den rise with
    y, and C = eps num_a rises for eps = -1 and falls for +1.  As S >= 0,
    atan2(S, C) falls with C and is monotone in S at fixed C, so R takes its
    extremes at the cell's corners, x lies in [R_lo |y0|/(s0+1),
    R_hi |y1|/(s1+1)] and term1 in [(1-rho)(s0+1)/den1, (1-rho)(s1+1)/den0].
    """
    if isinstance(rho, np.ndarray):
        rho = rho[:, None, None]  # a row of ends per rho
    ends = cells.ends
    up, down = np.s_[..., 0:2, :], np.s_[..., 1:3, :]  # rows [y0; y1] and [y1; y0]
    sin_a = _sin2_a(rho, ends.y, ends.sp, True)
    np.sqrt(sin_a, out=sin_a)
    c = _num_a(rho, ends.s, ends.sm, True)
    if eps < 0:
        np.negative(c, out=c)
    c = c[up] if eps < 0 else c[down]  # C at its lower end, at its higher end
    x = np.arctan2(sin_a[down], c)  # the corners (S1, C_lo) and (S0, C_hi)
    other = np.arctan2(sin_a[up], c)  # (S0, C_lo) and (S1, C_hi)
    hi, lo = x[..., 0, :], x[..., 1, :]
    np.maximum(hi, other[..., 0, :], out=hi)
    np.minimum(lo, other[..., 1, :], out=lo)
    x += math.pi * (n + (eps - 1) // 2)  # R_hi, R_lo
    x *= cells.q  # x_hi, x_lo
    np.minimum(x, _OVERFLOW, out=x)  # as in f_grid: sinh stays finite
    half_sh2 = np.sinh(x, out=x)
    half_sh2 *= half_sh2
    half_sh2 *= 0.5
    den = _den(rho, ends.y[down])
    den0 = den[..., 1, :1]  # den at y0 of the first cell, one element per rho
    unbounded = den0 < sys.float_info.min  # y0 = 0 with rho^2 below the normal range
    den0[unbounded] = 1.0
    bounds = _term1(rho, ends.y[up], cells.sp, den, True)  # at (sp0, den1), (sp1, den0)
    bounds[..., 1, :1][unbounded] = math.inf
    bounds -= half_sh2
    return bounds
