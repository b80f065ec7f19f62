"""The reduction of m22 = 0 to F(n; rho, y) = 0, the only place it is
written: the locus function F, its enclosure and G = alpha*k at a root.

    F = term1 - sinh(x)^2 / 2,   x = |y| R / (s + 1),   R = pi n - arccos a,

with s = sqrt(y^2 + 1), den = (1-rho)^2 y^2 + rho^2, term1 = (1-rho)(s+1)/den
and a = num_a/sqrt(den), num_a = 1 - (1-rho) s: the forms for rho < 1, the
only ones written, as every function here takes rho < 1.  num_a and S below
use the stable rewrite y^2/(s+1) of the s - 1 that cancels for small y.
arccos a is ill-conditioned near a = +-1 (1 - a ~ y^2 at small y, 1 + a ~
1/|y| at large |y|), so it is taken as atan2(S, num_a) with S^2 = den -
num_a^2 = 2(1-rho)(s - 1), and the pi is folded in: R = pi (n - 1) +
atan2(S, -num_a).  Where sinh(x) would overflow (x > 350) F is far below any
root and reads -1e300.

Lemma 1: for rho < 1 and sigma > 0 (so y > 0) every root of m22 lies on a
branch (n, -) above, n >= 1.  On the upper-half-plane branch, w = sqrt(1 -
rho - i sigma) has Re w = -sqrt((1-rho)(s+1)/2) < 0 < Im w.  With X = 2
alpha k w, Re X = -R for R = alpha k sqrt(2(1-rho)(s+1)) > 0 (so alpha k =
G) and Im X = x.  m22 = 0 iff (1+w)^2 e^{-iX} = (1-w)^2 e^{iX}, iff e^{iX}
= +-(1+w)/(1-w).  The modulus condition e^{-x} = |1+w|/|1-w| is F = 0.  And
(1+w)/(1-w) = (1 - |w|^2 + 2i Im w)/|1-w|^2, with |1 - w^2| = sqrt(den), has
argument arccos a in (0, pi), so R = pi n - arccos a.  A branch (n, +), R =
pi n + arccos a, meets this only where a = 0, at the point of (n+1, -).

At rho >= 1, where part of ``waveguide``'s design grid lies, F < 0 on a
branch (n, -), and that sign is all its brackets take.  Lemma 2: for rho > 1,
n >= 1, y != 0 and theta = arccos a, the textbook term1 = (rho-1)(s-1)/den
and num_a = 1 - (rho-1) s give S^2 = 2(rho-1)(s+1) > 0, sin^2 theta =
S^2/den and 2 term1 = x^2 sin^2 theta / R^2; as R = pi (n-1) + (pi - theta)
>= sin theta > 0, 2 term1 <= x^2 < sinh(x)^2.  At rho = 1, term1 = 0.

``YGrid`` holds a y grid with the pieces that depend on y alone (s, s + 1,
s - 1 and |y|), so a bracketing grid built once (``locus`` keeps one from
import) pays for them once, not on every call.  The helpers ``_num_a``,
``_sin2_a`` and ``_term1`` are the only statement of the stable forms; they
are written with augmented assignment, so the same lines serve floats
(``f_scalar`` for the root polish, ``alpha_k`` for G) and arrays, which
they allocate once and then update in place (``f_grid``, with rho and y
broadcast against each other).  The float and array paths agree up to the
last-place differences between numpy's and libm's atan2 and sinh.

``f_bounds`` encloses F on cells [y0, y1] (0 <= y0 <= y1) in the sense of
interval analysis (Moore, Kearfott & Cloud, Introduction to Interval
Analysis, SIAM 2009): every piece of F is monotone in y there, so the same
helpers evaluated at the cells' ends bound it, widened by a relative margin
far above f_grid's rounding error.  The cells are a YGrid of two rows, y0
and y1, one column per cell, neighbouring or not.  A cell whose bounds
exclude 0 provably holds no root of F and no sign change of f_grid.
"""

import math
import sys

import numpy as np

__all__ = ["YGrid", "alpha_k", "f_bounds", "f_grid", "f_scalar"]

_OVERFLOW = 350.0
_SENTINEL = -1e300
#: outward margin of f_bounds, relative to each of F's two terms; f_grid's
#: error against a 50-digit F is tested below 1e-12 of their sum
_MARGIN = 1e-9
#: the factors that move a piece rising with y outward at rows [y0; y1]
_OUTWARD = np.array([[1.0 - _MARGIN], [1.0 + _MARGIN]])


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


def _num_a(rho, s, sm):
    """Arccos numerator 1 - (1-rho) s = rho s - (s - 1)."""
    t = rho * s
    t -= sm
    return t


def _term1(rho, sp, den):
    """First term (1-rho)(s+1)/den."""
    t = (1.0 - rho) * sp
    t /= den
    return t


def _den(rho, y):
    """den = (1-rho)^2 y^2 + rho^2."""
    t = (1.0 - rho) ** 2 * y
    t *= y
    t += rho * rho
    return t


def _sin2_a(rho, y, sp):
    """S^2 = den - num_a^2 = 2(1-rho)(s - 1) = 2(1-rho) y^2/(s+1)."""
    t = 2.0 * (1.0 - rho) * y
    t *= y
    t /= sp
    return t


def _phase(n, rho, y, s, sp, sm):
    """R at one point, from the pieces f_scalar and alpha_k share."""
    sin_a = math.sqrt(_sin2_a(rho, y, sp))
    return math.pi * (n - 1) + math.atan2(sin_a, -_num_a(rho, s, sm))


def alpha_k(n, rho, y):
    """G = alpha*k = R / sqrt(2(1-rho)(s+1)) at one point (floats)."""
    s, sp, sm, _ = _y_pieces(y)
    return _phase(n, rho, y, s, sp, sm) / math.sqrt(2.0 * (1.0 - rho) * sp)


def f_scalar(n, rho, y):
    """F at one point (floats)."""
    s, sp, sm, ay = _y_pieces(y)
    x = ay * _phase(n, rho, y, s, sp, sm) / sp
    if x > _OVERFLOW:
        return _SENTINEL
    sh = math.sinh(x)
    return _term1(rho, sp, _den(rho, y)) - 0.5 * sh * sh


def f_grid(n, rho, y):
    """F on arrays; rho and y (an array or a YGrid of one) broadcast against
    each other.  Each helper allocates its result once; the rest is in
    place."""
    g = y if isinstance(y, YGrid) else YGrid(y)
    x = _sin2_a(rho, g.y, g.sp)
    np.sqrt(x, out=x)
    num_a = _num_a(rho, g.s, g.sm)
    np.negative(num_a, out=num_a)
    np.arctan2(x, num_a, out=x)
    x += math.pi * (n - 1)  # R
    x *= g.ay
    x /= g.sp
    over = ~(x <= _OVERFLOW)  # x > 350, or NaN
    np.minimum(x, _OVERFLOW, out=x)  # sinh stays finite; these points read -1e300
    sh = np.sinh(x, out=x)
    half_sh2 = np.multiply(sh, 0.5, out=num_a)
    half_sh2 *= sh
    f = _term1(rho, g.sp, _den(rho, g.y))
    f -= half_sh2
    f[over] = _SENTINEL
    return f


def f_bounds(n, rho, cells):
    """Bounds lo <= F <= hi on each of ``cells``, for rho < 1 and n >= 1.

    ``cells`` is a YGrid of two rows, y0 and y1, with one column per cell
    [y0, y1], 0 <= y0 <= y1: neighbouring, nested or of zero width.  rho is
    a 1-d array.  The bounds have shape (rho.size, 2, cells): for rho[i],
    rows lo and hi with one column per cell.  The masks lo > 0 and hi < 0
    of a row are those of its rho alone (a one-element array); a bound may
    differ from that one's in its last bit, where numpy's vector loops
    round differently for different layouts.

    On y >= 0 the pieces are monotone: S, |y|/(s+1), s + 1, den and C =
    -num_a rise with y.  As S >= 0, atan2(S, C) falls with C and is monotone
    in S at fixed C, so R takes its extremes at the cell's corners, x lies
    in [R_lo |y0|/(s0+1), R_hi |y1|/(s1+1)] and term1 in [(1-rho)(s0+1)/den1,
    (1-rho)(s1+1)/den0].

    |y|/(s+1) and s + 1 are moved outward by the relative margin _MARGIN
    (down at y0, up at y1), far above the rounding error of f_grid; a margin
    on x moves sinh(x)^2 by at least twice as much, so each of F's two
    terms moves by at least _MARGIN, and a cell with lo > 0 or hi < 0 holds
    no root and no sign change of f_grid.  (Where f_grid reads -1e300 for
    x > 350, lo is below that, and hi may be too.)  Where y0 = 0 and rho^2
    is below the normal range, den0 is 0 or inexact and hi is +inf; where
    den1 underflows, lo is +inf, and the cell is excluded without a warning.
    """
    rho = rho[:, None, None]  # a row of cell ends per rho
    down = np.s_[..., ::-1, :]  # rows [y1; y0] of the same pieces
    sin_a = _sin2_a(rho, cells.y, cells.sp)
    np.sqrt(sin_a, out=sin_a)
    c = _num_a(rho, cells.s, cells.sm)
    np.negative(c, out=c)
    x = np.arctan2(sin_a[down], c)  # the corners (S1, C_lo) and (S0, C_hi)
    other = np.arctan2(sin_a, c)  # (S0, C_lo) and (S1, C_hi)
    hi, lo = x[..., 0, :], x[..., 1, :]
    np.maximum(hi, other[..., 0, :], out=hi)
    np.minimum(lo, other[..., 1, :], out=lo)
    x += math.pi * (n - 1)  # R_hi, R_lo
    x *= (cells.ay / cells.sp * _OUTWARD)[down]  # x_hi, x_lo
    np.minimum(x, _OVERFLOW, out=x)  # as in f_grid: sinh stays finite
    half_sh2 = np.sinh(x, out=x)
    half_sh2 *= half_sh2
    half_sh2 *= 0.5
    den = _den(rho, cells.y[down])
    den0 = den[..., 1, :]
    unbounded = den0 < sys.float_info.min  # y0 = 0 with rho^2 below the normal range
    den0[unbounded] = 1.0
    with np.errstate(divide="ignore", over="ignore"):  # lo = +inf where den1 underflows
        bounds = _term1(rho, cells.sp * _OUTWARD, den)  # (sp0, den1), (sp1, den0)
    bounds[..., 1, :][unbounded] = math.inf
    bounds -= half_sh2
    return bounds
