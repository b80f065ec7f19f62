"""The reduction of m22 = 0 to L(n; rho, y) = 0, the only place it is
written: L, an enclosure of the branch index nu and G = alpha*k at a root.

    L = X* - x,   X* = asinh sqrt(2 term1),   x = y R / (s + 1),   R = pi n - arccos a,

with s = sqrt(y^2 + 1), den = (1-rho)^2 y^2 + rho^2, term1 = (1-rho)(s+1)/den
and a = num_a/sqrt(den), num_a = 1 - (1-rho) s: the forms for rho < 1 and
y >= 0, the only points any function here takes.  num_a and S below use the
stable rewrite y^2/(s+1) of the s - 1 that cancels for small y.  arccos a is
ill-conditioned near a = +-1 (1 - a ~ y^2 at small y, 1 + a ~ 1/y at large
y), so R = pi (n - 1) + atan2(S, -num_a), with S^2 = den - num_a^2 = 2(1-rho)
(s - 1).  x < R <= pi n and X* is the asinh of a double, so L overflows
nowhere.  Where den underflows (or 2 term1 overflows), f_grid reads L =
+inf, its true sign for n < 1e156: |rho| and y are below 1.5e-154 there,
so x < 2.4e-154 n while X* > 355.

Lemma 1: for rho < 1 and sigma > 0 every root of m22 lies on a branch (n, -)
above, n >= 1.  On the upper-half-plane branch, w = sqrt(1 - rho - i sigma)
has Re w = -sqrt((1-rho)(s+1)/2) < 0 < Im w.  With X = 2 alpha k w, Re X =
-R for R = alpha k sqrt(2(1-rho)(s+1)) > 0 (so alpha k = G) and Im X = x.
m22 = 0 iff (1+w)^2 e^{-iX} = (1-w)^2 e^{iX}, iff e^{iX} = +-(1+w)/(1-w).
The modulus condition e^{-x} = |1+w|/|1-w| is sinh(x)^2 = 2 term1, that is
L = 0, as sinh rises on x >= 0 (so sign L = sign(2 term1 - sinh(x)^2)).  And
(1+w)/(1-w) = (1 - |w|^2 + 2i Im w)/|1-w|^2, with |1 - w^2| = sqrt(den), has
argument arccos a in (0, pi), so R = pi n - arccos a.  A branch (n, +), R =
pi n + arccos a, meets this only where a = 0, at the point of (n+1, -).

Lemma 2: at rho >= 1, where part of ``waveguide``'s design grid lies, L < 0
on a branch (n, -), the sign its brackets take there.  For rho > 1, y != 0
and theta = arccos a, the textbook term1 = (rho-1)(s-1)/den and num_a = 1 -
(rho-1) s give S^2 = 2(rho-1)(s+1) > 0, sin^2 theta = S^2/den and 2 term1 =
x^2 sin^2 theta / R^2; as R = pi (n-1) + (pi - theta) >= sin theta > 0,
2 term1 <= x^2 < sinh(x)^2, so X* < |x|.  At rho = 1, term1 = 0.

Lemma 3: for sigma <= 0 and chi = alpha k > 0, m22 != 0: a lossy medium has
no design.  1 - zeta lies in the closed upper half-plane, so Re w >= 0 and
Im w >= 0.  Lemma 1's equation with w != 0 needs |1+w|^2 e^{Im X} = |1-w|^2
e^{-Im X}, where |1+w|^2 - |1-w|^2 = 4 Re w >= 0 and Im X = 2 chi Im w >= 0,
so w = 0; there m22 = e^{2i chi}(1 - i chi) != 0.

``YGrid`` holds the pieces of a y grid that depend on y alone, so a grid
built once (``locus`` keeps one from import) pays for them once.  The
helpers ``_num_a``, ``_sin2_a`` and ``_term1`` state the stable forms once,
with augmented assignment, so the same lines serve floats (``f_scalar``,
``alpha_k``) and arrays, updated in place (``f_grid``, with rho and y
broadcast).  The two paths differ by numpy's and libm's last-place atan2
and asinh.  ``f_bounds`` encloses the n-free branch index nu = ((s+1)/y X*
+ arccos a)/pi, whose level set nu = n is the branch (n, -) (nu - n = (s+1)
L/(pi y)), on cells [y0, y1], 0 <= y0 <= y1, in the sense of interval
analysis (Moore, Kearfott & Cloud, Introduction to Interval Analysis, SIAM
2009): every piece of nu is monotone in y, so the helpers at the cells'
ends bound it, widened by a relative margin.  A cell whose bounds exclude n
holds no root of L and no sign change of f_grid on the branch (n, -), and
one call serves every n.
"""

import math

import numpy as np

__all__ = ["YGrid", "alpha_k", "f_bounds", "f_grid", "f_scalar"]

#: outward margin of f_bounds, relative to nu; f_grid's error against a
#: 50-digit L is tested below a few ulps of X* + x
_MARGIN = 1e-9
#: the factors that move the bounds [lo; hi] on pi nu outward and divide by pi
_OUTWARD = np.array([[1.0 - _MARGIN], [1.0 + _MARGIN]]) / math.pi


class YGrid:
    """A y grid (y >= 0) with the pieces of L that depend on y alone: s =
    sqrt(y^2 + 1), sp = s + 1 and sm = s - 1 = y^2/(s+1) (read-only arrays)."""

    __slots__ = ("y", "s", "sp", "sm")

    def __init__(self, y):
        self.y = np.atleast_1d(np.asarray(y, dtype=float))
        self.s, self.sp, self.sm = _y_pieces(self.y, np.sqrt)
        for piece in (self.s, self.sp, self.sm):
            piece.flags.writeable = False

    def __getitem__(self, index):
        """The grid at a basic index (a slice): views of these pieces, so
        nothing is recomputed."""
        g = object.__new__(YGrid)
        for name in self.__slots__:
            setattr(g, name, getattr(self, name)[index])
        return g


def _y_pieces(y, sqrt=math.sqrt):
    """s, s + 1 and s - 1 = y^2/(s+1), of a float or (with np.sqrt) an array."""
    s = sqrt(y * y + 1.0)
    sp = s + 1.0
    return s, sp, y * y / sp


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


def _x_star(term1):
    """X* = asinh sqrt(2 term1) of an array term1, in place."""
    term1 *= 2.0
    np.sqrt(term1, out=term1)
    return np.arcsinh(term1, out=term1)


def _phase(n, rho, y, s, sp, sm):
    """R at one point, from the pieces f_scalar and alpha_k share."""
    sin_a = math.sqrt(_sin2_a(rho, y, sp))
    return math.pi * (n - 1) + math.atan2(sin_a, -_num_a(rho, s, sm))


def alpha_k(n, rho, y):
    """G = alpha*k = R / sqrt(2(1-rho)(s+1)) at one point (floats)."""
    s, sp, sm = _y_pieces(y)
    return _phase(n, rho, y, s, sp, sm) / math.sqrt(2.0 * (1.0 - rho) * sp)


def f_scalar(n, rho, y):
    """L at one point (floats)."""
    s, sp, sm = _y_pieces(y)
    x = y * _phase(n, rho, y, s, sp, sm) / sp
    return math.asinh(math.sqrt(2.0 * _term1(rho, sp, _den(rho, y)))) - x


def f_grid(n, rho, y):
    """L on arrays; rho and y (an array or a YGrid of one) broadcast against
    each other.  Each helper allocates its result once; the rest is in
    place."""
    g = y if isinstance(y, YGrid) else YGrid(y)
    x = _sin2_a(rho, g.y, g.sp)
    np.sqrt(x, out=x)
    num_a = _num_a(rho, g.s, g.sm)
    np.negative(num_a, out=num_a)
    np.arctan2(x, num_a, out=x)
    x += math.pi * (n - 1)  # R
    x *= g.y
    x /= g.sp
    f = _x_star(_term1(rho, g.sp, _den(rho, g.y)))
    f -= x
    return f


def f_bounds(rho, cells):
    """Bounds lo <= nu <= hi on each of ``cells``, for rho < 1.

    nu = ((s+1)/y X* + theta)/pi, with theta = arccos a = atan2(S, num_a),
    is the branch index at which L vanishes: nu - n = (s+1) L/(pi y), so a
    cell holds a root of L on the branch (n, -) only where lo <= n <= hi.
    ``cells`` is a YGrid of two rows, y0 and y1, with one column per cell
    [y0, y1], 0 <= y0 <= y1: neighbouring, nested or of zero width.  rho is
    a 1-d array.  The bounds have shape (rho.size, 2, cells): for rho[i],
    rows lo and hi with one column per cell.  A row's masks n < lo and n >
    hi are those of its rho alone (a bound may differ in its last bit, where
    numpy's vector loops round differently for different layouts).

    On y > 0, S and den rise with y, and num_a and (s+1)/y fall.  As S >= 0,
    theta rises as num_a falls and is monotone in S at fixed num_a, so it
    takes its extremes at the cell's corners; term1 lies in
    [(1-rho)(s0+1)/den1, (1-rho)(s1+1)/den0] and nu in [((s1+1)/y1 X*_lo +
    theta_lo)/pi, ((s0+1)/y0 X*_hi + theta_hi)/pi].  Both terms are >= 0, so
    the relative margin _MARGIN on nu, far above f_grid's rounding error,
    covers both: a cell with n < lo or n > hi holds no root and no sign
    change of f_grid(n, ...).  At y0 = 0, (s0+1)/y0 = +inf makes hi = +inf;
    where den1 underflows, lo is +inf, and the cell is excluded without a
    warning.
    """
    rho = rho[:, None, None]  # a row of cell ends per rho
    down = np.s_[..., ::-1, :]  # rows [y1; y0] of the same pieces
    sin_a = _sin2_a(rho, cells.y, cells.sp)
    np.sqrt(sin_a, out=sin_a)
    num_a = _num_a(rho, cells.s, cells.sm)
    theta = np.arctan2(sin_a, num_a)  # the corners (S0, num_a0) and (S1, num_a1)
    other = np.arctan2(sin_a[down], num_a)  # (S1, num_a0) and (S0, num_a1)
    np.minimum(theta[..., 0, :], other[..., 0, :], out=theta[..., 0, :])  # theta_lo
    np.maximum(theta[..., 1, :], other[..., 1, :], out=theta[..., 1, :])  # theta_hi
    with np.errstate(divide="ignore", over="ignore"):  # +inf at y0 = 0 and where den1 underflows
        nu = _x_star(_term1(rho, cells.sp, _den(rho, cells.y[down])))  # X*_lo, X*_hi
        nu *= (cells.sp / cells.y)[down]
    nu += theta
    nu *= _OUTWARD
    return nu
