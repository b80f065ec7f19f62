"""Reduction of the singularity condition to real transcendental equations.

Everything here lives in the dimensionless (rho, sigma) plane, the complex
z/k^2 plane.  With y = sigma/(1-rho), m22 = 0 reduces to real equations
L(n; rho, y) = asinh sqrt(2 term1) - y R/(s+1) = 0, one per branch (n, -),
n >= 1; G(n; rho, y) gives alpha*k at a root.  By lemmas 1-3 in `kernels`
these branches hold every singularity, none at rho >= 1 (L < 0 there) and
none at sigma <= 0, so only rho < 1 and y >= 0, where the kernels are
written, are searched.  Every candidate, on the curve and the design path
alike, is certified where it was found: the barrier residual at chi = G,
zeta = rho + i sigma must be below RESIDUAL_TOL.  No k is formed here.

L and G are computed only in `kernels`, with the stable rewrites of the
terms that cancel for small y; this module brackets, polishes and certifies
the roots of L.  A root is bracketed on a fixed y grid, but L is evaluated
only where an enclosure of the n-free branch index nu on coarse cells of
that grid (`kernels.f_bounds`: [0, 1e-6], then 30 cells of 160 grid steps)
cannot rule n, and so a root, out, and below the grid down to the first
decade [0, 1e-6 10^-d] it rules out.  `trace_curve` encloses nu for 64 rho
slices in one `f_bounds` call, then solves each slice in its window.
"""

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import kernels
from .barrier import m22_residual

__all__ = [
    "BranchLabel",
    "LocusPoint",
    "brentq",
    "solve_sigma",
    "trace_curve",
]

#: certification threshold on the barrier residual
RESIDUAL_TOL = 1e-9
#: bracketing grid of solve_sigma: y in [1e-6, 1e6], 400 points per decade,
#: with its y-only pieces of L computed once
_PER_DECADE = 400
_Y_GRID = kernels.YGrid(np.geomspace(1e-6, 1e6, 12 * _PER_DECADE + 1))
#: lowest rho searched: den = (1-rho)^2 y^2 + rho^2 <= 2 (1-rho)^2 y^2 (y >= 1,
#: rho <= 1/2) stays below the largest double up to the grid's top end
_RHO_MIN = 1.0 - math.sqrt(sys.float_info.max / 2.0) / float(_Y_GRID.y[-1])
#: cells on which nu is enclosed, a YGrid of rows y0 and y1 with one column
#: per cell: [0, 1e-6], then the grid in steps of _CELL points (_CELL
#: divides the grid's 4,800 steps, so the cells end at 1e6)
_CELL = 160
_CELLS = kernels.YGrid(np.stack((np.append(0.0, _Y_GRID.y[:-1:_CELL]), _Y_GRID.y[::_CELL])))
#: decade cells [0, 1e-6 10^-d] below the grid, d = 1 ... 294 (to 1e-300), in
#: Python's float powers (numpy's 10.0 ** -d differs in the last bit for 12 d)
_DECADES = kernels.YGrid([[0.0] * 294, [_Y_GRID.y[0] * 10.0 ** -d for d in range(1, 295)]])
#: rho slices whose enclosures trace_curve computes in one f_bounds call
_BLOCK = 64
#: brentq tolerances (absolute, relative) and iteration cap
_XTOL, _RTOL, _MAXITER = 1e-300, 1e-14, 100


@dataclass(frozen=True)
class BranchLabel:
    """Branch (n, -), n >= 1; its sign eps is -1, the only sign a branch has."""

    n: int
    eps: int = -1

    def __post_init__(self):
        if self.eps != -1:
            raise ValueError(f"eps must be -1, got {self.eps}")
        if self.n % 1:  # a fraction, NaN or an infinity: no branch between two
            raise ValueError(f"branch index must be an integer, got {self.n}")
        if self.n < 1:
            raise ValueError(f"branch index must be >= 1, got {self.n}")
        if self.n > sys.float_info.max:  # not printed: str() may refuse its digits
            raise ValueError("branch index n does not fit in a double")


@dataclass(frozen=True)
class LocusPoint:
    """Certified singularity point in the rho-sigma plane."""

    rho: float
    sigma: float
    y: float
    alpha_k: float
    branch: BranchLabel
    residual: float


class NoSignChange(ValueError):
    """f(a) and f(b) have the same sign: [a, b] brackets no root of f."""


def brentq(f, a, b):
    """Root of f in [a, b] by Brent's method (Brent 1973, ch. 4).

    A port of scipy's ``Zeros/brentq.c`` in the same operation order, so it
    returns the same double as ``scipy.optimize.brentq(f, a, b,
    xtol=1e-300, rtol=1e-14)``.  Raises NoSignChange (a ValueError) if f(a)
    and f(b) have the same sign, ValueError if f gives NaN, RuntimeError
    after 100 iterations.
    """
    xpre, xcur = float(a), float(b)
    fpre = f(xpre)
    if fpre != fpre:  # NaN
        raise ValueError(f"f({xpre!r}) is NaN")
    fcur = f(xcur)
    if fcur != fcur:
        raise ValueError(f"f({xcur!r}) is NaN")
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise NoSignChange("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        abis = abs(sbis)
        if fcur == 0 or abis < delta:
            return xcur
        apre = abs(spre)
        if apre > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C gets +-inf or NaN, which fails the test below
                stry = math.inf
            bound = 3 * abis - delta  # C's MIN(|spre|, bound), without a call to min
            if 2 * abs(stry) < (apre if apre < bound else bound):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
        if fcur != fcur:
            raise ValueError(f"f({xcur!r}) is NaN")
    raise RuntimeError(f"brentq failed to converge after {_MAXITER} iterations, "
                       f"value is {xcur!r}")


def _grid_roots(polish, f, xs, signs):
    """Roots of f in ascending order, bracketed by the signs (-1, 0 or +1)
    of its values on the ascending grid xs.

    Each bracket whose two signs differ is polished by ``polish(f, lo,
    hi)``, the caller's binding of ``brentq`` (so each layer's polish can be
    profiled under its own name).  A zero closes a bracket on each side:
    ``brentq`` returns that end where f is exactly 0 there, and a bracket
    where f itself does not change sign (f is at its rounding noise) holds
    no root and is dropped.  Two brackets share at most one end, so a root
    equal to the one before it is the only duplicate, and is kept once.
    """
    roots = []
    for i in (signs[:-1] != signs[1:]).nonzero()[0].tolist():
        try:
            r = polish(f, xs[i], xs[i + 1])
        except NoSignChange:
            continue
        if not roots or r != roots[-1]:
            roots.append(r)
    return roots


def _certify(residual, branch, rho, y, sigma):
    """The locus point (rho, sigma), y = sigma/(1-rho), of branch if it
    certifies, else None.

    It certifies if ``residual`` (the caller's binding of m22_residual),
    evaluated at chi = G(n; rho, y) = alpha k, zeta = rho + i sigma, is below
    RESIDUAL_TOL.  sigma is the caller's: (1-rho) y on a curve slice, and on
    the design path the map's sigma*, so that a design is certified at (G,
    rho* + i sigma*), the point it reports.  The kernels give G >= 0; where
    G = 0 (y^2 underflows) the residual is exactly 1, so the zero-length
    barrier never certifies.
    No physical k, alpha = G/k or z = k^2 (rho + i sigma) is formed, so
    none can overflow or round a candidate out of the gate.
    """
    alpha_k = kernels.alpha_k(branch.n, rho, y)
    res = residual(alpha_k, complex(rho, sigma))
    if not res < RESIDUAL_TOL:  # NaN does not certify either
        return None
    return LocusPoint(rho, sigma, y, alpha_k, branch, res)


def _excluded(n, rhos, cells):
    """Cells where the enclosure of the branch index nu excludes n, and so a
    root of L (NaN bounds exclude nothing), one row per element of the array
    rhos."""
    bounds = kernels.f_bounds(rhos, cells)
    return (n < bounds[..., 0, :]) | (n > bounds[..., 1, :])


def _windows(n, rhos):
    """For each of rhos, the part of the bracketing grid that holds every
    sign change of L, or None if every cell is excluded.

    Cells the enclosure excludes hold none, so the grid from the first open
    cell to the last one brackets the roots that the whole grid brackets.
    Where the cell [0, 1e-6] is open, decades of the grid's density are put
    below it.  The enclosure is computed for _BLOCK rhos at a time, so
    the memory used does not grow with the number of rhos.
    """
    for start in range(0, len(rhos), _BLOCK):
        block = rhos[start:start + _BLOCK]
        open_cells = ~_excluded(n, np.asarray(block, dtype=float), _CELLS)
        last_cell = open_cells.shape[1] - 1
        # Python ints and bools: numpy scalars are slow to index and add
        firsts = open_cells.argmax(axis=1).tolist()
        lasts = (last_cell - open_cells[:, ::-1].argmax(axis=1)).tolist()
        for rho, any_open, first, last in zip(block, open_cells.any(axis=1).tolist(),
                                              firsts, lasts):
            if not any_open:
                yield None
            elif first > 0:
                yield _Y_GRID[(first - 1) * _CELL:last * _CELL + 1]
            else:
                yield _below_grid(n, rho, _Y_GRID[:last * _CELL + 1])


def _below_grid(n, rho, window):
    """window with decades of the grid's density put below it, down to the
    first cell of _DECADES the enclosure excludes (or to the last one)."""
    excluded = _excluded(n, np.array([rho]), _DECADES)[0]
    excluded[-1] = True  # the search ends at the last decade in any case
    decades = excluded.argmax() + 1
    below = np.geomspace(_DECADES.y[1, decades - 1], _Y_GRID.y[0], _PER_DECADE * decades + 1)
    return kernels.YGrid(np.concatenate((below[:-1], window.y)))


_WINDOW = object()  # solve_sigma's window argument was not given


def solve_sigma(branch, rho, *, window=_WINDOW):
    """All certified sigma > 0 singularity points above rho, sorted by sigma.

    Roots of L are bracketed on a geometric y grid, in the window of it that
    the enclosure of nu leaves open (``_windows``), and polished by Brent's
    method to relative 1e-14; each candidate is then certified against the
    barrier residual, which weeds out spurious zeros of L (including the
    double-precision noise roots in the far L -> 0 tails).  The brackets are
    those of the whole grid, and roots below it (y < 1e-6) are found too.
    ``window`` is that window (None: no window) when the caller has already
    computed it, as ``trace_curve`` does for a block of slices at once.
    """
    if not _RHO_MIN < rho < 1:
        raise ValueError(f"rho must be in ({_RHO_MIN:.6g}, 1), got {rho}")
    n = branch.n
    if window is _WINDOW:
        window, = _windows(n, [rho])
    if window is None:
        return []
    f = kernels.f_grid(n, rho, window)
    roots = _grid_roots(brentq, functools.partial(kernels.f_scalar, n, rho),
                        window.y, np.sign(f, out=f))
    # sigma = (1-rho) y rises with y, and the roots come in ascending y
    return [pt for y in roots if (pt := _certify(m22_residual, branch, rho, y, (1.0 - rho) * y))]


def trace_curve(branch, rho_min, rho_max, samples):
    """Sample the curve over [rho_min, rho_max], densified toward rho = 1.

    The rho grid is uniform in log(1 - rho).  Output is ordered by
    descending rho, then ascending sigma; empty rho slices are skipped.
    The range is checked before any slice is solved, at the lowest slice.
    """
    def rho_of(u):
        return 1.0 - math.exp(u)

    if not (rho_min < rho_max < 1 and _RHO_MIN < rho_of(math.log(1.0 - rho_min))):
        raise ValueError(f"need finite rho_min < rho_max < 1 and rho_min > {_RHO_MIN:.6g}, "
                         f"got [{rho_min}, {rho_max}]")
    if samples < 2:
        raise ValueError("samples must be >= 2")
    us = np.linspace(math.log(1.0 - rho_max), math.log(1.0 - rho_min), samples)
    rhos = [rho_of(u) for u in us]
    windows = _windows(branch.n, rhos)
    return [pt for rho, window in zip(rhos, windows)
            for pt in solve_sigma(branch, rho, window=window)]
