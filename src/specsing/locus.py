"""Reduction of the singularity condition to real transcendental equations.

Everything here lives in the dimensionless (rho, sigma) plane, the complex
z/k^2 plane.  With y = sigma/(1-rho), the condition m22 = 0 reduces to a
one-parameter family of real equations F(n, eps; rho, y) = 0 labeled by an
integer branch index n and a sign eps, and the product alpha*k at a solution
is fixed by G(n, eps; rho, y).  Candidate roots of F are certified by
evaluating the barrier residual on a concrete (k, alpha, z) realization;
only certified points are reported (eps = -, n >= 1, sigma > 0 survive).

F and the phase in G are computed only in `kernels`, with the stable
rewrites of the terms that cancel for small y; this module brackets,
polishes and certifies their roots.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .barrier import BarrierSpec, m22_residual

__all__ = [
    "BranchLabel",
    "LocusPoint",
    "q_of",
    "r_of",
    "G_of",
    "brentq",
    "solve_sigma",
    "trace_curve",
]

#: certification threshold on the barrier residual
RESIDUAL_TOL = 1e-9
#: bracketing grid of solve_sigma: y in [1e-6, 1e6], 400 points per decade
_Y_GRID = np.geomspace(1e-6, 1e6, 4801)
#: brentq tolerances (absolute, relative) and iteration cap
_XTOL, _RTOL, _MAXITER = 1e-300, 1e-14, 100


@dataclass(frozen=True)
class BranchLabel:
    """Branch index n >= 0 and sign eps (+1 or -1); n = 0 forces eps = +1."""

    n: int
    eps: int

    def __post_init__(self):
        if self.eps not in (1, -1):
            raise ValueError(f"eps must be +1 or -1, got {self.eps}")
        if self.n < 0 or (self.n == 0 and self.eps != 1):
            raise ValueError(f"invalid branch (n={self.n}, eps={self.eps})")


@dataclass(frozen=True)
class LocusPoint:
    """Certified singularity point in the rho-sigma plane."""

    rho: float
    sigma: float
    y: float
    alpha_k: float
    branch: BranchLabel
    residual: float


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


def G_of(branch, rho, y):
    """Value of alpha*k forced at a locus point: R / sqrt(2|1-rho|(s+1))."""
    return kernels.phase(branch.n, branch.eps, rho, y) / r_of(rho, y, 1.0)


def brentq(f, a, b):
    """Root of f in [a, b] by Brent's method (Brent 1973, ch. 4).

    A port of scipy's ``Zeros/brentq.c`` in the same operation order, so it
    returns the same double as ``scipy.optimize.brentq(f, a, b,
    xtol=1e-300, rtol=1e-14)``.  Raises ValueError if f(a) and f(b) have
    the same sign or f gives NaN, RuntimeError after 100 iterations.
    """
    def call(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"f({x!r}) is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
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
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C gets +-inf or NaN, which fails the test below
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"brentq failed to converge after {_MAXITER} iterations, "
                       f"value is {xcur!r}")


def _grid_roots(polish, f, xs, fv, rel_tol, image=lambda x: x):
    """Sorted roots of f, bracketed by its values fv on the ascending grid xs.

    Each sign change of fv is polished by ``polish(f, lo, hi)``, the
    caller's binding of ``brentq`` (so each layer's polish can be profiled
    under its own name); exact zeros of fv are roots as they stand.  Roots
    are kept as image(x), and one within rel_tol (relative) of a root
    already kept is a duplicate.
    """
    sgn = np.sign(fv)
    roots = []
    for i in np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]:
        r = image(polish(f, xs[i], xs[i + 1]))
        if roots and abs(r - roots[-1]) <= rel_tol * abs(r):
            continue
        roots.append(r)
    for x in xs[fv == 0.0]:
        r = image(x)
        if not any(abs(r - q) <= rel_tol * abs(r) for q in roots):
            roots.append(r)
    return sorted(roots)


def _certify(residual, branch, rho, sigma, y, k=1.0):
    """The locus point (rho, sigma = (1-rho) y) of branch if it certifies, else None.

    It is realized at wave number k as alpha = G/k, z = k^2 (rho + i sigma)
    and certifies if alpha > 0 and the barrier residual there, computed by
    ``residual`` (the caller's binding of m22_residual), is below
    RESIDUAL_TOL.
    """
    alpha_k = G_of(branch, rho, y)
    if alpha_k <= 0:
        return None
    res = residual(BarrierSpec(alpha=alpha_k / k, z=k * k * complex(rho, sigma)), k)
    if res >= RESIDUAL_TOL:
        return None
    return LocusPoint(rho=rho, sigma=sigma, y=y, alpha_k=alpha_k,
                      branch=branch, residual=res)


def solve_sigma(branch, rho):
    """All certified sigma > 0 singularity points above rho, sorted by sigma.

    Roots of F are bracketed on a geometric y grid and polished by Brent's
    method to relative 1e-14; each candidate is then certified against the
    barrier residual, which weeds out spurious zeros of F (including the
    double-precision noise roots in the far F -> 0 tails).
    """
    if not rho < 1:
        raise ValueError(f"rho must be < 1, got {rho}")
    n, eps = branch.n, branch.eps
    roots = _grid_roots(brentq, lambda y: kernels.f_scalar(n, eps, rho, y),
                        _Y_GRID, kernels.f_grid(n, eps, rho, _Y_GRID), 1e-6)
    points = [pt for pt in (_certify(m22_residual, branch, rho, (1.0 - rho) * y, y)
                            for y in roots) if pt is not None]
    points.sort(key=lambda p: p.sigma)
    return points


def trace_curve(branch, rho_min, rho_max, samples):
    """Sample the curve over [rho_min, rho_max], densified toward rho = 1.

    The rho grid is uniform in log(1 - rho).  Output is ordered by
    descending rho, then ascending sigma; empty rho slices are skipped.
    """
    if not (-math.inf < rho_min < rho_max < 1):
        raise ValueError(f"need finite rho_min < rho_max < 1, got [{rho_min}, {rho_max}]")
    if samples < 2:
        raise ValueError("samples must be >= 2")
    us = np.linspace(math.log(1.0 - rho_max), math.log(1.0 - rho_min), samples)
    points = []
    for u in us:
        points.extend(solve_sigma(branch, 1.0 - math.exp(u)))
    return points
