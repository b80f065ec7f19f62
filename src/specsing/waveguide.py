"""Waveguide design layer: from gain-medium parameters to singularity designs.

A rectangular waveguide with perfectly conducting walls carries a TE wave
along z; the region |z| < alpha is filled with an atomic gas whose Lorentz
permittivity supplies the complex barrier coupling.  With the cutoff
Omega = pi*m*hbar*c/(2*beta), each drive frequency omega maps to a point
(rho(omega), sigma(omega)) in the locus plane; intersections of that
parametric curve with a singularity branch give concrete designs
(gain-region length 2*alpha, resonance wavelength lambda).

All frequencies are hbar*omega in eV, lengths in nm and wave numbers in
nm^-1; HBAR_C_EV_NM is the one conversion constant.  Physical
units stay in this layer: the barrier and the locus plane take chi = alpha k
and zeta = z/k^2 alone, and `find_singularities` forms k and alpha only for
the designs that certify.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .barrier import m22_residual, scaled_moduli
from .locus import BranchLabel, _certify, _grid_roots, brentq

__all__ = [
    "HBAR_C_EV_NM",
    "GainMedium",
    "WaveguideGeometry",
    "SingularitySolution",
    "CutoffError",
    "permittivity",
    "find_singularities",
    "gain_scan",
]

# hbar * c in eV * nm (CODATA 2018)
HBAR_C_EV_NM = 197.3269804
DEFAULT_GRID_POINTS = 20000
M22_FLOOR = 1e-300  # |m22| below which gain_scan reports GAIN_CAP
GAIN_CAP = 600.0  # reported log10(|T|^2+|R|^2) when |m22| underflows
_LOG10_E = math.log10(math.e)
# Points per vectorized block of find_singularities' omega grid and of
# gain_scan (and rows per formatted block of the CLI's scan CSV): enough to
# spread numpy's per-call cost thin, while a block's temporaries do not grow
# with the grid (for gain_scan at most 0.87 MB of them alive at once, by
# tracemalloc).  On a 2-core Xeon, 1024, 2048, 8192 and 20001-point blocks
# all scanned 20001 points more slowly.
BLOCK = 4096


class CutoffError(ValueError):
    """Drive frequency at or below the TE cutoff: no propagating mode."""


@dataclass(frozen=True)
class GainMedium:
    """Lorentz-oscillator medium: hbar*omega0 (eV), hbar^2*omega_p^2 (eV^2,
    negative for gain), hbar*delta (eV)."""

    omega0: float
    omega_p_sq: float
    delta: float

    def __post_init__(self):
        for name in ("omega0", "omega_p_sq", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.omega0 > 0:
            raise ValueError(f"omega0 must be positive, got {self.omega0}")
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.omega_p_sq == 0:
            # (rho, sigma) = (0, 0) at every omega: the free barrier, no locus
            raise ValueError("omega_p_sq must be nonzero")


@dataclass(frozen=True)
class WaveguideGeometry:
    """Half-height beta (nm) and transverse mode index m; TE fields do not
    depend on the width."""

    beta: float
    m: int = 1

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"mode index must be >= 1, got {self.m}")
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")

    @property
    def omega_cutoff(self):
        """Cutoff energy Omega = pi*m*hbar*c/(2*beta) in eV."""
        return math.pi * self.m * HBAR_C_EV_NM / (2.0 * self.beta)


@dataclass(frozen=True)
class SingularitySolution:
    branch: BranchLabel
    ell: int
    omega: float              # eV
    k: float                  # nm^-1
    alpha: float              # nm
    lam: float                # vacuum wavelength, nm
    epsilon: complex          # relative permittivity at omega
    refractive_index: complex # sqrt(epsilon), Im < 0 denotes gain
    residual: float           # locus._certify's at (alpha k, zeta), not recomputed from k
    rho_star: float           # zeta = z/k^2 at omega, as gain_scan evaluates it; the gate
    sigma_star: float         # certifies (1-rho) y, y = sigma/(1-rho), two roundings away


def permittivity(medium, omega):
    """Relative permittivity 1 - omega_p^2 / (omega^2 - omega0^2 + 2i delta omega)
    at omega, a float or an array of them."""
    if not np.all(omega > 0):
        raise ValueError(f"omega must be positive, got {omega}")
    return 1 - medium.omega_p_sq / (omega**2 - medium.omega0**2
                                    + 2j * medium.delta * omega)


def _above_cutoff(Om, omega):
    """1 - Om^2/omega^2 of a float or an array omega, as ((omega - Om)/omega)
    ((omega + Om)/omega): just above the cutoff Om, omega - Om is exact
    (Sterbenz), so this keeps the digits that 1 - Om/omega loses."""
    return (omega - Om) / omega * ((omega + Om) / omega)


def _k(Om, omega):
    """Longitudinal wave number (omega/hbar c) sqrt(1 - Om^2/omega^2) of a
    float or an array omega above the cutoff Om."""
    u = _above_cutoff(Om, omega)
    return omega / HBAR_C_EV_NM * (np.sqrt(u) if isinstance(u, np.ndarray) else math.sqrt(u))


def _rho_sigma(medium, Om, omega):
    """Locus-plane point (rho, sigma) = z/k^2 of a float or an array omega:
    rho = omega_p^2 d2 / den and sigma = -2 omega omega_p^2 delta / den with
    d2 = omega^2 - omega0^2 and den = (d2^2 + 4 omega^2 delta^2)(1 - Om^2/omega^2).
    """
    d2 = omega**2 - medium.omega0**2
    den = (d2 * d2 + 4.0 * omega**2 * medium.delta**2) * _above_cutoff(Om, omega)
    return medium.omega_p_sq * d2 / den, -2.0 * omega * medium.omega_p_sq * medium.delta / den


def find_singularities(medium, geom, n, grid_points=DEFAULT_GRID_POINTS):
    """All certified singularity designs of branch (n, -) in the window
    (Omega (1 + 1e-9), 10 omega0); CutoffError if it is empty.  A lossy
    medium (omega_p^2 > 0) has sigma < 0 at every omega, so no design (lemma
    3 in ``kernels``), and gets [] before any grid is built.

    L is evaluated along the physical curve on a grid log-spaced in (omega -
    Omega) -- near-cutoff intersections sit at omega/Omega - 1 ~ 1e-3 --
    then each sign change is polished by Brent's method, and its (rho, y =
    sigma/(1-rho)) is certified by ``locus._certify`` at chi = G, zeta = rho
    + i sigma.  k and alpha = G/k are formed only for the designs that
    certify, labeled ell = 1, 2, ... by descending rho (ties by ascending
    sigma), counting down from rho = 1.
    Each reports that gate's residual, not one recomputed from alpha and k.

    The grid is evaluated BLOCK points at a time into one byte per point of
    L's sign (-1, 0 or +1), so the temporaries of rho, sigma and L do not
    grow with grid_points; each L is the double of the whole-grid form.  At
    rho >= 1 L < 0 (lemma 2 in ``kernels``), so the grid and the polish take
    the sign -1 there, and L is evaluated only where rho < 1, by one f_grid
    call per block (none for a block wholly at rho >= 1); every design has
    rho < 1.  Where den underflows, L is +inf, its true sign.  The window is
    checked once, here, on every block before any root is polished: it must
    be non-empty (CutoffError), and rho, sigma, y = sigma/(1-rho) and L's
    denominator den must evaluate on its grid without overflow, division by
    zero or NaN (OverflowError otherwise, as where omega0^2 or 10 omega0
    exceeds a double, or where den overflows and f_grid would read L = -x).
    Every polish step and every root lies inside the grid, so none is
    checked again; only a certified design whose G/k exceeds a double raises
    OverflowError after the polish.
    """
    branch = BranchLabel(n=n)  # n >= 1 that fits in a double
    Om = geom.omega_cutoff
    lo, hi = Om * (1 + 1e-9), 10.0 * medium.omega0
    if not lo < hi:
        raise CutoffError(f"cutoff {Om} eV is not below 10 omega0 = {hi} eV")
    if medium.omega_p_sq > 0:
        return []
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            us = np.linspace(math.log(lo - Om), math.log(hi - Om), grid_points)
        signs = np.full(len(us), -1, dtype=np.int8)  # L's sign at rho >= 1
        for start in range(0, len(us), BLOCK):
            block = slice(start, start + BLOCK)
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                rho, sigma = _rho_sigma(medium, Om, Om + np.exp(us[block]))
                below = rho < 1.0
                rho = rho[below]
                y = sigma[below] / (1.0 - rho)
                kernels._den(rho, y)  # f_grid would read L = -x where it overflows
            if below.any():
                with np.errstate(over="ignore", divide="ignore"):  # L = +inf where den underflows
                    signs[block][below] = np.sign(kernels.f_grid(n, rho, y))
    except (FloatingPointError, OverflowError):  # numpy's, or a float power's
        raise OverflowError(f"the map from omega to (rho, sigma) or L's denominator does not "
                            f"fit in a double on the window ({lo}, {hi}) eV") from None

    def mismatch(u):
        r_, s_ = _rho_sigma(medium, Om, Om + math.exp(u))
        return kernels.f_scalar(n, r_, s_ / (1.0 - r_)) if r_ < 1 else -1.0

    found = []  # (omega, the map's sigma, certified locus point)
    for u in _grid_roots(brentq, mismatch, us, signs):
        om = Om + math.exp(u)
        r_, s_ = _rho_sigma(medium, Om, om)
        if r_ < 1 and (pt := _certify(m22_residual, branch, r_, s_ / (1.0 - r_))):
            found.append((om, s_, pt))
    found.sort(key=lambda c: (-c[2].rho, c[1]))
    sols = []
    for ell, (om, s_, pt) in enumerate(found, start=1):
        k = _k(Om, om)
        alpha = pt.alpha_k / k
        if alpha == math.inf:  # k > 0 on the window, so only G/k can overflow
            raise OverflowError(f"the design at omega = {om} eV has alpha = G/k beyond a double")
        eps_r = permittivity(medium, om)
        sols.append(SingularitySolution(
            branch=branch, ell=ell, omega=om, k=k, alpha=alpha,
            lam=2.0 * math.pi * HBAR_C_EV_NM / om,
            epsilon=eps_r, refractive_index=cmath.sqrt(eps_r),
            residual=pt.residual, rho_star=pt.rho, sigma_star=s_,
        ))
    return sols


def gain_scan(solution, medium, geom, ratio_grid):
    """log10(|T|^2 + |R|^2) versus omega/omega_s with the geometry frozen.

    The gain-region length alpha and the waveguide geometry are held at the
    solution's values; only the drive frequency (and with it the coupling)
    moves.  Returns an (N, 2) float64 array of (ratio, value) rows; iterating
    it, dict() and len() behave as on a list of pairs.

    Each vectorized block of BLOCK points is fed to `scaled_moduli`
    at chi = alpha k(omega) and zeta = z/k^2 = rho + i sigma, the locus point
    of omega (at ratio 1 the design's own rho_star + i sigma_star).  With
    M = e^b M~, |T|^2 + |R|^2 = (1 + |m12|^2)/|m22|^2 is evaluated in log
    space as log10(e^{-2b} + |m~12|^2) - 2 log10|m~22|, so it stays finite
    however large the entries grow.  Where |m22| = e^b |m~22| < M22_FLOOR
    (at a singularity) the value is GAIN_CAP.  Raises CutoffError, before the
    matrix is evaluated, if any ratio puts omega at or below the cutoff (or
    is not finite).  Within |ratio - 1| < 1e-5 of the design, m~22 = c - t
    cancels, and the values there carry few correct digits.
    """
    ratios = np.asarray(ratio_grid, dtype=float)
    Om = geom.omega_cutoff
    # omega_s > 0 keeps the ratios' order, so these are omega's extremes (NaN
    # and inf included; as Python floats, a product that overflows is inf
    # without a warning); an empty grid has none to check
    lowest = float(np.min(ratios, initial=math.inf)) * solution.omega
    if not (lowest > Om and float(np.max(ratios, initial=-math.inf)) * solution.omega < math.inf):
        raise CutoffError(f"omega = {lowest} eV is not a finite value "
                          f"above cutoff {Om} eV")
    scan = np.empty((len(ratios), 2))
    scan[:, 0] = ratios
    for lo in range(0, len(ratios), BLOCK):
        block = slice(lo, lo + BLOCK)
        om = ratios[block] * solution.omega
        rho, sigma = _rho_sigma(medium, Om, om)
        zeta = rho.astype(complex)
        zeta.imag = sigma
        a12, a22, b = scaled_moduli(solution.alpha * _k(Om, om), zeta)
        lg22 = np.log10(a22, out=np.full_like(a22, -np.inf), where=a22 > 0)
        values = np.log10(np.exp(-2.0 * b) + a12 * a12) - 2.0 * lg22
        # capped where log10 |m22| = log10 |m~22| + b log10(e) < log10(M22_FLOOR)
        values[lg22 + b * _LOG10_E < math.log10(M22_FLOOR)] = GAIN_CAP
        scan[block, 1] = values
    return scan
