"""Waveguide design layer: from gain-medium parameters to singularity designs.

A rectangular waveguide with perfectly conducting walls carries a TE wave
along z; the region |z| < alpha is filled with an atomic gas whose Lorentz
permittivity supplies the complex barrier coupling.  With the cutoff
Omega = pi*m*hbar*c/(2*beta), each drive frequency omega maps to a point
(rho(omega), sigma(omega)) in the locus plane; intersections of that
parametric curve with a singularity branch give concrete designs
(gain-region length 2*alpha, resonance wavelength lambda).

All frequencies are hbar*omega in eV, lengths in nm.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .barrier import m22_residual, scaled_moduli
from .constants import HBAR_C_EV_NM
from .locus import BranchLabel, _certify, _grid_roots, brentq

__all__ = [
    "GainMedium",
    "WaveguideGeometry",
    "SingularitySolution",
    "CutoffError",
    "permittivity",
    "find_singularities",
    "gain_scan",
]

DEFAULT_GRID_POINTS = 20000
M22_FLOOR = 1e-300  # |m22| below which gain_scan reports GAIN_CAP
GAIN_CAP = 600.0  # reported log10(|T|^2+|R|^2) when |m22| underflows
_LOG10_E = math.log10(math.e)
# gain_scan points per vectorized block: enough to spread numpy's per-call
# cost thin, while a block's temporaries do not grow with the grid (at most
# 0.87 MB of them alive at once, by tracemalloc; 0.94 MB before the block
# worked in place).  On a 2-core Xeon, 1024, 2048, 8192 and 20001-point
# blocks all scanned 20001 points more slowly.
_SCAN_BLOCK = 4096


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
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if self.m < 1:
            raise ValueError(f"mode index must be >= 1, got {self.m}")

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
    residual: float
    rho_star: float
    sigma_star: float


def permittivity(medium, omega):
    """Relative permittivity 1 - omega_p^2 / (omega^2 - omega0^2 + 2i delta omega)
    at omega, a float or an array of them."""
    if not np.all(omega > 0):
        raise ValueError(f"omega must be positive, got {omega}")
    return 1 - medium.omega_p_sq / (omega**2 - medium.omega0**2
                                    + 2j * medium.delta * omega)


def _k(Om, omega):
    """Longitudinal wave number (omega/hbar c) sqrt(1 - Om^2/omega^2) of a
    float or an array omega above the cutoff Om."""
    # (1-Om/omega)(1+Om/omega) keeps precision just above cutoff
    r = Om / omega
    u = 1 - r
    r += 1
    u *= r
    k = np.sqrt(u) if isinstance(u, np.ndarray) else math.sqrt(u)
    k *= omega / HBAR_C_EV_NM
    return k


def _rho_sigma(medium, Om, omega):
    """Locus-plane point (rho, sigma) = z/k^2 of a float or an array omega:
    rho = omega_p^2 d2 / den and sigma = -2 omega omega_p^2 delta / den with
    d2 = omega^2 - omega0^2 and den = (d2^2 + 4 omega^2 delta^2)(1 - Om^2/omega^2).
    """
    w2 = omega**2
    rho = w2 - medium.omega0**2  # d2
    den = 4.0 * w2
    den *= medium.delta**2
    den += rho * rho
    den *= 1 - Om**2 / w2
    rho *= medium.omega_p_sq
    rho /= den
    sigma = -2.0 * omega
    sigma *= medium.omega_p_sq
    sigma *= medium.delta
    sigma /= den
    return rho, sigma


def find_singularities(medium, geom, n, grid_points=DEFAULT_GRID_POINTS):
    """All certified singularity designs of branch (n, -) in the window
    (Omega (1 + 1e-9), 10 omega0); CutoffError if it is empty.

    The locus function is evaluated along the physical curve on a grid
    log-spaced in (omega - Omega) -- near-cutoff intersections sit at
    omega/Omega - 1 ~ 1e-3 and need the densification -- then each sign
    change is polished by Brent's method and certified by the barrier
    residual.  Solutions are labeled ell = 1, 2, ... by descending rho
    (ties by ascending sigma) to match the count-down-from-rho=1 convention.

    The window is checked once, here: it must be non-empty (CutoffError), and
    the map from omega to (rho, sigma) must evaluate on its grid without
    overflow, division by zero or NaN (OverflowError otherwise, as where
    omega0^2 or 10 omega0 exceeds a double).  Every polish step and every
    root lies inside the grid, so none is checked again.
    """
    if n < 1:
        raise ValueError(f"branch index must be >= 1, got {n}")
    Om = geom.omega_cutoff
    lo, hi = Om * (1 + 1e-9), 10.0 * medium.omega0
    if not lo < hi:
        raise CutoffError(f"cutoff {Om} eV is not below 10 omega0 = {hi} eV")
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            us = np.linspace(math.log(lo - Om), math.log(hi - Om), grid_points)
            rho, sigma = _rho_sigma(medium, Om, Om + np.exp(us))
    except (FloatingPointError, OverflowError):  # numpy's, or a float power's
        raise OverflowError(f"the map from omega to (rho, sigma) does not fit in a "
                            f"double on the window ({lo}, {hi}) eV") from None
    with np.errstate(over="ignore"):
        g = kernels.f_grid(n, -1, rho, sigma / (1.0 - rho))

    def omega_of(u):
        return Om + math.exp(u)

    def mismatch(u):
        r_, s_ = _rho_sigma(medium, Om, omega_of(u))
        return kernels.f_scalar(n, -1, r_, s_ / (1.0 - r_))

    roots = _grid_roots(brentq, mismatch, us, g, 1e-9, omega_of)
    branch = BranchLabel(n=n, eps=-1)
    found = []  # (omega, k, certified locus point)
    for om in roots:
        r_, s_ = _rho_sigma(medium, Om, om)
        k = _k(Om, om)
        if r_ < 1 and (pt := _certify(m22_residual, branch, r_, s_, s_ / (1.0 - r_), k)):
            found.append((om, k, pt))
    found.sort(key=lambda c: (-c[2].rho, c[2].sigma))
    sols = []
    for ell, (om, k, pt) in enumerate(found, start=1):
        eps_r = permittivity(medium, om)
        sols.append(SingularitySolution(
            branch=branch, ell=ell, omega=om, k=k, alpha=pt.alpha_k / k,
            lam=2.0 * math.pi * HBAR_C_EV_NM / om,
            epsilon=eps_r, refractive_index=cmath.sqrt(eps_r),
            residual=pt.residual, rho_star=pt.rho, sigma_star=pt.sigma,
        ))
    return sols


def gain_scan(solution, medium, geom, ratio_grid):
    """log10(|T|^2 + |R|^2) versus omega/omega_s with the geometry frozen.

    The gain-region length alpha and the waveguide geometry are held at the
    solution's values; only the drive frequency (and with it the coupling)
    moves.  Returns an (N, 2) float64 array of (ratio, value) rows; iterating
    it, dict() and len() behave as on a list of pairs.

    Each vectorized block of _SCAN_BLOCK points is fed to `scaled_moduli`
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
    omega = ratios * solution.omega
    Om = geom.omega_cutoff
    if not np.all((omega > Om) & (omega < np.inf)):
        raise CutoffError(f"omega = {np.min(omega)} eV is not a finite value "
                          f"above cutoff {Om} eV")
    scan = np.empty((len(ratios), 2))
    scan[:, 0] = ratios
    for lo in range(0, len(ratios), _SCAN_BLOCK):
        block = slice(lo, lo + _SCAN_BLOCK)
        om = omega[block]
        rho, sigma = _rho_sigma(medium, Om, om)
        zeta = rho.astype(complex)
        zeta.imag = sigma
        chi = _k(Om, om)
        chi *= solution.alpha
        a12, a22, b = scaled_moduli(chi, zeta)
        # values = log10(e^{-2b} + a12^2) - 2 lg22, capped where
        # log10 |m22| = lg22 + b log10(e) < log10(M22_FLOOR)
        lg22 = np.log10(a22, out=np.full_like(a22, -np.inf), where=a22 > 0)
        a12 *= a12
        a12 += np.exp(-2.0 * b)
        b *= _LOG10_E
        b += lg22
        lg22 *= 2.0
        values = np.log10(a12, out=a12)
        values -= lg22
        values[b < math.log10(M22_FLOOR)] = GAIN_CAP
        scan[block, 1] = values
    return scan
