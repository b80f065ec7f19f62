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
from .barrier import m22_residual, scaled_transfer
from .constants import HBAR_C_EV_NM
from .locus import BranchLabel, _certify, _grid_roots, brentq

__all__ = [
    "GainMedium",
    "WaveguideGeometry",
    "SingularitySolution",
    "CutoffError",
    "permittivity",
    "k_of",
    "rho_sigma_of",
    "find_singularities",
    "gain_scan",
]

DEFAULT_GRID_POINTS = 20000
GAIN_CAP = 600.0  # reported log10(|T|^2+|R|^2) when |m22| underflows
_LOG10_E = math.log10(math.e)
# gain_scan points per vectorized block: the ~20 temporaries of a block stay
# in cache, and memory does not grow with the grid
_SCAN_BLOCK = 2048


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


def _checked_cutoff(geom, omega):
    """The cutoff Omega, once every omega (a float or an array) is checked to
    be finite and above it."""
    Om = geom.omega_cutoff
    if isinstance(omega, np.ndarray):
        ok = ((omega > Om) & (omega < np.inf)).all()
    else:
        # np.all costs microseconds on a float
        ok = Om < omega < math.inf
    if not ok:
        raise CutoffError(f"omega = {np.min(omega)} eV is not a finite value "
                          f"above cutoff {Om} eV")
    return Om


def k_of(geom, omega):
    """Longitudinal wave number k = (omega/hbar c) sqrt(1 - Omega^2/omega^2)
    at omega, a float or an array of them."""
    Om = _checked_cutoff(geom, omega)
    # (1-Om/omega)(1+Om/omega) keeps precision just above cutoff
    u = (1 - Om / omega) * (1 + Om / omega)
    return (omega / HBAR_C_EV_NM) * (np.sqrt(u) if isinstance(u, np.ndarray) else math.sqrt(u))


def rho_sigma_of(medium, geom, omega):
    """Locus-plane coordinates (rho, sigma) of the drive frequency omega, a
    float or an array of them."""
    Om = _checked_cutoff(geom, omega)
    d2 = omega**2 - medium.omega0**2
    den = (d2 * d2 + 4.0 * omega**2 * medium.delta**2) * (1 - Om**2 / omega**2)
    rho = medium.omega_p_sq * d2 / den
    sigma = -2.0 * omega * medium.omega_p_sq * medium.delta / den
    return rho, sigma


def coupling_of(medium, geom, omega):
    """Complex barrier coupling z (nm^-2) at the drive frequency omega, a
    float or an array of them."""
    kk = omega / HBAR_C_EV_NM  # vacuum wave number omega/c
    return kk * kk * (1 - permittivity(medium, omega))


def _mismatch(n, medium, geom, omega):
    rho, sigma = rho_sigma_of(medium, geom, omega)
    return kernels.f_scalar(n, -1, rho, sigma / (1.0 - rho))


def find_singularities(medium, geom, n, grid_points=DEFAULT_GRID_POINTS):
    """All certified singularity designs of branch (n, -) in the window
    (Omega (1 + 1e-9), 10 omega0); CutoffError if it is empty.

    The locus function is evaluated along the physical curve on a grid
    log-spaced in (omega - Omega) -- near-cutoff intersections sit at
    omega/Omega - 1 ~ 1e-3 and need the densification -- then each sign
    change is polished by Brent's method and certified by the barrier
    residual.  Solutions are labeled ell = 1, 2, ... by descending rho
    (ties by ascending sigma) to match the count-down-from-rho=1 convention.
    """
    if n < 1:
        raise ValueError(f"branch index must be >= 1, got {n}")
    Om = geom.omega_cutoff
    lo, hi = Om * (1 + 1e-9), 10.0 * medium.omega0
    if not lo < hi:
        raise CutoffError(f"cutoff {Om} eV is not below 10 omega0 = {hi} eV")
    us = np.linspace(math.log(lo - Om), math.log(hi - Om), grid_points)
    rho, sigma = rho_sigma_of(medium, geom, Om + np.exp(us))
    with np.errstate(over="ignore"):
        g = kernels.f_grid(n, -1, rho, sigma / (1.0 - rho))

    def omega_of(u):
        return Om + math.exp(u)

    roots = _grid_roots(brentq, lambda u: _mismatch(n, medium, geom, omega_of(u)),
                        us, g, 1e-9, omega_of)
    sols = []
    branch = BranchLabel(n=n, eps=-1)
    for om in roots:
        r_, s_ = rho_sigma_of(medium, geom, om)
        if r_ >= 1:
            continue
        k = k_of(geom, om)
        pt = _certify(m22_residual, branch, r_, s_, s_ / (1.0 - r_), k)
        if pt is None:
            continue
        eps_r = permittivity(medium, om)
        sols.append(SingularitySolution(
            branch=branch, ell=0, omega=om, k=k, alpha=pt.alpha_k / k,
            lam=2.0 * math.pi * HBAR_C_EV_NM / om,
            epsilon=eps_r, refractive_index=cmath.sqrt(eps_r),
            residual=pt.residual, rho_star=r_, sigma_star=s_,
        ))
    sols.sort(key=lambda s: (-s.rho_star, s.sigma_star))
    return [SingularitySolution(**{**vars(s), "ell": i})
            for i, s in enumerate(sols, start=1)]


def gain_scan(solution, medium, geom, ratio_grid):
    """log10(|T|^2 + |R|^2) versus omega/omega_s with the geometry frozen.

    The gain-region length alpha and the waveguide geometry are held at the
    solution's values; only the drive frequency (and with it the coupling)
    moves.  Returns an (N, 2) float64 array of (ratio, value) rows; iterating
    it, dict() and len() behave as on a list of pairs.

    The grid goes through `scaled_transfer` in vectorized blocks of
    _SCAN_BLOCK points.  With M = e^b M~,
    |T|^2 + |R|^2 = (1 + |m12|^2)/|m22|^2 is evaluated in log space as
    log10(e^{-2b} + |m~12|^2) - 2 log10|m~22|, so it stays finite however
    large the entries grow.  Where |m22| = e^b |m~22| < 1e-300 (at a
    singularity) the value is GAIN_CAP.  Raises CutoffError, before the
    matrix is evaluated, if any ratio puts omega at or below the cutoff (or
    is not finite).
    """
    ratios = np.asarray(ratio_grid, dtype=float)
    omega = ratios * solution.omega
    _checked_cutoff(geom, omega)
    scan = np.empty((len(ratios), 2))
    scan[:, 0] = ratios
    for lo in range(0, len(ratios), _SCAN_BLOCK):
        block = slice(lo, lo + _SCAN_BLOCK)
        om = omega[block]
        _, m12, m22, b = scaled_transfer(solution.alpha, coupling_of(medium, geom, om),
                                         k_of(geom, om))
        a22 = np.abs(m22)
        lg22 = np.log10(a22, out=np.full_like(a22, -np.inf), where=a22 > 0)
        capped = lg22 + b * _LOG10_E < -300.0  # |m22| < 1e-300
        values = np.log10(np.exp(-2.0 * b) + np.abs(m12) ** 2) - 2.0 * lg22
        scan[block, 1] = np.where(capped, GAIN_CAP, values)
    return scan
