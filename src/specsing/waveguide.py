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
from .barrier import BarrierSpec, m22_residual, transfer_matrix
from .constants import HBAR_C_EV_NM
from .locus import RESIDUAL_TOL, BranchLabel, G_of, _grid_roots, brentq

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
        if not self.omega0 > 0:
            raise ValueError(f"omega0 must be positive, got {self.omega0}")
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta}")


@dataclass(frozen=True)
class WaveguideGeometry:
    """Half-height beta (nm) and transverse mode index m; TE fields do not
    depend on the width."""

    beta: float
    m: int = 1

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
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
    """Relative permittivity 1 - omega_p^2 / (omega^2 - omega0^2 + 2i delta omega)."""
    if not omega > 0:
        raise ValueError(f"omega must be positive, got {omega}")
    return 1 - medium.omega_p_sq / (omega**2 - medium.omega0**2
                                    + 2j * medium.delta * omega)


def k_of(geom, omega):
    """Longitudinal wave number k = (omega/hbar c) sqrt(1 - Omega^2/omega^2)."""
    Om = geom.omega_cutoff
    if omega <= Om:
        raise CutoffError(f"omega = {omega} eV at or below cutoff {Om} eV")
    # (1-Om/omega)(1+Om/omega) keeps precision just above cutoff
    return (omega / HBAR_C_EV_NM) * math.sqrt((1 - Om / omega) * (1 + Om / omega))


def rho_sigma_of(medium, geom, omega):
    """Locus-plane coordinates (rho, sigma) of the drive frequency omega, a
    float or an array of them."""
    Om = geom.omega_cutoff
    below = omega <= Om
    # a float compares to a bool, and np.any costs microseconds on it
    if below.any() if isinstance(below, np.ndarray) else below:
        raise CutoffError(f"omega = {np.min(omega)} eV at or below cutoff {Om} eV")
    d2 = omega**2 - medium.omega0**2
    den = (d2 * d2 + 4.0 * omega**2 * medium.delta**2) * (1 - Om**2 / omega**2)
    rho = medium.omega_p_sq * d2 / den
    sigma = -2.0 * omega * medium.omega_p_sq * medium.delta / den
    return rho, sigma


def coupling_of(medium, geom, omega):
    """Complex barrier coupling z (nm^-2) at the drive frequency omega."""
    kk = omega / HBAR_C_EV_NM  # vacuum wave number omega/c
    return kk * kk * (1 - permittivity(medium, omega))


def _mismatch(n, medium, geom, omega):
    rho, sigma = rho_sigma_of(medium, geom, omega)
    return kernels.f_scalar(n, -1, rho, sigma / (1.0 - rho))


def find_singularities(medium, geom, n, omega_window=None,
                       grid_points=DEFAULT_GRID_POINTS):
    """All certified singularity designs of branch (n, -) in a frequency window.

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
    if omega_window is None:
        omega_window = (Om * (1 + 1e-9), 10.0 * medium.omega0)
    lo, hi = omega_window
    if not (Om < lo < hi):
        raise CutoffError(f"window ({lo}, {hi}) eV not above cutoff {Om} eV")
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
        y = s_ / (1.0 - r_)
        alpha_k = G_of(branch, r_, y)
        if alpha_k <= 0:
            continue
        k = k_of(geom, om)
        alpha = alpha_k / k
        z = k * k * complex(r_, s_)
        res = m22_residual(BarrierSpec(alpha=alpha, z=z), k)
        if res >= RESIDUAL_TOL:
            continue
        eps_r = permittivity(medium, om)
        sols.append(SingularitySolution(
            branch=branch, ell=0, omega=om, k=k, alpha=alpha,
            lam=2.0 * math.pi * HBAR_C_EV_NM / om,
            epsilon=eps_r, refractive_index=cmath.sqrt(eps_r),
            residual=res, rho_star=r_, sigma_star=s_,
        ))
    sols.sort(key=lambda s: (-s.rho_star, s.sigma_star))
    return [SingularitySolution(**{**vars(s), "ell": i})
            for i, s in enumerate(sols, start=1)]


def gain_scan(solution, medium, geom, ratio_grid, cap=GAIN_CAP):
    """log10(|T|^2 + |R|^2) versus omega/omega_s with the geometry frozen.

    The gain-region length alpha and the waveguide geometry are held at the
    solution's values; only the drive frequency (and with it the coupling)
    moves.  Returns a list of (ratio, log10 value); |m22| < 1e-300 reports
    the cap instead of overflowing.
    """
    Om = geom.omega_cutoff
    out = []
    spec_alpha = solution.alpha
    for ratio in ratio_grid:
        om = ratio * solution.omega
        if om <= Om:
            raise CutoffError(f"ratio {ratio} puts omega below cutoff")
        k = k_of(geom, om)
        z = coupling_of(medium, geom, om)
        m = transfer_matrix(BarrierSpec(alpha=spec_alpha, z=z), k)
        a22 = abs(m.m22)
        if a22 < 1e-300:
            out.append((ratio, cap))
            continue
        val = (1.0 + abs(m.m12) ** 2) / (a22 * a22)
        out.append((ratio, math.log10(val)))
    return out
