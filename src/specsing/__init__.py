"""Spectral singularities of the complex barrier potential and the
resonating-waveguide designs built on them."""

from .barrier import BarrierSpec, m22_residual, transfer_matrix
from .constants import HBAR_C_EV_NM, principal_sqrt_upper
from .locus import BranchLabel, LocusPoint, solve_sigma, trace_curve
from .waveguide import (
    GainMedium,
    SingularitySolution,
    WaveguideGeometry,
    find_singularities,
    gain_scan,
    permittivity,
)

__version__ = "0.1.0"
