"""Spectral singularities of the complex barrier potential and the
resonating-waveguide designs built on them."""

from .barrier import m22_residual, principal_sqrt_upper, transfer_matrix
from .locus import BranchLabel, LocusPoint, solve_sigma, trace_curve
from .waveguide import (
    HBAR_C_EV_NM,
    GainMedium,
    SingularitySolution,
    WaveguideGeometry,
    find_singularities,
    gain_scan,
    permittivity,
)

__version__ = "0.1.0"
