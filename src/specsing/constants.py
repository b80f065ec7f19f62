"""Unit system and the upper-half-plane square-root branch.

Internal units: energies in eV (with hbar = 1), lengths in nm, wave numbers
in nm^-1.  The single conversion constant is hbar*c in eV*nm.
"""

import cmath

import numpy as np

__all__ = ["HBAR_C_EV_NM", "principal_sqrt_upper"]

# hbar * c in eV * nm (CODATA 2018)
HBAR_C_EV_NM = 197.3269804


def principal_sqrt_upper(u):
    """Square root of a complex number with argument in [0, pi).

    This is NOT the standard principal branch: of the two roots of u we pick
    the one in the closed upper half plane, with the positive real axis
    included and the negative real axis excluded.  For Im(u) != 0 this flips
    the sign of the standard root whenever that root has negative imaginary
    part.

    Accepts scalars or arrays; u = 0 returns 0.
    """
    if isinstance(u, complex) or np.isscalar(u):  # the cheaper test first
        s = cmath.sqrt(u)
        if s.imag > 0 or (s.imag == 0 and s.real >= 0):
            return s
        return -s
    u = np.asarray(u, dtype=np.complex128)
    # numpy's principal root has Re >= 0, so only Im < 0 needs the flip
    s = np.sqrt(u, out=np.empty_like(u))
    np.negative(s, out=s, where=s.imag < 0)
    return s

