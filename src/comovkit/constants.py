"""Physical constants and the Minkowski metric convention.

The whole package works in the signature (-,+,+,+); ETA is the constant
metric matrix. Natural units (hbar = m = c = 1) are the default fixture,
but every formula carries the constants explicitly.
"""

from dataclasses import dataclass

import numpy as np

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


@dataclass(frozen=True)
class PhysicalConstants:
    """Particle mass and the two universal constants used throughout.

    Attributes
    ----------
    hbar : float
        Reduced Planck constant.
    mass : float
        Particle rest mass (must be positive).
    c : float
        Speed of light.
    """

    hbar: float = 1.0
    mass: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if self.hbar <= 0 or self.mass <= 0 or self.c <= 0:
            raise ValueError("hbar, mass and c must all be positive")

    @property
    def nu(self):
        """Diffusion coefficient hbar/m of the position process."""
        return self.hbar / self.mass

    @property
    def compton_wavenumber(self):
        """m c / hbar, the inverse reduced Compton wavelength."""
        return self.mass * self.c / self.hbar


def natural_units():
    """Constants with hbar = m = c = 1."""
    return PhysicalConstants(1.0, 1.0, 1.0)


def raise_index(vec):
    """Convert covariant components to contravariant ones (or back).

    With ETA = diag(-1,1,1,1) the operation is its own inverse: it flips
    the sign of the time component. Works on (..., 4) arrays.
    """
    out = np.array(vec, dtype=float, copy=True)
    out[..., 0] = -out[..., 0]
    return out


def minkowski_norm_squared(vec_cov, vec_con=None):
    """eta^{mu nu} a_mu b_nu for covariant inputs (or a_mu b^mu if mixed).

    If only one argument is given, returns the squared Minkowski norm of
    that covariant vector.
    """
    a = np.asarray(vec_cov, dtype=float)
    if vec_con is None:
        vec_con = raise_index(a)
    b = np.asarray(vec_con, dtype=float)
    return np.einsum("...i,...i->...", a, b)
