"""nsvlab: spectral simulation and verification lab for alpha-regularized
Navier-Stokes dynamics and attractor-dimension bounds on the 2D torus."""

__version__ = "0.1.0"

from .spectral import (  # noqa: F401
    VELOCITY,
    VORTICITY,
    TORUS_AREA,
    AlphaMetric,
    SpectralField,
    SpectralGrid,
)
