"""fplab: a numerical laboratory for vanishing-noise limits of stationary
Fokker-Planck measures.

Solves stationary Fokker-Planck equations for drift fields under
parameterized families of diffusion matrices shrinking to zero, and verifies
the limit-measure phenomenology at desk scale: invariance of limit measures,
tightness, exponential sublevel-set concentration bounds, noise-driven
stabilization of local attractors and destabilization of repellers, and the
stochastic Hopf bifurcation between a point mass and the uniform measure on a
limit cycle.
"""

from .fields import (
    DiffusionField,
    DiscreteMeasure,
    NullFamilySchedule,
    VectorField,
    isotropic_diffusion,
    isotropic_schedule,
    rebin_measure,
    sample_diffusion_field,
    sample_vector_field,
)
from .grid import Grid2D

__version__ = "0.1.0"

__all__ = [
    "Grid2D",
    "VectorField",
    "DiffusionField",
    "NullFamilySchedule",
    "DiscreteMeasure",
    "sample_vector_field",
    "sample_diffusion_field",
    "isotropic_diffusion",
    "isotropic_schedule",
    "rebin_measure",
    "__version__",
]
