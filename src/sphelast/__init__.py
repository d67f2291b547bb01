"""sphelast: quasi-periodic elastic single-layer potentials on spheres.

The boundary integral operator of a 1-D chain of spherical scatterers is
represented exactly in the real vector spherical harmonic basis: translation
re-expansion gives every inner product in closed form, and the Bloch-phased
lattice sums collapse to polylogarithm (single ball) or Lerch (two-ball
dimer) values, so the assembled matrix carries no discretisation error.
"""

__version__ = "0.1.0"

from .kelvin import LameParams
from .latsum import DimerGeometry, QuasiMomentumSingular
from .vsh import Family, ForbiddenIndexError
from .assembly import (
    AssembledMatrix,
    BasisMap,
    assemble_dimer,
    assemble_single,
)
from .system import (
    SolveResult,
    build_quadrature,
    project_rhs,
    solve_dimer,
    solve_single,
)

__all__ = [
    "__version__",
    "LameParams",
    "DimerGeometry",
    "QuasiMomentumSingular",
    "Family",
    "ForbiddenIndexError",
    "AssembledMatrix",
    "BasisMap",
    "assemble_single",
    "assemble_dimer",
    "SolveResult",
    "project_rhs",
    "solve_single",
    "solve_dimer",
    "build_quadrature",
]
