"""Sphere quadrature, right-hand-side projection and the linear solve.

The projection onto the basis harmonics runs on the product rule of
``build_quadrature`` through one table of the real vector harmonics at its
nodes (``vsh.vsh_real_table``).

The operator equation pairs the matrix with the *conjugated* coefficient
vector (the Bloch phase is pulled out of the inner product's second slot
conjugated), so the solve conjugates the raw LU solution before returning
it; ``SolveResult.coeffs`` is always the expansion coefficients of the
density itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .assembly import AssembledMatrix, BasisMap
from .kelvin import norm_factor
from .sphharm import Direction
from .vsh import vsh_real_table

__all__ = [
    "SphQuadrature",
    "build_quadrature",
    "SolveResult",
    "project_rhs",
    "solve_single",
    "solve_dimer",
]

_COND_WARN = 1e12


@dataclass(frozen=True)
class SphQuadrature:
    """Product quadrature on the unit sphere with known polynomial degree."""

    theta: np.ndarray
    phi: np.ndarray
    nodes: np.ndarray       # (N, 3) unit vectors
    weights: np.ndarray     # (N,), summing to 4 pi
    degree: int

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    def directions(self):
        return [
            Direction.from_angles(t, p)
            for t, p in zip(self.theta, self.phi)
        ]


def build_quadrature(degree: int) -> SphQuadrature:
    """Gauss-Legendre x uniform-azimuth rule exact to the given degree.

    Nodes run over the azimuth fastest; ``grid:`` sample files rely on this
    order and on the weights.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    n_theta = (degree + 2) // 2
    n_phi = degree + 1
    x, w = leggauss(n_theta)
    theta_1d = np.arccos(x)
    phi_1d = 2.0 * math.pi * np.arange(n_phi) / n_phi
    w_phi = 2.0 * math.pi / n_phi
    theta = np.repeat(theta_1d, n_phi)
    phi = np.tile(phi_1d, n_theta)
    weights = np.repeat(w, n_phi) * w_phi
    st = np.sin(theta)
    nodes = np.stack(
        [st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=1
    )
    return SphQuadrature(theta, phi, nodes, weights, degree)


@dataclass
class SolveResult:
    coeffs: np.ndarray
    residual: float
    cond: float
    warning: str | None = None


def project_rhs(
    phi, quad: SphQuadrature, basis: BasisMap, coeffs: bool = False
) -> np.ndarray:
    """Project a boundary field onto the basis harmonics.

    ``phi`` is a sampler (direction -> 3-vector), precomputed samples of
    shape (n_nodes, 3), or, with ``coeffs=True``, an expansion coefficient
    vector, in which case the projection is the closed form
    ``conj(c) * norm`` with no quadrature at all.
    """
    if coeffs:
        c = np.asarray(phi, dtype=complex)
        if c.shape != (basis.n_eff,):
            raise ValueError(f"expected {basis.n_eff} coefficients")
        norms = np.array([norm_factor(fam, l) for l, _m, fam in basis])
        return c.conjugate() * norms
    if quad.degree < 2 * basis.l_max + 2:
        raise ValueError(
            f"quadrature degree {quad.degree} < 2*L_max+2 = "
            f"{2 * basis.l_max + 2}"
        )
    if callable(phi):
        phi = [phi(d) for d in quad.directions()]
    samples = np.asarray(phi, dtype=complex)
    if samples.shape != (quad.n_nodes, 3):
        raise ValueError(f"expected samples of shape ({quad.n_nodes}, 3)")
    fields = vsh_real_table(basis, quad.theta, quad.phi)
    return np.einsum("ink,nk,n->i", fields, samples.conjugate(), quad.weights)


def _lu_solve(mat: np.ndarray, rhs: np.ndarray):
    """One LAPACK ``gesv`` (LU with partial pivoting) on ``[rhs | I]``: column
    0 is the solution, the rest the inverse, which gives the exact one-norm
    condition number ``||M||_1 ||M^-1||_1``."""
    n = mat.shape[0]
    try:
        both = np.linalg.solve(mat, np.column_stack([rhs, np.eye(n)]))
    except np.linalg.LinAlgError:  # an exactly zero pivot
        return np.full(n, np.nan, dtype=complex), np.inf
    cond = float(np.linalg.norm(mat, 1) * np.linalg.norm(both[:, 1:], 1))
    return both[:, 0], cond


def _solve(mat: np.ndarray, rhs: np.ndarray) -> SolveResult:
    rhs = np.asarray(rhs, dtype=complex)
    if mat.shape[0] != mat.shape[1] or rhs.shape != (mat.shape[0],):
        raise ValueError("matrix/rhs shape mismatch")
    raw, cond = _lu_solve(mat, rhs)
    if not np.all(np.isfinite(raw)):
        raise np.linalg.LinAlgError(
            f"singular operator matrix (condition estimate {cond:.3e})"
        )
    coeffs = raw.conjugate()
    denom = np.linalg.norm(rhs)
    residual = float(
        np.linalg.norm(mat @ coeffs.conjugate() - rhs) / (denom if denom else 1.0)
    )
    warning = None
    if cond > _COND_WARN:
        warning = f"ill-conditioned system: cond ~ {cond:.3e}"
    return SolveResult(coeffs, residual, cond, warning)


def solve_single(m: AssembledMatrix, rhs: np.ndarray) -> SolveResult:
    """Solve for the density coefficients of a single ball."""
    if m.dimer is not None:
        raise ValueError("got a dimer matrix; use solve_dimer")
    return _solve(m.matrix, rhs)


def solve_dimer(m: AssembledMatrix, rhs_pair) -> tuple[SolveResult, ...]:
    """Solve the two-ball block system; returns per-ball results sharing
    the stacked residual and condition number."""
    if m.dimer is None:
        raise ValueError("got a single-ball matrix; use solve_single")
    b1, b2 = rhs_pair
    n = m.basis.n_eff
    stacked = np.concatenate([np.asarray(b1), np.asarray(b2)])
    res = _solve(m.matrix, stacked)
    first = SolveResult(res.coeffs[:n], res.residual, res.cond, res.warning)
    second = SolveResult(res.coeffs[n:], res.residual, res.cond, res.warning)
    return first, second
