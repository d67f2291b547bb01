"""Sphere quadrature, right-hand-side projection and the linear solve.

The projection onto the basis harmonics runs on the product rule of
``build_quadrature`` through one table of the real vector harmonics at its
nodes (``vsh.vsh_real_table``), times the weights.  That table depends on
the truncation degree and the rule alone, so it is built once and kept
(``_projection``); a projection is then one matrix-vector product.

With both balls on the x-axis, the single matrix and the dimer's 2n system
are block-diagonal over the four parity sectors of ``assembly.sector``.
The solve and the condition number run one LU per sector block
(``_lu_solve``), on index groups kept per truncation degree
(``_sectors``), and refuse a matrix with a nonzero entry across sectors.

The operator equation pairs the matrix with the *conjugated* coefficient
vector (the Bloch phase is pulled out of the inner product's second slot
conjugated), so the solve conjugates the raw LU solution before returning
it; ``SolveResult.coeffs`` is always the expansion coefficients of the
density itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .assembly import AssembledMatrix, BasisMap, _frozen, sector
from .kelvin import norm_factor
from .sphharm import Direction
from .vsh import vsh_real_table

__all__ = [
    "SphQuadrature",
    "build_quadrature",
    "SolveResult",
    "project_rhs",
    "condition",
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


@lru_cache(maxsize=1)
def build_quadrature(degree: int) -> SphQuadrature:
    """Gauss-Legendre x uniform-azimuth rule exact to the given degree.

    Nodes run over the azimuth fastest; ``grid:`` sample files rely on this
    order and on the weights.  The rule is read-only and kept for the most
    recent degree.
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
    return SphQuadrature(
        _frozen(theta), _frozen(phi), _frozen(nodes), _frozen(weights), degree
    )


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
    rule, table = _projection(basis.l_max, quad.degree)
    if quad is not rule and not all(
        np.array_equal(getattr(quad, key), getattr(rule, key))
        for key in ("theta", "phi", "weights")
    ):
        raise ValueError(f"not the rule of build_quadrature({quad.degree})")
    if callable(phi):
        phi = [phi(d) for d in quad.directions()]
    samples = np.asarray(phi, dtype=complex)
    if samples.shape != (quad.n_nodes, 3):
        raise ValueError(f"expected samples of shape ({quad.n_nodes}, 3)")
    flat = samples.conjugate().reshape(-1)
    # two real products, stored as the real and imaginary parts
    return (table @ np.stack([flat.real, flat.imag], axis=1)).view(complex)[:, 0]


@lru_cache(maxsize=1)
def _projection(l_max: int, degree: int):
    """``build_quadrature(degree)`` and the weighted harmonic table of
    ``BasisMap(l_max)`` on it, shaped ``(n, 3 n_nodes)``, read-only; only
    the most recent pair is kept."""
    quad = build_quadrature(degree)
    table = vsh_real_table(BasisMap(l_max), quad.theta, quad.phi)
    table *= quad.weights[:, None]
    return quad, _frozen(table.reshape(len(table), -1))


def _layout(groups):
    """Index groups of a block-diagonal matrix as one batch of square blocks
    padded to the largest, read-only: ``rows[b, i]`` is the matrix row of
    row ``i`` of block ``b`` where ``valid[b, i]``, and 0 in the padding."""
    sizes = np.array([len(g) for g in groups])
    valid = np.arange(sizes.max()) < sizes[:, None]
    rows = np.zeros(valid.shape, dtype=np.intp)
    rows[valid] = np.concatenate(groups)
    return _frozen(rows), _frozen(valid)


@lru_cache(maxsize=1)
def _sectors(l_max: int):
    """The ``_layout`` of the nonempty parity sectors of ``BasisMap(l_max)``
    in the single matrix and in the dimer's 2n system, where each sector
    holds its rows on both balls; only the most recent ``l_max`` is
    kept."""
    secs = np.array([sector(*label) for label in BasisMap(l_max)])
    n = len(secs)
    single = [np.flatnonzero(secs == k) for k in range(4)]
    single = [g for g in single if len(g)]
    dimer = [np.concatenate([g, g + n]) for g in single]
    return _layout(single), _layout(dimer)


def _blocks(m: AssembledMatrix):
    single, dimer = _sectors(m.l_max)
    return single if m.dimer is None else dimer


def _lu_solve(mat: np.ndarray, rhs: np.ndarray, blocks=None):
    """LAPACK ``gesv`` (LU with partial pivoting) on ``[rhs_k | I]`` for
    each diagonal block ``M_k`` of a ``_layout``, by default one block of
    the whole matrix: column 0 is the solution, the rest the inverse, which
    gives the exact one-norm condition number ``||M||_1 max_k ||M_k^-1||_1``
    of the block-diagonal matrix.  The blocks go to LAPACK as one batch,
    each padded with the identity, which changes neither its pivots nor its
    inverse.  Raises ``ValueError`` if an entry outside the blocks is
    nonzero."""
    n = mat.shape[0]
    rows, valid = _layout([np.arange(n)]) if blocks is None else blocks
    batch = mat[rows[:, :, None], rows[:, None, :]]
    pad, row = np.nonzero(~valid)
    batch[pad, row, :] = 0.0
    batch[pad, :, row] = 0.0
    if np.count_nonzero(batch) != np.count_nonzero(mat):
        raise ValueError("the matrix couples different parity sectors")
    norm = _column_sums(batch, valid)
    batch[pad, row, row] = 1.0
    cols = np.zeros(batch.shape[:2] + (batch.shape[2] + 1,), dtype=complex)
    cols[:, :, 1:] = np.eye(batch.shape[2])
    cols[valid, 0] = rhs[rows[valid]]
    try:
        both = np.linalg.solve(batch, cols)
    except np.linalg.LinAlgError:  # an exactly zero pivot
        return np.full(n, np.nan, dtype=complex), np.inf
    raw = np.empty(n, dtype=complex)
    raw[rows[valid]] = both[valid, 0]
    return raw, float(norm * _column_sums(both[:, :, 1:], valid))


def _column_sums(batch, valid) -> float:
    """The largest one-norm of the blocks of a padded batch, each column
    summed as ``numpy.linalg.norm(block, 1)`` sums it; the padding's
    columns are left out."""
    return np.abs(batch).sum(axis=1)[valid].max()


def _solve(mat: np.ndarray, rhs: np.ndarray, blocks=None) -> SolveResult:
    rhs = np.asarray(rhs, dtype=complex)
    if mat.shape[0] != mat.shape[1] or rhs.shape != (mat.shape[0],):
        raise ValueError("matrix/rhs shape mismatch")
    if not np.all(np.isfinite(rhs)):
        raise ValueError("the right-hand side holds non-finite entries")
    raw, cond = _lu_solve(mat, rhs, blocks)
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


def condition(m: AssembledMatrix) -> float:
    """The exact one-norm condition number of an assembled matrix, the
    number the solve reports (``inf`` for an exactly singular one)."""
    return _lu_solve(m.matrix, np.zeros(m.matrix.shape[0]), _blocks(m))[1]


def solve_single(m: AssembledMatrix, rhs: np.ndarray) -> SolveResult:
    """Solve for the density coefficients of a single ball."""
    if m.dimer is not None:
        raise ValueError("got a dimer matrix; use solve_dimer")
    return _solve(m.matrix, rhs, _blocks(m))


def solve_dimer(m: AssembledMatrix, rhs_pair) -> tuple[SolveResult, ...]:
    """Solve the two-ball block system; returns per-ball results sharing
    the stacked residual and condition number."""
    if m.dimer is None:
        raise ValueError("got a single-ball matrix; use solve_single")
    b1, b2 = rhs_pair
    n = m.basis.n_eff
    stacked = np.concatenate([np.asarray(b1), np.asarray(b2)])
    res = _solve(m.matrix, stacked, _blocks(m))
    first = SolveResult(res.coeffs[:n], res.residual, res.cond, res.warning)
    second = SolveResult(res.coeffs[n:], res.residual, res.cond, res.warning)
    return first, second
