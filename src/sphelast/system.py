"""Sphere quadrature, right-hand-side projection and the linear solve.

The projection onto the basis harmonics runs on the product rule of
``build_quadrature``: Gauss-Legendre rings in the polar angle (the nodes of
``leggauss`` after one Newton step, each weight from the Christoffel sum,
which does not cancel) times equispaced azimuths.  It is the separable
transform of that rule (Driscoll & Healy, Adv. Appl. Math. 15:202, 1994;
Schaeffer, Geochem. Geophys. Geosyst. 14:751, 2013), in O(L^3) time and
memory: on each ring, one real DFT of the samples' horizontal radial,
vertical and azimuthal parts for the orders ``0..L``, a small cosine/sine
matrix product with the frame rotation folded in (not ``numpy.fft``, whose
first call alone takes about 0.6 ms of a cold solve); then for each basis
label one sum over the rings against the weighted Legendre ``p``, ``pi``
and ``tau`` of its ``(l, |m|)``, combined as ``vsh`` combines them.  The
DFT matrix and the per-label amplitudes depend on the truncation degree
and the rule alone, so they are built once and kept (``_transform``); a
projection is then one matrix product and one gather-and-sum.

With both balls on the x-axis, the single matrix and the dimer's 2n system
are block-diagonal over the parity sectors of ``assembly.sectors``, and an
``AssembledMatrix`` holds only those blocks.  The solve and the condition
number run one LU per block (``_lu_solve``) and never form the dense
matrix; the residual, too, is summed block by block.

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

from .assembly import AssembledMatrix, BasisMap, _frozen
from .kelvin import norm_factor
from .sphharm import Direction, _recur_up, legendre_table, sph_norm_table
from .vsh import Family, _family_amplitudes, _real_combination

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
    x, w = _gauss_legendre(n_theta)
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


def _gauss_legendre(n: int):
    """The ``n``-point Gauss-Legendre rule on ``[-1, 1]``: ``leggauss``'s
    nodes after one Newton step, and each weight from the Christoffel sum
    ``1 / w_i = sum_{k<n} (2k + 1) / 2 P_k(x_i)^2``, whose terms are all
    positive (``leggauss``'s weights lose up to 3e-13 relative by n = 34).
    ``P_k`` comes from the recurrence of ``sphharm`` at order 0, in ``x``
    itself."""
    x, _w = leggauss(n)
    p = np.empty((n + 1, n))
    _recur_up(p, 0, x, 1.0)
    x = x - p[n] * (1.0 - x * x) / (n * (p[n - 1] - x * p[n]))
    _recur_up(p, 0, x, 1.0)
    k = np.arange(n)[:, None]
    return x, 1.0 / ((k + 0.5) * p[:n] * p[:n]).sum(axis=0)


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
    rule, dft, group, amps = _transform(basis.l_max, quad.degree)
    if quad is not rule and not all(
        np.array_equal(getattr(quad, key), getattr(rule, key))
        for key in ("theta", "phi", "weights")
    ):
        raise ValueError(f"not the rule of build_quadrature({quad.degree})")
    if callable(phi):
        phi = [phi(d) for d in quad.directions()]
    samples = np.ascontiguousarray(phi, dtype=complex)
    if samples.shape != (quad.n_nodes, 3):
        raise ValueError(f"expected samples of shape ({quad.n_nodes}, 3)")
    sums = samples.view(float).reshape(amps.shape[1], -1) @ dft
    # [group, part, ring, member]
    sums = sums.reshape(len(sums), 2, -1, 3).transpose(2, 1, 0, 3)
    out = np.empty((len(amps), 2))
    np.einsum("icrx,irx->ic", np.take(sums, group, axis=0), amps, out=out)
    return out.view(complex)[:, 0]


@lru_cache(maxsize=1)
def _transform(l_max: int, degree: int):
    """``build_quadrature(degree)`` and the ring tables of the projection
    onto ``BasisMap(l_max)`` (``dft``, ``group``, ``amps``), read-only; only
    the most recent pair is kept.

    The rule's nodes lie on rings of one polar angle.  At azimuth ``phi``
    a sample splits into its horizontal radial ``h = x cos phi + y sin phi``,
    vertical ``z`` and azimuthal ``q = y cos phi - x sin phi`` parts.
    ``dft`` takes one ring's samples, as the real and imaginary parts of
    its nodes' Cartesian components, to the cosine (C) and sine (S) sums
    of orders ``k = 0..l_max`` of the real part and of the imaginary part
    of the conjugated samples, in groups of three: group ``2 k`` is
    ``(C h, C z, S q)`` and group ``2 k + 1`` ``(S h, S z, C q)``.  Label
    ``i`` reads group ``group[i]``, at the order ``|m|`` of the label, and
    ``amps[i, ring]`` are its amplitudes on the group: the label's real vector
    harmonic on the frame ``(h, z, q)``, times the ring's weight.  On that
    frame ``r_hat``, ``theta_hat`` and ``phi_hat`` are ``(sin, cos, 0)``,
    ``(cos, -sin, 0)`` and ``(0, 0, 1)`` of the ring's polar angle, so the
    amplitudes hold the ring's Legendre values and no azimuth."""
    quad = build_quadrature(degree)
    n_phi = degree + 1
    theta, weights = quad.theta[::n_phi], quad.weights[::n_phi]
    phi = quad.phi[:n_phi]
    # cos(k phi) of the stored azimuths, as vsh_real takes them
    angle = np.arange(l_max + 1)[:, None] * phi
    c, s = np.cos(angle), np.sin(angle)
    cp, sp, zero, one = np.cos(phi), np.sin(phi), np.zeros(n_phi), np.ones(n_phi)
    # [x/y/z, h/z/q, azimuth]
    split = np.array([[cp, zero, -sp], [sp, zero, cp], [zero, one, zero]])
    trig = np.array([[c, c, s], [s, s, c]])    # [group 2k or 2k + 1, h/z/q, k, azimuth]
    folded = np.einsum("axj,gxkj->jakgx", split, trig).reshape(3 * n_phi, -1)
    # [azimuth and Cartesian component, real/imaginary part, part of the
    # conjugate, sum]: the conjugate's imaginary part is minus the sample's
    dft = np.zeros((3 * n_phi, 2, 2, folded.shape[1]))
    dft[:, 0, 0] = folded
    dft[:, 1, 1] = -folded

    labels = np.array(BasisMap(l_max).labels)
    l, m, fam = labels.T
    ma = np.abs(m)
    p, pi, tau = legendre_table(l_max, theta)
    norm = sph_norm_table(l_max)[l, ma, None]
    a_tau, a_pi, a_y = norm * tau[l, ma], norm * ma[:, None] * pi[l, ma], norm * p[l, ma]
    st, ct, zero, one = np.sin(theta), np.cos(theta), np.zeros(len(theta)), np.ones(len(theta))
    # r_hat, theta_hat and phi_hat on (h, z, q), each shaped [ring, h/z/q]
    frame = np.array([[st, ct, zero], [ct, -st, zero], [zero, zero, one]]).transpose(0, 2, 1)
    amps = np.empty((len(labels), len(theta), 3))
    for family in Family:
        for sign in (-1, 0, 1):
            at = np.flatnonzero((fam == family) & (np.sign(m) == sign))
            if not len(at):
                continue
            re, im = _family_amplitudes(
                family, l[at, None, None], a_tau[at, :, None], a_pi[at, :, None],
                a_y[at, :, None], frame,
            )
            # re and im fill complementary members of (h, z, q): with
            # c = s = 1 each keeps its own term, on the cosine or the sine sum
            amps[at] = _real_combination(sign, re, im, 1.0, 1.0)
    amps *= weights[:, None]
    # (C h, C z, S q) for V and W at m >= 0 and X at m < 0, else (S h, S z, C q)
    group = 2 * ma + ((m < 0) ^ (fam == Family.X))
    return quad, _frozen(dft.reshape(6 * n_phi, -1)), _frozen(group), _frozen(amps)


def _lu_solve(m: AssembledMatrix, rhs: np.ndarray):
    """LAPACK ``gesv`` (LU with partial pivoting) on ``[rhs_k | I]`` for
    each sector block ``M_k`` of ``m``: column 0 is the solution, the rest
    the inverse, which gives the exact one-norm condition number ``max_k
    ||M_k||_1 max_k ||M_k^-1||_1`` of the block-diagonal matrix (NaNs and
    ``inf`` when a block is exactly singular)."""
    raw = np.empty(len(rhs), dtype=complex)
    norm = inverse = 0.0
    for block, rows in zip(m.blocks, m.rows):
        cols = np.eye(len(rows), len(rows) + 1, 1, dtype=complex)
        cols[:, 0] = rhs[rows]
        try:
            both = np.linalg.solve(block, cols)
        except np.linalg.LinAlgError:  # an exactly zero pivot
            return np.full(len(rhs), np.nan, dtype=complex), np.inf
        raw[rows] = both[:, 0]
        norm = max(norm, np.abs(block).sum(axis=0).max())
        inverse = max(inverse, np.abs(both[:, 1:]).sum(axis=0).max())
    return raw, float(norm * inverse)


def _solve(m: AssembledMatrix, rhs) -> SolveResult:
    rhs = np.asarray(rhs, dtype=complex)
    if rhs.shape != (m.size,):
        raise ValueError("matrix/rhs shape mismatch")
    if not np.all(np.isfinite(rhs)):
        raise ValueError("the right-hand side holds non-finite entries")
    raw, cond = _lu_solve(m, rhs)
    if not np.all(np.isfinite(raw)):
        raise np.linalg.LinAlgError(
            f"singular operator matrix (condition estimate {cond:.3e})"
        )
    misfit = [block @ raw[rows] - rhs[rows] for block, rows in zip(m.blocks, m.rows)]
    denom = np.linalg.norm(rhs)
    residual = float(np.linalg.norm(np.concatenate(misfit)) / (denom if denom else 1.0))
    warning = None
    if cond > _COND_WARN:
        warning = f"ill-conditioned system: cond ~ {cond:.3e}"
    return SolveResult(raw.conjugate(), residual, cond, warning)


def condition(m: AssembledMatrix) -> float:
    """The exact one-norm condition number of an assembled matrix, the
    number the solve reports (``inf`` for an exactly singular one)."""
    return _lu_solve(m, np.zeros(m.size))[1]


def solve_single(m: AssembledMatrix, rhs: np.ndarray) -> SolveResult:
    """Solve for the density coefficients of a single ball."""
    if m.dimer is not None:
        raise ValueError("got a dimer matrix; use solve_dimer")
    return _solve(m, rhs)


def solve_dimer(m: AssembledMatrix, rhs_pair) -> tuple[SolveResult, ...]:
    """Solve the two-ball block system; returns per-ball results sharing
    the stacked residual and condition number."""
    if m.dimer is None:
        raise ValueError("got a single-ball matrix; use solve_single")
    b1, b2 = rhs_pair
    res = _solve(m, np.concatenate([np.asarray(b1), np.asarray(b2)]))
    return tuple(SolveResult(coeffs, res.residual, res.cond, res.warning)
                 for coeffs in np.split(res.coeffs, 2))
