"""Kelvin fundamental solution and the single-layer response of a ball.

The single layer on a sphere maps each vector harmonic density to an
explicit combination of the three families: on the surface the response is
diagonal (``surface_response``), outside it is the sparse 3x3 radial-power
matrix ``exterior_response`` (rows and columns ordered V, W, X).  The
coefficients mix the two material constants only through the ratios printed
below, so they are kept separate from the radial powers.

The operator sign convention is carried by ``LameParams.sign_flip``: set it
when working with the negated elliptic operator, which negates the
fundamental solution and every potential value built from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sphharm import Direction, DomainError
from .vsh import Family, ForbiddenIndexError, vsh_real

__all__ = [
    "LameParams",
    "kelvin_tensor",
    "response_coeffs",
    "exterior_response",
    "surface_response",
    "shifted_ball_potential",
    "norm_factor",
]


@dataclass(frozen=True)
class LameParams:
    """Material constants; ``lam`` is the first constant, ``mu`` the shear
    modulus."""

    lam: float
    mu: float
    sign_flip: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.lam) and math.isfinite(self.mu)):
            raise ValueError("lam and mu must be finite")
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.lam + 2 * self.mu <= 0:
            raise ValueError("lam + 2*mu must be positive")

    @property
    def sign(self) -> float:
        return -1.0 if self.sign_flip else 1.0


def kelvin_tensor(x, p: LameParams) -> np.ndarray:
    """3x3 fundamental solution at ``x`` (homogeneous of degree -1).

    Points stacked along leading axes (``x`` of shape ``(..., 3)``) give
    the tensors stacked the same way, shape ``(..., 3, 3)``.
    """
    x = np.asarray(x, dtype=float)
    r = np.linalg.norm(x, axis=-1)[..., None, None]
    if np.any(r == 0.0):
        raise DomainError("fundamental solution is singular at the origin")
    c1 = (p.lam + 3 * p.mu) / (p.lam + 2 * p.mu)
    c2 = (p.lam + p.mu) / (p.lam + 2 * p.mu)
    g = c1 * np.eye(3) + c2 * (x[..., :, None] * x[..., None, :]) / (r * r)
    return p.sign * g / (8.0 * math.pi * r)


def response_coeffs(l: int, p: LameParams):
    """Radial-power-free coefficients of the exterior response at degree l.

    Returns ``(a11, a12, a22, a33)``; ``a22`` belongs to the growing-trace
    (W) slot which only exists for ``l >= 1`` and is reported as 0.0 at
    ``l = 0``.
    """
    if l < 0:
        raise DomainError("degree must be nonnegative")
    mu, lam = p.mu, p.lam
    denom = (2 * l + 1) * mu * (2 * mu + lam)
    a11 = ((3 * l + 1) * mu + l * lam) / ((2 * l + 3) * denom)
    a12 = l * (mu + lam) / (2 * denom)
    if l >= 1:
        a22 = ((3 * l + 2) * mu + (l + 1) * lam) / ((2 * l - 1) * denom)
    else:
        a22 = 0.0
    a33 = 1.0 / ((2 * l + 1) * mu)
    s = p.sign
    return s * a11, s * a12, s * a22, s * a33


def exterior_response(l: int, x_norm, p: LameParams) -> np.ndarray:
    """Response matrix of the unit-ball single layer at ``|x| > 1``.

    Entry ``[j, k]`` weights the family-``j+1`` harmonic in the potential of
    the family-``k+1`` density; only (V,V), (V,W), (W,W), (X,X) are nonzero.
    An array of radii gives the matrices indexed ``[j, k, node]``.
    """
    x_norm = np.asarray(x_norm, dtype=float)
    if np.any(x_norm <= 1.0):
        raise DomainError(f"exterior response needs |x| > 1, got {x_norm.min()}")
    a11, a12, a22, a33 = response_coeffs(l, p)
    out = np.zeros((3, 3) + x_norm.shape)
    out[0, 0] = a11 * x_norm ** (-l - 2)
    out[0, 1] = a12 * (x_norm ** (-l - 2) - x_norm ** (-l))
    out[1, 1] = a22 * x_norm ** (-l)
    out[2, 2] = a33 * x_norm ** (-l - 1)
    return out


def surface_response(l: int, p: LameParams):
    """Diagonal on-surface response ``(tau1, tau2, tau3)`` at degree l.

    The growing-trace value ``tau2`` is only meaningful for ``l >= 1``
    (reported as 0.0 at ``l = 0``, where that basis label is excluded).
    """
    a11, a12, a22, a33 = response_coeffs(l, p)
    return a11, a22, a33


def norm_factor(family, l: int) -> int:
    """Squared sphere norm of the real vector harmonics at degree l."""
    family = Family(family)
    if family == Family.V:
        return (l + 1) * (2 * l + 1)
    if family == Family.W:
        return l * (2 * l + 1)
    return l * (l + 1)


def shifted_ball_potential(
    shift: float, l: int, m: int, family, x_hat, rho: float, p: LameParams
) -> np.ndarray:
    """Single-layer potential of one shifted ball, evaluated on the home ball.

    The density is the real vector harmonic of ``(l, m, family)`` on the
    ball of radius ``rho`` centred at ``(shift, 0, 0)``; the potential is
    evaluated at ``x = rho * x_hat`` on the home ball's surface.  Closed
    form: ``rho * sum_j Y_j(w_hat) * exterior_response(l, w/rho)[j, family]``
    with ``w = x - (shift, 0, 0)``.  ``x_hat`` is one direction (a 3-vector
    comes back) or a batch (``(N, 3)`` rows or a batch ``Direction``; rows
    ``[node, xyz]`` come back).
    """
    family = Family(family)
    if shift == 0.0:
        raise DomainError("zero shift is the on-surface case; use surface_response")
    if l == 0 and family in (Family.W, Family.X):
        raise ForbiddenIndexError("degree-0 W/X densities are excluded")
    if isinstance(x_hat, Direction):
        x_hat = x_hat.vec
    x_hat = np.asarray(x_hat, dtype=float)
    w = rho * x_hat - np.array([shift, 0.0, 0.0])
    w_norm = np.linalg.norm(w, axis=-1)
    mat = exterior_response(l, w_norm / rho, p)
    w_dir = Direction.from_vector(w)
    out = np.zeros(w.shape)
    for fam in Family:
        entry = mat[fam - 1, family - 1]
        if not np.any(entry):
            continue
        if l == 0 and fam in (Family.W, Family.X):
            continue
        out = out + entry[..., None] * vsh_real(fam, l, m, w_dir)
    return rho * out
