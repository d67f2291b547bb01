"""Real and complex vector spherical harmonics.

Three families on the unit sphere, built from a scalar harmonic Y:

* ``V = grad_S Y - (l+1) Y r_hat``   (decaying-trace family),
* ``W = grad_S Y + l Y r_hat``       (growing-trace family),
* ``X = r_hat x grad_S Y``           (toroidal family).

``W(0,0)`` and ``X(0,0)`` are identically zero and excluded from any basis;
evaluating them through the public functions raises ``ForbiddenIndexError``
so indexing bugs surface immediately.  ``vsh_complex_or_zero`` returns the
zero vector for them instead, and ``vsh_complex_table``, which the
re-expansion series read, holds the same zero entries.

The surface gradient is evaluated analytically through the pole-safe
``pi``/``tau`` Legendre helpers and rotated to Cartesian components, so no
numerical differentiation happens anywhere in this module.

``vector_Y(j, l, m)`` is the total-angular-momentum harmonic of orbital
degree l; the three allowed ``j`` values are proportional to V, X, W of the
adjacent degrees, which is how translation series are converted back into
the three families.
"""

from __future__ import annotations

import math
from enum import IntEnum

import numpy as np

from .sphharm import (
    Direction,
    DomainError,
    _as_direction,
    legendre_row,
    legendre_table,
    pi_tau_row,
    sph_norm,
    sph_norm_table,
)

__all__ = [
    "Family",
    "ForbiddenIndexError",
    "CHI",
    "vsh_complex",
    "vsh_real",
    "vsh_complex_or_zero",
    "vsh_complex_table",
    "vector_Y",
    "vector_Y_table",
    "rhat_dot_a_expand",
]

_SQRT2 = math.sqrt(2.0)


class Family(IntEnum):
    V = 1
    W = 2
    X = 3


class ForbiddenIndexError(ValueError):
    """Raised for basis labels naming an identically zero harmonic."""


# Spherical basis vectors chi_{1,q}.  chi_{1,0} is the unit z-vector; this is
# the unique choice consistent with both the cross-product rule
# chi_m x chi_n = i sgn(m-n) chi_{m+n} and the axis-projection expansion
# below (rhat_dot_a_expand).
CHI = {
    1: np.array([-1.0, 0.0, 0.0]) / _SQRT2 + 1j * np.array([0.0, -1.0, 0.0]) / _SQRT2,
    0: np.array([0.0, 0.0, 1.0]) + 0j,
    -1: np.array([1.0, 0.0, 0.0]) / _SQRT2 + 1j * np.array([0.0, -1.0, 0.0]) / _SQRT2,
}


def _check_indices(family: Family, l, m) -> None:
    """Refuse any label of the integer arrays (or integers) ``l``, ``m``
    outside the basis of ``family``."""
    family = Family(family)
    l, m = np.asarray(l), np.asarray(m)
    bad = (l < 0) | (np.abs(m) > l)
    if bad.any():
        l, m = np.broadcast_arrays(l, m)
        raise DomainError(f"invalid harmonic index l={l[bad][0]} m={m[bad][0]}")
    if family in (Family.W, Family.X) and (l == 0).any():
        raise ForbiddenIndexError(
            f"{family.name}(0,0) is identically zero and not a basis element"
        )


def _family_amplitudes(family: Family, l: int, a_tau, a_pi, a_y, frame):
    """(real, imag) amplitude vectors of one family from the scaled
    Legendre helpers and the local frame (r_hat, theta_hat, phi_hat); scalar
    amplitudes with 3-vectors, or node columns with node rows of vectors.
    With ``a_pi`` times ``i`` (``vsh_complex_table``), their sum is the
    complex harmonic."""
    r_hat, t_hat, p_hat = frame
    if family == Family.V:
        return a_tau * t_hat - (l + 1) * a_y * r_hat, a_pi * p_hat
    if family == Family.W:
        return a_tau * t_hat + l * a_y * r_hat, a_pi * p_hat
    # negated after the product: the sum then rounds as re - a_pi t_hat,
    # signed zeros included, when a_pi is complex
    return a_tau * p_hat, -(a_pi * t_hat)


def _real_combination(m, re, im, c, s):
    """Real harmonics of the orders ``m`` of one ``|m|`` (one order, or an
    array along the leading axis of the amplitudes) from the ``|m|``
    amplitudes and ``c, s = cos(|m| phi), sin(|m| phi)``."""
    m = np.reshape(m, np.shape(m) + (1,) * (np.ndim(re) - np.ndim(m)))
    if not m.any():
        return re
    return _SQRT2 * np.where(m > 0, re * c - im * s, re * s + im * c)


def _amplitudes(family: Family, l, m_abs: int, d: Direction, frame):
    """Cartesian (real, imag) amplitude vectors of the ``m >= 0`` harmonics
    of the degrees ``l`` (an integer array) at one order ``m_abs``, without
    the azimuthal factor ``exp(i m phi)`` and without the Condon-Shortley
    phase: a degree axis, then a node axis when ``d`` holds a batch of
    points, then the vector axis.  One ``pi_tau_row`` and one
    ``legendre_row`` at the largest degree serve every degree: an upward
    recurrence at fixed ``m`` gives the same rows whatever its top
    degree."""
    top = int(l.max())
    axes = (-1,) + (1,) * (np.ndim(d.theta) + 1)
    norm = np.array([sph_norm(int(k), m_abs) for k in l]).reshape(axes)
    pi_row, tau_row = pi_tau_row(top, m_abs, d.theta)
    p_row = legendre_row(top, m_abs, d.cos_theta, d.sin_theta)
    return _family_amplitudes(
        family, l.reshape(axes), norm * tau_row[l, ..., None],
        norm * m_abs * pi_row[l, ..., None], norm * p_row[l, ..., None], frame,
    )


def vsh_complex(family, l: int, m: int, d) -> np.ndarray:
    """Complex vector spherical harmonic as a Cartesian 3-vector."""
    family = Family(family)
    _check_indices(family, l, m)
    d = _as_direction(d)
    ma = abs(m)
    re, im = (part[0] for part in _amplitudes(family, np.array([l]), ma, d, d.frame()))
    phase = complex(math.cos(ma * d.phi), math.sin(ma * d.phi))
    val = (-1) ** ma * (re + 1j * im) * phase
    if m < 0:
        val = (-1) ** ma * val.conjugate()
    return val


def vsh_real(family, l, m, d) -> np.ndarray:
    """Real vector spherical harmonic, evaluated in real arithmetic: a
    3-vector at one direction, rows ``[node, xyz]`` over a batch ``d`` (or
    ``(N, 3)`` rows).

    Integer arrays ``l`` and ``m`` (broadcast together) give one such value
    per label, on leading axes of their shape; one label is the batch of
    one.  The labels of each ``|m|`` share one recurrence (``_amplitudes``).
    """
    family = Family(family)
    l, m = np.asarray(l), np.asarray(m)
    if l.shape != m.shape:
        l, m = np.broadcast_arrays(l, m)
    _check_indices(family, l, m)
    d = _as_direction(d)
    frame = d.frame()
    degs, orders = l.reshape(-1), m.reshape(-1)
    phi = np.asarray(d.phi)[..., None]
    out = np.empty(degs.shape + np.shape(d.theta) + (3,))
    for ma in sorted(set(np.abs(orders).tolist())):
        pick = np.flatnonzero(np.abs(orders) == ma)
        re, im = _amplitudes(family, degs[pick], ma, d, frame)
        out[pick] = _real_combination(
            orders[pick], re, im, np.cos(ma * phi), np.sin(ma * phi))
    return out.reshape(l.shape + out.shape[1:])


def vsh_complex_or_zero(family, l: int, m: int, d) -> np.ndarray:
    """As ``vsh_complex`` but returning the zero vector for the excluded
    labels and for ``|m| > l``; used inside re-expansion series."""
    family = Family(family)
    if l < 0 or abs(m) > l or (l == 0 and family in (Family.W, Family.X)):
        return np.zeros(3, dtype=complex)
    return vsh_complex(family, l, m, d)


def vsh_complex_table(lmax: int, d) -> np.ndarray:
    """``vsh_complex_or_zero(family, l, m, d)`` for every family,
    ``0 <= l <= lmax`` and ``|m| <= lmax`` at one direction, indexed
    ``[family - 1, l, m + lmax]`` (Cartesian 3-vectors), from one
    ``legendre_table``.  A batch ``d`` (or ``(N, 3)`` rows) adds a node
    axis ahead of the vector axis: ``[family - 1, l, m + lmax, node]``."""
    d = _as_direction(d)
    p, pi, tau = legendre_table(lmax, d.theta)
    nodes = (None,) * np.ndim(d.theta)
    orders = np.arange(-lmax, lmax + 1)
    m, ma = orders[(slice(None),) + nodes], np.abs(orders)
    # the Condon-Shortley sign of m > 0; the conjugation rule of m < 0 is
    # the sign of m in the pi amplitude
    phase = np.where((m > 0) & (m % 2 == 1), -1.0, 1.0) * np.exp(1j * m * d.phi)
    norm = sph_norm_table(lmax)[(...,) + nodes]
    a_tau = (norm * tau)[:, ma, ..., None]
    a_pi = 1j * (norm * pi)[:, ma, ..., None] * m[..., None]
    a_y = (norm * p)[:, ma, ..., None]
    deg = np.arange(lmax + 1).reshape((-1, 1) + (1,) * len(nodes) + (1,))
    frame = d.frame()
    return np.stack([
        np.add(*_family_amplitudes(family, deg, a_tau, a_pi, a_y, frame))
        for family in Family
    ]) * phase[..., None]


def vector_Y_table(fields: np.ndarray) -> np.ndarray:
    """``vector_Y(j, l, m, d)`` from a ``vsh_complex_table`` of degree
    ``lmax`` at ``d``, for ``0 <= l < lmax``, indexed
    ``[j - l + 1, l, m + lmax]`` (zero for ``|m| > j`` and ``j < 0``)."""
    v, w, x = fields
    out = np.zeros((3,) + w[:-1].shape, dtype=complex)
    deg = np.arange(1, len(w) - 1)[:, None, None]
    out[0, 1:] = v[:-2] / np.sqrt(deg * (2 * deg - 1))
    out[1, 1:] = -1j * x[1:-1] / np.sqrt(deg * (deg + 1))
    deg = np.arange(len(w) - 1)[:, None, None]
    out[2] = w[1:] / np.sqrt((deg + 1) * (2 * deg + 3))
    return out


def vector_Y(j: int, l: int, m: int, d) -> np.ndarray:
    """Total-angular-momentum vector harmonic of orbital degree ``l``.

    Returns the zero vector when the target family harmonic is identically
    zero (``j = l = 0``).
    """
    if abs(j - l) > 1 or j < 0 or l < 0:
        raise DomainError(f"need |j - l| <= 1, got j={j} l={l}")
    if abs(m) > j:
        raise DomainError(f"|m|={abs(m)} > j={j}")
    if j == l - 1:
        return vsh_complex_or_zero(Family.V, l - 1, m, d) / math.sqrt(
            l * (2 * l - 1)
        )
    if j == l:
        if l == 0:
            return np.zeros(3, dtype=complex)
        return -1j * vsh_complex_or_zero(Family.X, l, m, d) / math.sqrt(
            l * (l + 1)
        )
    return vsh_complex_or_zero(Family.W, l + 1, m, d) / math.sqrt(
        (l + 1) * (2 * l + 3)
    )


def rhat_dot_a_expand(a) -> dict:
    """Spherical components of a constant vector ``a``, keyed so that the
    entry at key ``q`` is the component ``a_{-q}`` pairing with order ``q``:

    ``r_hat . a = sqrt(4 pi / 3) sum_q (-1)^q a_{-q} Y_1^q`` and
    ``a = sum_q (-1)^q a_{-q} chi_{1,q}``.
    """
    a = np.asarray(a, dtype=complex)
    return {
        1: (a[0] - 1j * a[1]) / _SQRT2,
        0: a[2] + 0j,
        -1: -(a[0] + 1j * a[1]) / _SQRT2,
    }
