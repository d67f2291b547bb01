"""Scalar spherical harmonics, associated Legendre functions and solid harmonics.

Conventions used throughout the package:

* complex harmonics carry the Condon-Shortley phase, i.e.
  ``Y(l, m) = (-1)^m N_lm P_l^m(cos theta) exp(i m phi)`` for ``m >= 0``
  with the *unsigned* associated Legendre function ``P_l^m``
  (``P_m^m = (2m-1)!! sin^m theta``), and
  ``Y(l, -m) = (-1)^m conj(Y(l, m))``;
* real harmonics follow the usual cos/sin convention
  (``m > 0`` pairs with ``cos(m phi)``, ``m < 0`` with ``sin(|m| phi)``),
  which is exactly the three-case combination of the complex ones;
* solid harmonics use the Racah normalisation
  ``sqrt(4 pi / (2l+1))`` so the regular one is a plain homogeneous
  polynomial (``solid_regular(1, 0, r) = z``).

Directions on the poles use ``phi = 0``; all harmonics stay well defined
there because every ``phi``-dependent term carries a ``sin theta`` factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "Direction",
    "assoc_legendre",
    "legendre_row",
    "legendre_table",
    "pi_tau_row",
    "ylm_complex",
    "ylm_real",
    "ylm_equator",
    "equator_table",
    "solid_regular",
    "solid_regular_table",
    "solid_irregular",
    "sph_norm",
    "sph_norm_table",
]

class DomainError(ValueError):
    """Raised when harmonic indices or arguments leave their valid range."""


@dataclass(frozen=True, eq=False)
class Direction:
    """Points on the unit sphere, stored both as angles and unit vectors.

    ``theta`` is the polar angle in ``[0, pi]``, ``phi`` the azimuth in
    ``[0, 2 pi)``.  Where ``sin theta < 1e-15`` (on the poles) ``phi`` is
    fixed to 0.  One point has float angles and ``vec`` of shape ``(3,)``;
    a batch of N points has angle arrays of shape ``(N,)`` and ``vec`` of
    shape ``(N, 3)``, and every harmonic evaluated at it gains that node
    axis.
    """

    theta: float | np.ndarray
    phi: float | np.ndarray
    vec: np.ndarray = field(repr=False)

    @staticmethod
    def _of(theta, phi, vec) -> "Direction":
        if vec.ndim == 1:
            return Direction(float(theta), float(phi), vec)
        return Direction(theta, phi, vec)

    @staticmethod
    def from_angles(theta, phi) -> "Direction":
        theta, phi = np.broadcast_arrays(
            np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
        )
        bad = ~((theta >= 0.0) & (theta <= math.pi + 1e-12))
        if bad.any():
            raise DomainError(f"theta={theta[bad].flat[0]} outside [0, pi]")
        st = np.sin(theta)
        phi = np.where(st < 1e-15, 0.0, phi) % (2.0 * math.pi)
        vec = np.stack(
            [st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1
        )
        return Direction._of(theta, phi, vec)

    @staticmethod
    def from_vector(v) -> "Direction":
        """The directions of ``v``: one vector, or rows of an ``(N, 3)``
        array."""
        v = np.asarray(v, dtype=float)
        n = np.linalg.norm(v, axis=-1, keepdims=True)
        if np.any(n == 0.0):
            raise DomainError("zero vector has no direction")
        u = v / n
        axial = np.hypot(u[..., 0], u[..., 1])
        # atan2 keeps full relative accuracy next to the poles, where
        # acos(u_z) loses the digits of sin theta
        theta = np.arctan2(axial, u[..., 2])
        phi = np.where(
            axial < 1e-15, 0.0, np.arctan2(u[..., 1], u[..., 0]) % (2.0 * math.pi)
        )
        return Direction._of(theta, phi, u)

    @property
    def cos_theta(self):
        return np.cos(self.theta)

    @property
    def sin_theta(self):
        return np.sin(self.theta)

    def frame(self):
        """Orthonormal frame (r_hat, theta_hat, phi_hat) at each point,
        each of the shape of ``vec``."""
        ct, st = np.cos(self.theta), np.sin(self.theta)
        cp, sp = np.cos(self.phi), np.sin(self.phi)
        r_hat = np.stack([st * cp, st * sp, ct], axis=-1)
        t_hat = np.stack([ct * cp, ct * sp, -st], axis=-1)
        p_hat = np.stack([-sp, cp, np.zeros_like(sp)], axis=-1)
        return r_hat, t_hat, p_hat


def _as_direction(d) -> Direction:
    if isinstance(d, Direction):
        return d
    return Direction.from_vector(np.asarray(d, dtype=float))


def _double_factorial(n: int) -> float:
    out = 1.0
    while n > 1:
        out *= n
        n -= 2
    return out


def _recur_up(rows, m: int, u, seed) -> None:
    """Fill ``rows[l]`` for ``l >= m`` in place: ``rows[m] = seed``, then the
    upward three-term recurrence in ``l`` at fixed ``m`` (DLMF 14.10.3).

    ``rows`` has one leading entry per degree; ``u = cos theta`` and
    ``seed`` are floats or arrays matching the trailing node axes of
    ``rows``.
    """
    lmax = len(rows) - 1
    rows[m] = seed
    if m + 1 <= lmax:
        rows[m + 1] = u * (2 * m + 1) * seed
    for l in range(m + 1, lmax):
        rows[l + 1] = ((2 * l + 1) * u * rows[l] - (l + m) * rows[l - 1]) / (
            l - m + 1
        )


def _tau_from_pi(pi_rows, m: int, u):
    """``tau_l = l u pi_l - (l + m) pi_{l-1}`` for ``m >= 1``, where ``pi_l``
    vanishes below ``l = m``."""
    tau = np.zeros(pi_rows.shape)
    for l in range(m, len(pi_rows)):
        tau[l] = l * u * pi_rows[l] - (l + m) * pi_rows[l - 1]
    return tau


def legendre_row(lmax: int, m: int, u, s=None) -> np.ndarray:
    """Unsigned associated Legendre values ``P_l^m(u)`` for ``l = 0..lmax``.

    Upward three-term recurrence in ``l`` at fixed ``m``, seeded on the
    diagonal by the double-factorial product.  No Condon-Shortley phase.
    ``s = sin theta`` should be passed by callers that hold the angle:
    ``sqrt(1 - u^2)`` loses the relative accuracy of ``sin theta`` next to
    the poles (and is 0 within about 1e-8 of them).  ``u`` (and ``s``) may
    be arrays of nodes: the values are then indexed ``[l, node]``.
    """
    if m < 0:
        raise DomainError("m must be >= 0 for legendre_row")
    u = np.asarray(u, dtype=float)
    if np.any(np.abs(u) > 1.0 + 1e-14):
        raise DomainError(f"|u|={np.abs(u).max()} > 1")
    u = np.clip(u, -1.0, 1.0)
    out = np.zeros((lmax + 1,) + u.shape)
    if m > lmax:
        return out
    if s is None:
        s = np.sqrt(np.maximum(0.0, 1.0 - u * u))
    # the power of an array, also for one point: a numpy scalar's ** is
    # libm's pow, which rounds differently from the array loop
    _recur_up(out, m, u, _double_factorial(2 * m - 1) * np.asarray(s) ** m)
    return out


def assoc_legendre(l: int, m: int, u, s=None):
    """Unsigned ``P_l^m(u)``; raises for ``m > l``, ``m < 0`` or ``|u| > 1``.
    ``s`` is ``sin theta``, as in ``legendre_row``, whose node axes the
    value keeps."""
    if not 0 <= m <= l:
        raise DomainError(f"need 0 <= m <= l, got l={l} m={m}")
    return legendre_row(l, m, u, s)[l]


def pi_tau_row(lmax: int, m: int, theta):
    """Pole-safe angular helper functions for the surface gradient.

    For ``m >= 1`` returns ``pi_l = P_l^m(cos theta)/sin theta`` and
    ``tau_l = d P_l^m(cos theta)/d theta`` for ``l = 0..lmax``; both stay
    finite on the poles because ``P_l^m`` carries ``sin^m theta``.
    For ``m = 0``, ``pi_l = 0`` and ``tau_l = -P_l^1``.  An array of
    angles gives rows indexed ``[l, node]``.
    """
    theta = np.asarray(theta, dtype=float)
    u, s = np.cos(theta), np.sin(theta)
    pi_row = np.zeros((lmax + 1,) + theta.shape)
    if m == 0:
        return pi_row, -legendre_row(lmax, 1, u, s)
    if m <= lmax:
        seed = _double_factorial(2 * m - 1) * np.asarray(s) ** (m - 1)
        _recur_up(pi_row, m, u, seed)
    return pi_row, _tau_from_pi(pi_row, m, u)


def legendre_table(lmax: int, theta):
    """``P_l^m`` and the ``pi``/``tau`` of ``pi_tau_row`` at every node.

    ``theta`` is an array of polar angles.  Returns ``(p, pi, tau)``, each
    of shape ``(lmax + 1, lmax + 1) + theta.shape`` and indexed
    ``[l, m, ...]`` for ``0 <= m <= l <= lmax`` (zero for ``m > l``): the
    recurrences of ``legendre_row``/``pi_tau_row``, vectorised over the
    nodes, with ``sin theta`` taken from the angle.
    """
    theta = np.asarray(theta, dtype=float)
    # the powers of arrays, also for one point, as in legendre_row
    u, s = np.cos(theta), np.asarray(np.sin(theta))
    p = np.zeros((lmax + 1, lmax + 1) + theta.shape)
    pi, tau = np.zeros_like(p), np.zeros_like(p)
    for m in range(lmax + 1):
        diagonal = _double_factorial(2 * m - 1)
        _recur_up(p[:, m], m, u, diagonal * s**m)
        if m:
            _recur_up(pi[:, m], m, u, diagonal * s ** (m - 1))
            tau[:, m] = _tau_from_pi(pi[:, m], m, u)
    if lmax >= 1:
        tau[:, 0] = -p[:, 1]
    return p, pi, tau


def sph_norm(l: int, m: int) -> float:
    """Orthonormalisation constant ``sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!)``;
    the factorial ratio is the exact integer ``(l+m)!/(l-m)!``, rounded once
    in the division."""
    return math.sqrt((2 * l + 1) / math.perm(l + m, 2 * m) / (4.0 * math.pi))


@lru_cache(maxsize=None)
def sph_norm_table(lmax: int) -> np.ndarray:
    """``sph_norm(l, m)`` for ``0 <= m <= l <= lmax``, indexed ``[l, m]``
    (zero for ``m > l``; read-only)."""
    out = np.zeros((lmax + 1, lmax + 1))
    for l in range(lmax + 1):
        for m in range(l + 1):
            out[l, m] = sph_norm(l, m)
    out.flags.writeable = False
    return out


def ylm_complex(l: int, m: int, d):
    """Orthonormal complex spherical harmonic with Condon-Shortley phase:
    a complex at one direction, a complex array over the points of a
    batch ``Direction`` (or of ``(N, 3)`` rows)."""
    if abs(m) > l:
        raise DomainError(f"|m|={abs(m)} > l={l}")
    d = _as_direction(d)
    ma = abs(m)
    phase = np.cos(ma * d.phi) + 1j * np.sin(ma * d.phi)
    p = assoc_legendre(l, ma, d.cos_theta, d.sin_theta)
    # on the equator (every shift of the chain and the dimer), the closed
    # form that the lattice sums use
    val = np.where(
        d.vec[..., 2] == 0.0, ylm_equator(l, ma), (-1) ** ma * sph_norm(l, ma) * p
    ) * phase
    if m < 0:
        val = (-1) ** ma * val.conjugate()
    return val


def ylm_real(l: int, m: int, d) -> float:
    """Real spherical harmonic (cos/sin convention), evaluated in real arithmetic."""
    if abs(m) > l:
        raise DomainError(f"|m|={abs(m)} > l={l}")
    d = _as_direction(d)
    ma = abs(m)
    p = assoc_legendre(l, ma, d.cos_theta, d.sin_theta) * sph_norm(l, ma)
    if m == 0:
        return p
    if m > 0:
        return math.sqrt(2.0) * p * math.cos(ma * d.phi)
    return math.sqrt(2.0) * p * math.sin(ma * d.phi)


def _equator(l, m):
    """``Y_l^m(pi/2, 0)`` for integer arrays ``l``, ``m`` (broadcast).

    ``P_l^m(0)`` is ``(-1)^a (l+m-1)!!/(l-m)!!`` with ``l - |m| = 2a`` and
    ``l + |m| = 2b``, so ``|Y| = sqrt((2l+1)/(4 pi) c_a c_b)`` with
    ``c_k = C(2k, k)/4^k = prod_{j<=k} (2j-1)/(2j)``: one rounding per
    factor, and nothing overflows or underflows at any degree.  The sign is
    ``(-1)^(a + m)`` for ``m >= 0`` and ``(-1)^a`` for ``m < 0``; the value
    vanishes for odd ``l + m`` and for ``|m| > l``.
    """
    l, m = np.broadcast_arrays(np.asarray(l), np.asarray(m))
    ma = np.abs(m)
    valid = (ma <= l) & ((l + m) % 2 == 0)
    a = np.where(valid, (l - ma) // 2, 0)
    b = np.where(valid, (l + ma) // 2, 0)
    k = np.arange(1, int(b.max(initial=0)) + 1)
    c = np.cumprod(np.r_[1.0, (2 * k - 1) / (2 * k)])
    size = (2 * l + 1) / (4.0 * math.pi) * c[a] * c[b]
    sign = np.where((a + np.maximum(m, 0)) % 2, -1.0, 1.0)
    return np.where(valid, sign * np.sqrt(size), 0.0)


@lru_cache(maxsize=None)
def ylm_equator(l: int, m: int) -> float:
    """``Y_l^m`` on the equator at azimuth 0; real, zero for odd ``l+m``."""
    if abs(m) > l:
        raise DomainError(f"|m|={abs(m)} > l={l}")
    return float(_equator(l, m))


def equator_table(lmax: int) -> np.ndarray:
    """``Y_l^m(pi/2, 0)`` for ``0 <= l <= lmax`` and ``|m| <= lmax``,
    indexed ``[l, m + lmax]`` (zero for ``|m| > l``); the values of
    ``ylm_equator``, bit for bit.  At azimuth pi, multiply by ``(-1)^m``."""
    return _equator(np.arange(lmax + 1)[:, None], np.arange(-lmax, lmax + 1))


def solid_regular(l: int, m: int, r) -> complex:
    """Racah-normalised growing solid harmonic, ``|r|^l``-homogeneous."""
    r = np.asarray(r, dtype=float)
    n = float(np.linalg.norm(r))
    if n == 0.0:
        if l == 0:
            return complex(math.sqrt(4.0 * math.pi) * ylm_complex(0, 0, (0, 0, 1)))
        return 0.0 + 0.0j
    d = Direction.from_vector(r)
    return math.sqrt(4.0 * math.pi / (2 * l + 1)) * n**l * ylm_complex(l, m, d)


def solid_regular_table(lmax: int, r) -> np.ndarray:
    """``solid_regular(l, m, r)`` for ``0 <= l <= lmax`` and ``|m| <= lmax``,
    indexed ``[l, m + lmax]`` (zero for ``|m| > l``).

    Built from the Cartesian components alone, with no angle: the sectoral
    step ``R(m+1, m+1) = -sqrt((2m+1)/(2m+2)) (x + i y) R(m, m)`` and the
    upward step in ``l``,
    ``sqrt((l+m+1)(l-m+1)) R(l+1, m)
    = (2l+1) z R(l, m) - sqrt((l+m)(l-m)) |r|^2 R(l-1, m)``; the negative
    orders follow from ``R(l, -m) = (-1)^m conj R(l, m)``.  Each value is
    then good to a few ulps of ``|r|^l``, where the angles' roundings (the
    azimuth's, times ``m``) would cost several more.
    """
    x, y, z = np.asarray(r, dtype=float)
    rr = x * x + y * y + z * z
    out = np.zeros((lmax + 1, 2 * lmax + 1), dtype=complex)
    sectoral = 1.0 + 0.0j
    for m in range(lmax + 1):
        if m:
            sectoral *= -math.sqrt((2 * m - 1) / (2 * m)) * complex(x, y)
        col = out[:, lmax + m]
        col[m] = sectoral
        if m < lmax:
            col[m + 1] = math.sqrt(2 * m + 1) * z * sectoral
        for l in range(m + 1, lmax):
            col[l + 1] = (
                (2 * l + 1) * z * col[l]
                - math.sqrt((l + m) * (l - m)) * rr * col[l - 1]
            ) / math.sqrt((l + m + 1) * (l - m + 1))
    m = np.arange(1, lmax + 1)
    out[:, lmax - m] = np.where(m % 2, -1.0, 1.0) * out[:, lmax + m].conj()
    return out


def solid_irregular(l: int, m: int, r, scale: float = 1.0) -> complex:
    """Racah-normalised decaying solid harmonic, ``|r|^{-l-1}``-homogeneous,
    times ``scale``.

    The scale multiplies the angular part before the radial power, and the
    power is numpy's: a prefactor times this value rounds exactly as the
    same prefactor times a lattice kernel evaluated at one shift.
    """
    r = np.asarray(r, dtype=float)
    n = float(np.linalg.norm(r))
    if n == 0.0:
        raise DomainError("decaying solid harmonic is singular at the origin")
    d = Direction.from_vector(r)
    return (
        scale * math.sqrt(4.0 * math.pi / (2 * l + 1))
        * ylm_complex(l, m, d)
        * float(np.power(n, -(l + 1)))
    )
