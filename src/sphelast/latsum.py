"""Unit-circle polylogarithm/Lerch values for the Bloch-phased lattice sums.

Summing a re-expansion coefficient over all lattice copies with phase
``e^{-i n alpha}`` collapses, because the shifts all lie on one axis, to a
phase-independent coefficient times ``Li_s(e^{-i alpha})`` plus another times
``Li_s(e^{+i alpha})``.  The coefficients live in ``assembly``; this module
supplies the values they multiply, as one vector with slot ``slot(s, sign)``
per order and phase sign:

* ``line_values``  -- ``Li_s(e^{-+i alpha})`` for the sum over every nonzero
  integer shift (one ball per cell);
* ``dimer_values`` -- the Lerch values for the half-offset lattices of a
  two-ball cell, offsets ``2d`` and ``1 - 2d``; block "21" couples the
  right ball onto the left one, "12" the reverse.

The polylogarithm and Lerch values themselves are delegated to mpmath at 30
significant digits and memoised in ``LatticeSumCache``; the brute-force
truncated sums live in the test suite, never here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

__all__ = [
    "QuasiMomentumSingular",
    "DimerGeometry",
    "LatticeSumCache",
    "reduce_alpha",
    "polylog_unit",
    "lerch_unit",
    "slot",
    "line_values",
    "dimer_values",
    "AXIS_COMPONENT",
]

_DPS = 30
_TWO_PI = 2.0 * math.pi
_SINGULAR_TOL = 1e-12   # distance from 0 (mod 2 pi) that counts as resonant

# Spherical components of a unit shift along -x: the axis weight per unit
# (signed) shift length.
AXIS_COMPONENT = {-1: 1.0 / math.sqrt(2.0), 0: 0.0, 1: -1.0 / math.sqrt(2.0)}


class QuasiMomentumSingular(ValueError):
    """Bloch phase at which a conditionally convergent sum diverges."""


@dataclass(frozen=True)
class DimerGeometry:
    """Two disjoint balls of radius ``rho`` at ``(-d, 0, 0)`` and
    ``(d, 0, 0)`` in a unit cell."""

    d: float
    rho: float

    def __post_init__(self):
        if not (math.isfinite(self.d) and math.isfinite(self.rho)):
            raise ValueError("d and rho must be finite")
        if not 0.0 < self.rho < 0.5:
            raise ValueError("need 0 < rho < 1/2")
        if 2 * self.d <= 2 * self.rho:
            raise ValueError("balls overlap inside the cell (need d > rho)")
        if 1 - 2 * self.d <= 2 * self.rho:
            raise ValueError("balls overlap across cells (need 1 - 2d > 2 rho)")


def reduce_alpha(alpha: float) -> float:
    """Reduce the Bloch phase mod 2 pi; rejects phases at the lattice
    resonance where order-1 sums diverge."""
    a = float(alpha)
    if not math.isfinite(a):
        raise ValueError(f"Bloch phase must be finite, got {a!r}")
    a %= _TWO_PI
    if a < _SINGULAR_TOL or _TWO_PI - a < _SINGULAR_TOL:
        raise QuasiMomentumSingular(
            "Bloch phase is congruent to 0 (mod 2 pi); the order-1 lattice "
            "sums diverge there"
        )
    return a


def _unit_z(alpha: float, sign: int):
    return mpmath.exp(mpmath.mpc(0, sign) * mpmath.mpf(alpha))


def polylog_unit(s: int, alpha: float, sign: int = 1) -> complex:
    """``Li_s(e^{i sign alpha})`` for integer ``s >= 1``."""
    if s < 1:
        raise ValueError("polylog order must be >= 1")
    if sign not in (1, -1):
        raise ValueError("sign must be +-1")
    alpha = reduce_alpha(alpha)
    with mpmath.workdps(_DPS):
        val = mpmath.polylog(s, _unit_z(alpha, sign))
        return complex(val)


def lerch_unit(s: int, alpha: float, sign: int, offset: float) -> complex:
    """Lerch transcendent ``Phi(e^{i sign alpha}, s, offset)`` for integer
    ``s >= 1`` and ``0 < offset <= 1``."""
    if s < 1:
        raise ValueError("Lerch order must be >= 1")
    if sign not in (1, -1):
        raise ValueError("sign must be +-1")
    if not 0.0 < offset <= 1.0:
        raise ValueError("offset must lie in (0, 1]")
    alpha = reduce_alpha(alpha)
    with mpmath.workdps(_DPS):
        val = mpmath.lerchphi(_unit_z(alpha, sign), s, mpmath.mpf(offset))
        return complex(val)


class LatticeSumCache:
    """Memoised polylog/Lerch values for one Bloch phase (and geometry).

    Keys are ``(s, sign, offset)`` with ``offset=None`` for the plain
    polylogarithm.
    """

    def __init__(self, alpha: float, geom: DimerGeometry | None = None):
        self.alpha = reduce_alpha(alpha)
        self.geom = geom
        self._store: dict = {}

    def polylog(self, s: int, sign: int) -> complex:
        key = (s, sign, None)
        if key not in self._store:
            self._store[key] = polylog_unit(s, self.alpha, sign)
        return self._store[key]

    def lerch(self, s: int, sign: int, offset: float) -> complex:
        key = (s, sign, round(offset, 15))
        if key not in self._store:
            self._store[key] = lerch_unit(s, self.alpha, sign, offset)
        return self._store[key]

    def warm(self, s_max: int) -> None:
        """Precompute every order up to ``s_max`` (both phase signs, and
        both dimer offsets when a geometry is attached)."""
        for s in range(1, s_max + 1):
            for sign in (1, -1):
                self.polylog(s, sign)
                if self.geom is not None:
                    self.lerch(s, sign, 2 * self.geom.d)
                    self.lerch(s, sign, 1 - 2 * self.geom.d)

    def __len__(self) -> int:
        return len(self._store)


def slot(s: int, sign: int) -> int:
    """Position of the order-``s`` value at phase sign ``sign`` in a value
    vector: ``(s, -)`` and ``(s, +)`` are adjacent, orders ascend from 1."""
    return 2 * (s - 1) + (sign > 0)


def _values(s_max, need, pair):
    vals = np.zeros(2 * s_max, dtype=complex)
    for s in range(1, s_max + 1):
        lo, hi = slot(s, -1), slot(s, 1)
        if need is None or need[lo] or need[hi]:
            vals[lo], vals[hi] = pair(s)
    return vals


def line_values(cache: LatticeSumCache, s_max: int, need=None) -> np.ndarray:
    """``Li_s(e^{-+i alpha})`` at the phase of ``cache`` for ``s = 1..s_max``.

    ``need`` is an optional boolean mask over the slots: orders with no
    needed slot are not evaluated and stay zero.
    """
    return _values(
        s_max, need, lambda s: (cache.polylog(s, -1), cache.polylog(s, 1))
    )


def dimer_values(
    cache: LatticeSumCache, s_max: int, block: str, need=None
) -> np.ndarray:
    """Lerch values for the half-offset lattice of coupling block ``block``,
    laid out (and masked by ``need``) like ``line_values``, at the phase and
    geometry of ``cache``.

    Block "21" sums shifts ``n + 2d``: positive side offsets ``2d``,
    negative side ``1 - 2d`` with one extra phase.  Block "12" mirrors the
    offsets ("negative" side at ``2d``).
    """
    geom, alpha = cache.geom, cache.alpha
    if geom is None:
        raise ValueError("dimer values need a cache with a DimerGeometry")
    near, far = 2 * geom.d, 1 - 2 * geom.d
    if block == "21":
        phase = complex(math.cos(alpha), math.sin(alpha))

        def pair(s):
            return cache.lerch(s, -1, near), phase * cache.lerch(s, 1, far)
    elif block == "12":
        phase = complex(math.cos(alpha), -math.sin(alpha))

        def pair(s):
            return phase * cache.lerch(s, -1, far), cache.lerch(s, 1, near)
    else:
        raise ValueError("block must be '21' or '12'")
    return _values(s_max, need, pair)
