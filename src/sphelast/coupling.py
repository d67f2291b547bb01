"""Clebsch-Gordan coefficients for integer angular momenta.

``cg_spin1`` gives the coefficients with one spin-1 argument in closed
form, broadcast over arrays of all four remaining arguments: every weight of
the trace and of the re-expansion series is a product of them.  ``cg``, the
general coefficient from Racah's single-sum formula on a precomputed
log-factorial table, is the reference the closed forms are tested against.
Selection-rule violations return 0 rather than raising.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "cg",
    "cg_spin1",
    "binom_safe",
]

_LMAX_SUPPORTED = 64
# Racah sums for j <= 2*l+4 need factorials up to ~4*l+10.
_LOGFACT = [0.0]
for _n in range(1, 4 * _LMAX_SUPPORTED + 16):
    _LOGFACT.append(_LOGFACT[-1] + math.log(_n))


class FactorialOverflow(OverflowError):
    pass


def _lf(n: int) -> float:
    if n < 0:
        raise ValueError("negative factorial argument")
    try:
        return _LOGFACT[n]
    except IndexError:
        raise FactorialOverflow(
            f"factorial {n}! exceeds the precomputed table "
            f"(supports l <= {_LMAX_SUPPORTED})"
        ) from None


def binom_safe(n: int, k: int) -> float:
    """Binomial coefficient, 0 whenever ``k < 0``, ``k > n`` or ``n < 0``."""
    if n < 0 or k < 0 or k > n:
        return 0.0
    return float(math.comb(n, k))


@lru_cache(maxsize=None)
def cg(j1: int, m1: int, j2: int, m2: int, j: int, m: int) -> float:
    """Clebsch-Gordan coefficient ``<j1 m1; j2 m2 | j m>`` (integer spins).

    Returns 0 (not an error) when ``m != m1 + m2``, the triangle
    inequality fails, or any projection is out of range.
    """
    if abs(m1) > j1 or abs(m2) > j2 or abs(m) > j:
        return 0.0
    if m != m1 + m2:
        return 0.0
    if j < abs(j1 - j2) or j > j1 + j2:
        return 0.0
    # Racah's formula: sqrt(prefactor) * alternating single sum.
    log_pref = (
        math.log(2 * j + 1)
        + _lf(j1 + j2 - j)
        + _lf(j1 - j2 + j)
        + _lf(-j1 + j2 + j)
        - _lf(j1 + j2 + j + 1)
        + _lf(j1 + m1)
        + _lf(j1 - m1)
        + _lf(j2 + m2)
        + _lf(j2 - m2)
        + _lf(j + m)
        + _lf(j - m)
    )
    k_min = max(0, j2 - j - m1, j1 - j + m2)
    k_max = min(j1 + j2 - j, j1 - m1, j2 + m2)
    total = 0.0
    for k in range(k_min, k_max + 1):
        log_den = (
            _lf(k)
            + _lf(j1 + j2 - j - k)
            + _lf(j1 - m1 - k)
            + _lf(j2 + m2 - k)
            + _lf(j - j2 + m1 + k)
            + _lf(j - j1 - m2 + k)
        )
        total += (-1.0) ** k * math.exp(0.5 * log_pref - log_den)
    return total


# The closed forms of the coefficients with one spin-1 argument
# (Varshalovich, Moskalev & Khersonskii 1988, Table 8.2): with m = m1 + q
# and d = j - j1 + 1, cg(j1, m1, 1, q, j, m) is the root of P Q / D, signed
# by _SPIN1_SIGN[d, q + 1] and by the sign of P (negative in range only for
# d = 1, q = 0, where P = m).  P and Q are linear in (1, j1, m), with
# coefficients _SPIN1_PQ[d, q + 1, :, 0] and [..., 1]; D = _SPIN1_DEN[d]
# over (1, j1, j1^2).
_SPIN1_SIGN = np.array([[1.0, -1.0, 1.0], [1.0, 1.0, -1.0], [1.0, 1.0, 1.0]])
_SPIN1_PQ = np.array([
    [[(1, 1, 1), (0, 1, 1)], [(0, 2, -2), (0, 1, 1)], [(0, 1, -1), (1, 1, -1)]],
    [[(0, 1, -1), (1, 1, 1)], [(0, 0, 1), (0, 0, 2)], [(0, 1, 1), (1, 1, -1)]],
    [[(0, 1, -1), (1, 1, -1)], [(2, 2, -2), (1, 1, 1)], [(0, 1, 1), (1, 1, 1)]],
], dtype=float).swapaxes(-1, -2)
_SPIN1_DEN = np.array([(0, 2, 4), (0, 2, 2), (2, 6, 4)], dtype=float)


def cg_spin1(j1, m1, q, j) -> np.ndarray:
    """``cg(j1, m1, 1, q, j, m1 + q)`` in closed form, broadcast over the
    four integer arguments (scalars or arrays); 0 wherever a projection
    leaves its range or ``j`` fails the triangle rule.  For the spin-1
    argument first, ``cg(1, q, j1, m1, j, m)`` is ``(-1)^(j1 + 1 - j)``
    times this value."""
    j1, m1, q, j = (np.asarray(x) for x in (j1, m1, q, j))
    m = m1 + q
    d = j - j1 + 1
    # the closed form of each (d, q), on the (small) shape of j1, q and j;
    # wrapped to some form where the triangle rule leaves none
    form = (np.abs(q) <= 1) & (np.abs(d - 1) <= 1) & (j + j1 >= 1)
    d, q = d % 3, (q + 1) % 3
    pq, den = _SPIN1_PQ[d, q], _SPIN1_DEN[d]
    factors = pq[..., 0, :] + pq[..., 1, :] * j1[..., None] + pq[..., 2, :] * m[..., None]
    p = factors[..., 0]
    ok = form & (np.abs(m1) <= j1) & (np.abs(m) <= j)
    num = np.where(ok, p * factors[..., 1], 0.0)
    den = np.where(form, den[..., 0] + (den[..., 1] + den[..., 2] * j1) * j1, 1.0)
    return np.copysign(np.sqrt(num / den), _SPIN1_SIGN[d, q] * p)
