"""Clebsch-Gordan coefficients for integer angular momenta.

The general coefficient is evaluated with Racah's single-sum formula on a
precomputed log-factorial table.  Two binomial closed forms cover the
stretched couplings that appear in the solid-harmonic re-expansions:
``cg_regular_closed`` for the finite (growing) expansion and
``cg_irregular_closed`` for the infinite (decaying) one.  ``cg_spin1``
gives the coefficients with one spin-1 argument in closed form, for a whole
array of projections at once.  Selection-rule violations return 0 rather
than raising.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "cg",
    "cg_regular_closed",
    "cg_irregular_closed",
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


def cg_regular_closed(l: int, lam: int, m: int, mu: int) -> float:
    """Binomial form of ``<lam mu; l-lam m-mu | l m>``.

    Valid for ``0 <= lam <= l``; any out-of-range combination gives 0.
    """
    if lam < 0 or lam > l:
        return 0.0
    num = binom_safe(l + m, lam + mu) * binom_safe(l - m, lam - mu)
    den = binom_safe(2 * l, 2 * lam)
    if num == 0.0 or den == 0.0:
        return 0.0
    return math.sqrt(num / den)


def cg_irregular_closed(l: int, lam: int, m: int, mu: int) -> float:
    """Binomial form of ``<lam mu; l+lam m-mu | l m>``.

    Valid for ``lam >= 0``; out-of-range combinations give 0.
    """
    if lam < 0:
        return 0.0
    num = binom_safe(l + lam + mu - m, lam + mu) * binom_safe(
        l + lam + m - mu, lam - mu
    )
    den = binom_safe(2 * l + 2 * lam + 1, 2 * lam)
    if num == 0.0 or den == 0.0:
        return 0.0
    return (-1.0) ** (lam + mu) * math.sqrt(num / den)


def cg_spin1(j1: int, m1, q: int, j: int) -> np.ndarray:
    """``cg(j1, m1, 1, q, j, m1 + q)`` for an integer array ``m1``.

    The closed forms of Varshalovich, Moskalev & Khersonskii (1988),
    Table 8.2, with ``m = m1 + q``; 0 wherever a projection leaves its
    range, and everywhere when ``j`` fails the triangle rule.  For the
    spin-1 argument first, ``cg(1, q, j1, m1, j, m)`` is
    ``(-1)^(j1 + 1 - j)`` times this value.
    """
    m1 = np.asarray(m1)
    m = (m1 + q).astype(float)
    if abs(q) > 1 or j1 < 0 or not abs(j1 - 1) <= j <= j1 + 1:
        return np.zeros(m.shape)
    if j == j1 + 1:
        num = {
            1: (j1 + m) * (j1 + m + 1),
            0: 2.0 * (j1 - m + 1) * (j1 + m + 1),
            -1: (j1 - m) * (j1 - m + 1),
        }[q]
        sign, den = 1.0, (2 * j1 + 1) * (2 * j1 + 2)
    elif j == j1:
        if q == 0:
            value = m / math.sqrt(j1 * (j1 + 1))
            return np.where(np.abs(m1) <= j1, value, 0.0)
        num = (j1 + q * m) * (j1 - q * m + 1)
        sign, den = -float(q), 2 * j1 * (j1 + 1)
    else:
        num = {
            1: (j1 - m) * (j1 - m + 1),
            0: 2.0 * (j1 - m) * (j1 + m),
            -1: (j1 + m + 1) * (j1 + m),
        }[q]
        sign, den = (-1.0 if q == 0 else 1.0), 2 * j1 * (2 * j1 + 1)
    ok = (np.abs(m1) <= j1) & (np.abs(m) <= j)
    return np.where(ok, sign * np.sqrt(np.where(ok, num, 0.0) / den), 0.0)
