"""Clebsch-Gordan coefficients for integer angular momenta, and the angular
weights of the addition theorems.

``cg_spin1`` gives the coefficients with one spin-1 argument in closed
form, broadcast over arrays of all four remaining arguments.  ``cg``, the
general coefficient from Racah's single-sum formula on a precomputed
log-factorial table, is the reference the closed forms are tested against.
Selection-rule violations return 0 rather than raising.

The addition theorems for V, W and X enter the trace only through angular
weights: the decay prefactors (``_prefactor_grid``, signed binomial roots
broadcast over their four arguments) and the recoupling, radial and cross
weights, products of the closed spin-1 forms, summed over the spin
projection into three tables over a ``lam`` axis (``_WeightTables``).  The
trace (``assembly._DegreeBlocks``) and the series of ``translation`` read
the same tables.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "cg",
    "cg_spin1",
    "binom_safe",
    "recoupling_weights",
    "cross_weights",
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


@lru_cache(maxsize=None)
def _binomials(size: int) -> np.ndarray:
    """``binom_safe(n, k)`` for ``0 <= n, k < size``, indexed ``[n, k]``
    (read-only): Pascal's rule in exact integers, each entry rounded to
    float once."""
    table = np.zeros((size, size))
    row = [1]
    for n in range(size):
        table[n, :n + 1] = row
        row = [1, *(x + y for x, y in zip(row, row[1:])), 1]
    table.flags.writeable = False
    return table


def _prefactor_grid(l, lam, mu, m) -> np.ndarray:
    """``translation.decay_prefactor(l, lam, m, mu)`` broadcast over
    integer arrays of the four arguments: 0 wherever ``|m| > l`` or ``|mu| >
    lam``."""
    l, lam, mu, m = (np.asarray(x) for x in (l, lam, mu, m))
    # every binomial index lies within +-reach, negative ones (outside the
    # selection rules) wrapping into the table; one table per power of 2
    reach = int(l.max() + lam.max() + np.abs(mu).max() + np.abs(m).max())
    choose = _binomials(1 << reach.bit_length())
    bb = choose[l + lam + mu - m, lam + mu] * choose[l + lam + m - mu, lam - mu]
    inside = (np.abs(mu) <= lam) & (np.abs(m) <= l) & (bb > 0.0)
    sign = np.where((lam + mu) % 2, -1.0, 1.0)
    return np.where(inside, sign * np.sqrt((2 * l + 1) / (2 * lam + 1) * bb), 0.0)


def recoupling_weights(k, j, lam, m1, mu, q) -> np.ndarray:
    """Angular weight converting an axis-projection product into a vector
    harmonic of orbital degree ``k`` and total degree ``j``, from the
    closed spin-1 Clebsch-Gordan forms, broadcast over every argument; 0
    outside the coupling selection rules."""
    root = lam * (2 * lam + 1) * (2 * lam - 1) / (2 * np.asarray(k) + 1)
    # the two couplings with the spin 1 first, cg(1, ., lam - 1, ., k, .),
    # each carry the sign (-1)^(lam - k) against cg_spin1; the signs cancel
    return (
        np.sqrt(root)
        * (-1.0) ** np.asarray(q)
        * cg_spin1(lam - 1, mu - m1, m1, lam)
        * cg_spin1(lam - 1, mu - m1, q, k)
        * cg_spin1(lam - 1, 0, 0, k)
        * cg_spin1(k, q + mu - m1, m1, j)
    )


def cross_weights(j, lam, q, m1, mu) -> np.ndarray:
    """``translation.cross_coeff``'s prefactor over ``1j *
    decay_prefactor(l, lam, m, mu)``: the two share their binomials, so the
    ratio depends on neither ``l`` nor ``m``.  From the closed spin-1
    Clebsch-Gordan forms, broadcast over every argument."""
    return (
        (-1.0) ** np.asarray(q)
        * np.sign(np.asarray(q) - m1)
        * np.sqrt(lam * (2 * lam + 1))
        * cg_spin1(lam - 1, mu - m1, m1, lam)
        * cg_spin1(lam - 1, mu - m1, q + m1, j)
    )


# The weight tables of every lam below a size, summed over m1 and indexed
# [lam, q + 1, ..., j - k + 1, mu + center] over the total degrees j of the
# vector_Y(j, k, .) harmonics that they multiply: the projections run _PAD
# past the largest lam (with zero weights beyond each lam), so that a
# shifted row is a slice.  Read-only, shared by the series and by the trace
# (assembly._DegreeBlocks).
_PAD = 2
_Q = np.arange(-1, 2)


class _WeightTables:
    """The three weight tables of every ``lam < size``, each from one pass
    of the closed spin-1 forms over a ``lam`` axis:

    * ``recoupling[lam, q + 1, (lam - k) // 2, j - k + 1, mu + center]``,
      the axis-projection terms of ``|r'|^{-l} V`` at orbital degrees
      ``k = lam, lam - 2`` (zero where ``k < 0`` and at ``lam = 0``);
    * ``radial[lam, q + 1, j - lam + 1, mu + center]``, the radial-part terms
      of ``|r'|^{-l} W``: the coupling of ``Y(lam, mu) chi(q)`` to total
      degree ``j``;
    * ``cross[lam, q + 1, j - lam + 2, mu + center]``, the axis
      cross-product terms of the toroidal series, total degrees ``j = lam -
      2..lam`` of orbital degree ``lam - 1``.

    ``window(lam)`` slices the projections of one ``lam``, ``-lam - _PAD``
    to ``lam + _PAD``."""

    def __init__(self, size: int):
        self.center = size - 1 + _PAD
        mus = np.arange(-self.center, self.center + 1)
        # recoupling terms over [lam, q, m1, (lam - k) // 2, j - k + 1, mu]
        lam = np.arange(size)[:, None, None, None, None, None]
        ks = lam - 2 * np.arange(2)[:, None, None]
        orbital = np.maximum(ks, 0)   # a negative k has no weights
        terms = recoupling_weights(orbital, orbital + _Q[:, None], lam,
                                   _Q[:, None, None, None], mus, _Q[:, None, None, None, None])
        self.recoupling = np.where(
            (ks[:, 0] >= 0) & (lam[:, 0] >= 1), terms.sum(axis=2), 0.0)
        # radial weights over [lam, q, j - lam + 1, mu]
        lam, q = lam[:, 0, 0], _Q[:, None, None]
        self.radial = (-1.0) ** q * cg_spin1(lam, mus, q, lam + _Q[:, None])
        # cross terms over [lam, q, m1, j - lam + 2, mu]
        lam = lam[..., None]
        terms = cross_weights(lam - 1 + _Q[:, None], lam, _Q[:, None, None, None],
                              _Q[:, None, None], mus)
        self.cross = terms.sum(axis=2)
        for table in (self.recoupling, self.radial, self.cross):
            table.flags.writeable = False

    def window(self, lam: int) -> slice:
        return slice(self.center - lam - _PAD, self.center + lam + _PAD + 1)


@lru_cache(maxsize=None)
def _weight_tables(size: int) -> _WeightTables:
    return _WeightTables(size)
