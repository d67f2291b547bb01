"""Translation re-expansion series for solid and vector harmonics: the
reference that the addition theorems are verified against.

A field centred at the origin is re-expanded about a shifted centre: the
growing (regular) harmonics give finite sums, the decaying ones give
geometric-type series valid for ``|r| < |a|``.  Three coefficient families
drive everything:

* ``regular_coeff`` -- weight of the finite growing re-expansion,
* ``decay_coeff``   -- weight of the decaying re-expansion,
* ``cross_coeff``   -- weight of the axis cross-product recoupling
  (``coupling.cross_weights`` times the decay prefactor).

Their angular parts, the decay prefactors and the recoupling, radial and
cross weight tables (``coupling._prefactor_grid``,
``coupling._WeightTables``), live in ``coupling``, which the trace
(``assembly._terms``) reads too; no module on the path of the matrices
imports this one.

The ``translate_*`` evaluators sum the re-expansion series for the real
vector harmonics; the assembly code never calls them (its entries are closed
form), they exist so the series themselves can be verified against direct
evaluation of the translated field.

Each call builds its tables once: the solid harmonics of ``r`` and of the
shift (``sphharm.solid_regular_table``, from the Cartesian components; the
decaying ones from the table of the unit shift, or from
``sphharm.equator_table`` on the equator) and, for the vector series, the
complex vector harmonics and ``vector_Y`` at the direction of ``r``
(``vsh.vsh_complex_table``, ``vsh.vector_Y_table``).  The solid series take
an integer array of orders ``m`` and sum every order of one degree over the
same tables; the vector series keep the tables of the most recent ``(l, r,
a, lam_max)`` (``_series_tables``), so the decaying series at one point and
shift share them.  Each ``lam`` block is then a sum of arrays over ``mu``,
weighted by ``decay_prefactors`` and by the weight tables.  A compensated
sum adds the blocks.

``combine_source`` / ``combine_row`` encode the three-case real/complex
recombination for the source and projection order respectively.  Their sign
conventions are coded twice more: in ``assembly._real_orders`` (on whole
blocks of orders, without the factors ``1/sqrt(2)`` and ``i``) and in
``vsh._real_combination`` (the real harmonics from their ``|m|``
amplitudes).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .coupling import (_PAD, _Q, _binomials, _prefactor_grid, _weight_tables, binom_safe,
                       cross_weights)
from .sphharm import (
    Direction,
    DomainError,
    equator_table,
    solid_irregular,
    solid_regular,
    solid_regular_table,
)
from .vsh import (
    Family,
    rhat_dot_a_expand,
    vector_Y_table,
    vsh_complex_table,
)

__all__ = [
    "ConvergenceError",
    "SingularityError",
    "regular_coeff",
    "decay_coeff",
    "decay_prefactor",
    "decay_prefactors",
    "cross_coeff",
    "combine_source",
    "combine_row",
    "translate_solid_regular",
    "translate_solid_irregular",
    "translate_W",
    "translate_V_decay",
    "translate_V_neg_l",
    "translate_W_neg_l",
    "translate_X",
]

_SQRT2 = math.sqrt(2.0)


class ConvergenceError(ValueError):
    """Series evaluated outside its region of convergence."""


class SingularityError(ValueError):
    """Coefficient requested at a singular translation (a = 0)."""


def _cutoff(lam_max: int) -> int:
    """``lam_max``, the last degree kept of an infinite re-expansion
    series, which must be at least 1."""
    if lam_max < 1:
        raise ValueError("lam_max must be >= 1")
    return lam_max


@lru_cache(maxsize=None)
def decay_prefactors(l: int, lam: int) -> np.ndarray:
    """``decay_prefactor(l, lam, m, mu)`` for every ``m = -l..l`` and
    ``mu = -lam..lam``, indexed ``[mu + lam, m + l]`` (read-only)."""
    out = _prefactor_grid(l, lam, np.arange(-lam, lam + 1)[:, None], np.arange(-l, l + 1))
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def decay_prefactor(l: int, lam: int, m: int, mu: int) -> float:
    """Translation-independent part of ``decay_coeff`` (selection rules
    included: 0 whenever a binomial leaves its range, which is whenever
    ``|m| > l`` or ``|mu| > lam``)."""
    if abs(m) > l or abs(mu) > lam:
        return 0.0
    return float(decay_prefactors(l, lam)[mu + lam, m + l])


def regular_coeff(l: int, lam: int, m: int, mu: int, a) -> complex:
    """Finite re-expansion weight, proportional to a growing solid harmonic
    of the shift."""
    bb = binom_safe(l + m, lam + mu) * binom_safe(l - m, lam - mu)
    if bb == 0.0 or lam > l:
        return 0.0 + 0.0j
    return (
        math.sqrt((2 * l + 1) / (2 * lam + 1) * bb)
        * solid_regular(l - lam, m - mu, a)
    )


def decay_coeff(l: int, lam: int, m: int, mu: int, a) -> complex:
    """Decaying re-expansion weight, proportional to a decaying solid
    harmonic of the shift; singular at ``a = 0``."""
    pref = decay_prefactor(l, lam, m, mu)
    if pref == 0.0:
        return 0.0 + 0.0j
    a = np.asarray(a, dtype=float)
    if np.linalg.norm(a) == 0.0:
        raise SingularityError("decay_coeff requires a nonzero shift")
    return solid_irregular(l + lam, m - mu, a, scale=pref)


def cross_coeff(
    l: int, j: int, lam: int, m: int, mu: int, q: int, m1: int, a
) -> complex:
    """Axis cross-product re-expansion weight; singular at ``a = 0``."""
    pref = 1j * float(cross_weights(j, lam, q, m1, mu)) * decay_prefactor(l, lam, m, mu)
    if pref == 0.0:
        return 0.0 + 0.0j
    a = np.asarray(a, dtype=float)
    dist = float(np.linalg.norm(a))
    if dist == 0.0:
        raise SingularityError("cross_coeff requires a nonzero shift")
    # the unit shift's component times |a|^-(l+lam), as the block builder
    # has them: a's own component times |a|^-(l+lam+1) rounds differently
    unit = a / dist
    return solid_irregular(
        l + lam, m - mu, unit, scale=pref * rhat_dot_a_expand(unit)[q]
    ) * float(np.power(dist, -(l + lam)))


def combine_source(m: int, f) -> complex:
    """Real-source combination of a kernel linear in the complex order.

    ``f`` maps a signed complex order to a complex value; the result is the
    weight pattern that turns the complex re-expansion into the one for the
    real harmonic of order ``m``.
    """
    if m > 0:
        return (f(-m) + (-1.0) ** m * f(m)) / _SQRT2
    if m == 0:
        return f(0)
    return 1j * (f(m) - (-1.0) ** m * f(-m)) / _SQRT2


def combine_row(m: int, g) -> complex:
    """Projection-side counterpart of ``combine_source`` for a real row
    harmonic of order ``m``."""
    if m > 0:
        return (g(-m) + (-1.0) ** m * g(m)) / _SQRT2
    if m == 0:
        return g(0)
    return 1j * ((-1.0) ** m * g(-m) - g(m)) / _SQRT2


def _decaying_table(lmax: int, a) -> np.ndarray:
    """``solid_irregular(l, m, a)`` for ``0 <= l <= lmax`` and
    ``|m| <= lmax``, indexed ``[l, m + lmax]`` (zero for ``|m| > l``): the
    growing table of the unit shift over ``|a|^(l+1)``."""
    a = np.asarray(a, dtype=float)
    n = float(np.linalg.norm(a))
    deg = np.arange(lmax + 1)[:, None]
    if a[2] == 0.0:
        # on the equator (every shift of the chain), the closed form that
        # solid_irregular takes there
        m = np.arange(-lmax, lmax + 1)
        unit = (
            np.sqrt(4.0 * math.pi / (2 * deg + 1)) * equator_table(lmax)
            * np.exp(1j * m * Direction.from_vector(a).phi)
        )
    else:
        unit = solid_regular_table(lmax, a / n)
    return unit * np.power(n, -(deg + 1.0))


def _growing_binomials(l: int, m: int, lam: int) -> np.ndarray:
    """``binom(l + m, lam + mu) * binom(l - m, lam - mu)`` over ``mu``."""
    mu = np.arange(-lam, lam + 1)
    choose = _binomials(1 << (2 * l).bit_length())
    return choose[l + m, lam + mu] * choose[l - m, lam - mu]


def _growing_shift(l: int, a) -> np.ndarray:
    """The growing solid table of ``a`` to degree ``l``, padded with zeros
    to every order ``|m - mu| <= 2 l`` of a finite re-expansion, indexed
    ``[deg, t + 2 l]``."""
    return np.pad(solid_regular_table(l, a), ((0, 0), (l, l)))


def _orders(l: int, m) -> np.ndarray:
    """The orders ``m`` of degree ``l`` as a flat integer array (one order
    is an array of one)."""
    orders = np.asarray(m).reshape(-1)
    if np.any(np.abs(orders) > l):
        raise DomainError(f"|m|={np.abs(orders).max()} > l={l}")
    return orders


def _shaped(m, values):
    """``values`` over the flat orders, in the shape of ``m``: a Python
    number for one order."""
    if np.ndim(m) == 0:
        return values[0].item()
    return values.reshape(np.shape(m))


def translate_solid_regular(l: int, m, r, a):
    """Growing solid harmonic of ``r + a`` as its finite re-expansion.

    An integer array ``m`` gives one value per order (its shape), every
    order from the same tables of ``r`` and ``a``."""
    orders = _orders(l, m)[:, None]
    reg_r = solid_regular_table(l, r)
    reg_a = _growing_shift(l, a)
    total = np.zeros(len(orders), dtype=complex)
    for lam in range(l + 1):
        mu = np.arange(-lam, lam + 1)
        total += np.sum(
            np.sqrt(_growing_binomials(l, orders, lam))
            * reg_r[lam, mu + l]
            * reg_a[l - lam, orders - mu + 2 * l],
            axis=-1,
        )
    return _shaped(m, total)


def translate_solid_irregular(l: int, m, r, a, lam_max: int = 30, with_tail: bool = False):
    """Decaying solid harmonic of ``r + a`` as a truncated series.

    Requires ``|r| < |a|``; the tail is estimated from the geometric ratio
    of the last computed block.  An integer array ``m`` gives one value
    (and tail) per order, as ``translate_solid_regular`` does.
    """
    orders = _orders(l, m)
    r = np.asarray(r, dtype=float)
    a = np.asarray(a, dtype=float)
    rn, an = np.linalg.norm(r), np.linalg.norm(a)
    _check_region(rn, an)
    lam_max = _cutoff(lam_max)
    reg_r = solid_regular_table(lam_max, r)
    irr_a = _decaying_table(l + lam_max, a)
    acc = _Kahan(0.0j)
    for lam in range(lam_max + 1):
        mu = np.arange(-lam, lam + 1)
        # decay_prefactors holds sqrt((2l+1)/(2lam+1)) on top of the
        # signed binomial root of this series
        weights = decay_prefactors(l, lam)[:, orders + l].T * math.sqrt(
            (2 * lam + 1) / (2 * l + 1)
        )
        block = np.sum(
            weights * reg_r[lam, mu + lam_max]
            * irr_a[l + lam, orders[:, None] - mu + l + lam_max],
            axis=-1,
        )
        acc.add(block)
    ratio = rn / an
    tail = abs(block) * ratio / (1.0 - ratio)
    if with_tail:
        return _shaped(m, acc.total), _shaped(m, tail)
    return _shaped(m, acc.total)


def _check_region(rn: float, an: float):
    if an == 0.0:
        raise SingularityError("translation must be nonzero")
    if rn >= an:
        raise ConvergenceError(f"series requires |r| < |a| ({rn} >= {an})")


class _Kahan:
    """Compensated sum across the ``lam`` blocks of a series: keeps the
    cancellation between blocks local."""

    def __init__(self, zero):
        self.total = zero
        self._comp = zero

    def add(self, v):
        y = v - self._comp
        t = self.total + y
        self._comp = (t - self.total) - y
        self.total = t


@lru_cache(maxsize=1)
def _series_tables(l: int, r: tuple, a: tuple, lam_max: int, decaying: bool):
    """The tables of the vector series of degree ``l`` at ``r`` about the
    shift ``a`` (tuples), read-only; only the most recent are kept, so the
    decaying series at one point and shift build them once: the complex
    vector harmonics and ``vector_Y`` at the direction of ``r``, the solid
    harmonics of the shift and its spherical components."""
    fields = vsh_complex_table(lam_max + 1, Direction.from_vector(r))
    shift = _decaying_table(l + lam_max, a) if decaying else _growing_shift(l, a)
    comp = rhat_dot_a_expand(a)
    tables = (fields, vector_Y_table(fields), shift,
              np.array([comp[q] for q in (-1, 0, 1)]))
    for table in tables:
        table.flags.writeable = False
    return tables


class _Series:
    """The tables of one vector-series call (``_series_tables``) and the
    weight tables of ``coupling``."""

    def __init__(self, l, m, r_vec, a, lam_max, decaying=True):
        _orders(l, m)
        r_vec = np.asarray(r_vec, dtype=float)
        a = np.asarray(a, dtype=float)
        self.rn, self.an = np.linalg.norm(r_vec), np.linalg.norm(a)
        if self.rn == 0.0:
            raise SingularityError("evaluation point must be nonzero")
        if decaying:
            _check_region(self.rn, self.an)
        self.l, self.m, self.lam_max = l, m, _cutoff(lam_max)
        self.fields, self.vec_y, self.shift, self.a_sph = _series_tables(
            l, tuple(r_vec.tolist()), tuple(a.tolist()), lam_max, decaying)
        self.tables = _weight_tables(lam_max + 1)

    def field(self, family, lam):
        """One family's harmonics of degree ``lam`` over ``mu``."""
        k = self.lam_max + 1
        return self.fields[family - 1, lam, k - lam : k + lam + 1]

    def decay(self, lam):
        """``combine_source(m, mt -> decay_coeff(l, lam, mt, mu, a))`` over
        ``mu``."""
        l, m = self.l, self.m
        pref = decay_prefactors(l, lam)
        orders = l + self.lam_max - np.arange(-lam, lam + 1)
        irr = self.shift[l + lam]
        return combine_source(m, lambda mt: pref[:, mt + l] * irr[mt + orders])

    def growing(self, lam):
        """``combine_source(m, mt -> regular_coeff(l, lam, mt, mu, a))``
        over ``mu``."""
        l = self.l
        mu = np.arange(-lam, lam + 1)
        reg = self.shift[l - lam]
        scale = (2 * l + 1) / (2 * lam + 1)
        return combine_source(
            self.m,
            lambda mt: np.sqrt(scale * _growing_binomials(l, mt, lam))
            * reg[mt - mu + 2 * l],
        )

    def weights(self, name, lam):
        """The weight table ``name`` of ``coupling._WeightTables`` at one
        ``lam``, over its projections ``-lam - _PAD..lam + _PAD``."""
        return getattr(self.tables, name)[lam, ..., self.tables.window(lam)]

    def coupled(self, lam, k, weights, c):
        """``sum_{q, k, j, mu} a_sph[q] weights[q, ..., j - k + 1, mu + lam +
        _PAD] c[mu] vector_Y(j, k, q + mu)`` for the orbital degree(s) ``k``
        of a weight table, ``...`` its axis over ``k``."""
        size = 2 * lam + 1
        orders = _Q.reshape((3,) + (1,) * (weights.ndim - 1)) + np.arange(
            -lam, lam + 1) + self.lam_max + 1
        harmonics = self.vec_y[np.arange(3)[:, None], k, orders]   # [q, ..., j - k + 1, mu]
        return np.einsum(
            "q,qju,u,qjux->x", self.a_sph,
            weights[..., _PAD:-_PAD].reshape(3, -1, size), c,
            harmonics.reshape(3, -1, size, 3))


def translate_W(l: int, m: int, r_vec, a) -> np.ndarray:
    """Finite re-expansion of the growing-trace field
    ``|r'|^{l-1} W(l, m)`` about the shifted centre, evaluated at ``r``."""
    s = _Series(l, m, r_vec, a, max(l, 1), decaying=False)
    acc = _Kahan(np.zeros(3, dtype=complex))
    for lam in range(1, l + 1):
        acc.add(s.rn ** (lam - 1) * (s.growing(lam) @ s.field(Family.W, lam)))
    return acc.total


def translate_V_decay(l: int, m: int, r_vec, a, lam_max: int = 30) -> np.ndarray:
    """Series for the decaying field ``|r'|^{-l-2} V(l, m)``."""
    s = _Series(l, m, r_vec, a, lam_max)
    acc = _Kahan(np.zeros(3, dtype=complex))
    for lam in range(1, lam_max + 1):
        acc.add(s.rn ** (lam - 1) * (s.decay(lam) @ s.field(Family.W, lam)))
    return acc.total


def _neg_l_common(s: _Series):
    """Terms shared by the ``|r'|^{-l} V`` and ``|r'|^{-l} W`` series."""
    rn, an = s.rn, s.an
    acc = _Kahan(np.zeros(3, dtype=complex))
    for lam in range(1, s.lam_max + 1):
        c = s.decay(lam)
        block = (rn ** (lam + 1) + an * an * rn ** (lam - 1)) * (
            c @ s.field(Family.W, lam)
        )
        ks = np.arange(lam, -1, -2)[:2, None, None]   # the orbital degrees k >= 0
        weights = s.weights("recoupling", lam)[:, :len(ks)]
        block = block + 2.0 * rn**lam * s.coupled(lam, ks, weights, c)
        acc.add(block)
    return acc


def translate_V_neg_l(l: int, m: int, r_vec, a, lam_max: int = 30) -> np.ndarray:
    """Series for ``|r'|^{-l} V(l, m)`` (decaying field times ``|r'|^2``)."""
    return _neg_l_common(_Series(l, m, r_vec, a, lam_max)).total


def translate_W_neg_l(l: int, m: int, r_vec, a, lam_max: int = 30) -> np.ndarray:
    """Series for ``|r'|^{-l} W(l, m)``; adds the radial-part re-expansion
    to the ``V`` series through the pointwise identity
    ``W - V = (2l+1) Y r_hat``."""
    s = _Series(l, m, r_vec, a, lam_max)
    acc = _neg_l_common(s)
    rn = s.rn
    for lam in range(lam_max + 1):
        c = s.decay(lam)
        block = rn ** (lam + 1) / (2 * lam + 1) * (
            c @ (s.field(Family.W, lam) - s.field(Family.V, lam))
        )
        block = block + rn**lam * s.coupled(lam, lam, s.weights("radial", lam), c)
        acc.add((2 * l + 1) * block)
    return acc.total


def translate_X(l: int, m: int, r_vec, a, lam_max: int = 30) -> np.ndarray:
    """Series for the toroidal field ``|r'|^{-l-1} X(l, m)``: a toroidal
    branch plus the axis cross-product branch."""
    s = _Series(l, m, r_vec, a, lam_max)
    acc = _Kahan(np.zeros(3, dtype=complex))
    for lam in range(1, lam_max + 1):
        c = s.decay(lam)
        acc.add(
            s.rn**lam * (c @ s.field(Family.X, lam))
            + 1j * s.rn ** (lam - 1) * s.coupled(lam, lam - 1, s.weights("cross", lam), c)
        )
    return acc.total
