"""Translation re-expansion machinery for solid and vector harmonics.

A field centred at the origin is re-expanded about a shifted centre: the
growing (regular) harmonics give finite sums, the decaying ones give
geometric-type series valid for ``|r| < |a|``.  Four coefficient families
drive everything:

* ``regular_coeff``      -- weight of the finite growing re-expansion,
* ``decay_coeff``        -- weight of the decaying re-expansion,
* ``recoupling_weights`` -- pure angular-momentum weight that recouples an
  axis-projection product back into vector harmonics,
* ``cross_coeff``        -- weight of the axis cross-product recoupling
  (``cross_weights`` times the decay prefactor).

The two angular weights are products of the closed spin-1 Clebsch-Gordan
forms (``coupling.cg_spin1``), broadcast over their arguments.  Summed over
the spin projection, they make three weight tables per ``lam``
(``_recoupling_table``, ``_radial_table``, ``_cross_table``), which both the
vector series below and the trace (``assembly._terms``) read.

The ``translate_*`` evaluators sum the re-expansion series for the real
vector harmonics; the assembly code never calls them (its entries are closed
form), they exist so the series themselves can be verified against direct
evaluation of the translated field.

Each call first builds its tables: the solid harmonics of ``r`` and of the
shift (``sphharm.solid_regular_table``, from the Cartesian components; the
decaying ones from the table of the unit shift, or from
``sphharm.equator_table`` on the equator) and, for the vector series, the
complex vector harmonics and ``vector_Y`` at the direction of ``r``
(``vsh.vsh_complex_table``, ``vsh.vector_Y_table``).  Each ``lam`` block is
then a sum of arrays over ``mu``, weighted by ``decay_prefactors`` and by
the weight tables.  A compensated sum adds the blocks.

``combine_source`` / ``combine_row`` encode the three-case real/complex
recombination for the source and projection order respectively and are the
single place where those sign conventions live.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coupling import binom_safe, cg_spin1
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
    "TruncationPolicy",
    "ConvergenceError",
    "SingularityError",
    "regular_coeff",
    "decay_coeff",
    "decay_prefactor",
    "decay_prefactors",
    "cross_coeff",
    "recoupling_weights",
    "cross_weights",
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


@dataclass(frozen=True)
class TruncationPolicy:
    """Cutoff for the infinite re-expansion series."""

    lam_max: int = 30

    def __post_init__(self):
        if self.lam_max < 1:
            raise ValueError("lam_max must be >= 1")


@lru_cache(maxsize=None)
def _binomials(size: int) -> np.ndarray:
    """``binom_safe(n, k)`` for ``0 <= n, k < size``, indexed ``[n, k]``."""
    return np.array([[binom_safe(n, k) for k in range(size)] for n in range(size)])


@lru_cache(maxsize=None)
def decay_prefactors(l: int, lam: int) -> np.ndarray:
    """``decay_prefactor(l, lam, m, mu)`` for every ``m = -l..l`` and
    ``mu = -lam..lam``, indexed ``[mu + lam, m + l]`` (read-only)."""
    mu = np.arange(-lam, lam + 1)[:, None]
    m = np.arange(-l, l + 1)
    # every binomial argument is at most 2 (l + lam); one table per power of 2
    choose = _binomials(1 << (2 * (l + lam)).bit_length())
    bb = choose[l + lam + mu - m, lam + mu] * choose[l + lam + m - mu, lam - mu]
    sign = np.where((lam + mu) % 2, -1.0, 1.0)
    out = np.where(bb > 0.0, sign * np.sqrt((2 * l + 1) / (2 * lam + 1) * bb), 0.0)
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


def _check_order(l: int, m: int):
    if abs(m) > l:
        raise DomainError(f"|m|={abs(m)} > l={l}")


def translate_solid_regular(l: int, m: int, r, a) -> complex:
    """Growing solid harmonic of ``r + a`` as its finite re-expansion."""
    _check_order(l, m)
    reg_r = solid_regular_table(l, r)
    reg_a = _growing_shift(l, a)
    total = 0.0 + 0.0j
    for lam in range(l + 1):
        mu = np.arange(-lam, lam + 1)
        total += np.sum(
            np.sqrt(_growing_binomials(l, m, lam))
            * reg_r[lam, mu + l]
            * reg_a[l - lam, m - mu + 2 * l]
        )
    return complex(total)


def translate_solid_irregular(
    l: int, m: int, r, a, policy: TruncationPolicy = TruncationPolicy(),
    with_tail: bool = False,
):
    """Decaying solid harmonic of ``r + a`` as a truncated series.

    Requires ``|r| < |a|``; the tail is estimated from the geometric ratio
    of the last computed block.
    """
    _check_order(l, m)
    r = np.asarray(r, dtype=float)
    a = np.asarray(a, dtype=float)
    rn, an = np.linalg.norm(r), np.linalg.norm(a)
    _check_region(rn, an)
    lam_max = policy.lam_max
    reg_r = solid_regular_table(lam_max, r)
    irr_a = _decaying_table(l + lam_max, a)
    acc = _Kahan(0.0j)
    for lam in range(lam_max + 1):
        mu = np.arange(-lam, lam + 1)
        # decay_prefactors holds sqrt((2l+1)/(2lam+1)) on top of the
        # signed binomial root of this series
        weights = decay_prefactors(l, lam)[:, m + l] * math.sqrt(
            (2 * lam + 1) / (2 * l + 1)
        )
        block = np.sum(
            weights * reg_r[lam, mu + lam_max] * irr_a[l + lam, m - mu + l + lam_max]
        )
        acc.add(block)
    ratio = rn / an
    tail = abs(block) * ratio / (1.0 - ratio)
    if with_tail:
        return complex(acc.total), tail
    return complex(acc.total)


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


def recoupling_weights(k, j, lam: int, m1, mu, q) -> np.ndarray:
    """Angular weight converting an axis-projection product into a vector
    harmonic of orbital degree ``k`` and total degree ``j``, from the
    closed spin-1 Clebsch-Gordan forms, broadcast over every argument but
    ``lam``; 0 outside the coupling selection rules."""
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


def cross_weights(j, lam: int, q, m1, mu) -> np.ndarray:
    """``cross_coeff``'s prefactor over ``1j * decay_prefactor(l, lam, m,
    mu)``: the two share their binomials, so the ratio depends on neither
    ``l`` nor ``m``.  From the closed spin-1 Clebsch-Gordan forms,
    broadcast over every argument but ``lam``."""
    return (
        (-1.0) ** np.asarray(q)
        * np.sign(np.asarray(q) - m1)
        * math.sqrt(lam * (2 * lam + 1))
        * cg_spin1(lam - 1, mu - m1, m1, lam)
        * cg_spin1(lam - 1, mu - m1, q + m1, j)
    )


# Weight tables of one lam, summed over m1 and indexed [q + 1, ..., j - k +
# 1, mu + lam + _PAD] over the total degrees j of the vector_Y(j, k, .)
# harmonics that they multiply: the projections mu run _PAD past -lam..lam
# (with zero weights there), so that a shifted row is a slice.  Read-only,
# shared by the series and by the trace (assembly._terms).
_PAD = 2
_Q = np.arange(-1, 2)


def _frozen_table(values) -> np.ndarray:
    values.flags.writeable = False
    return values


def _mus(lam: int) -> np.ndarray:
    return np.arange(-lam - _PAD, lam + _PAD + 1)


@lru_cache(maxsize=None)
def _recoupling_table(lam: int):
    """``(ks, weights)`` of the axis-projection terms of ``|r'|^{-l} V``:
    orbital degrees ``ks = lam, lam - 2`` (those >= 0, shape ``(K, 1,
    1)``), weights indexed ``[q + 1, (lam - k) // 2, j - k + 1, mu + lam +
    _PAD]``."""
    ks = np.arange(lam, -1, -2)[:2, None, None]
    q, m1 = _Q[:, None, None, None, None], _Q[:, None, None, None]
    weights = recoupling_weights(ks, ks + _Q[:, None], lam, m1, _mus(lam), q)
    return ks, _frozen_table(weights.sum(axis=1))


@lru_cache(maxsize=None)
def _radial_table(lam: int) -> np.ndarray:
    """The radial-part terms of ``|r'|^{-l} W``: the coupling of ``Y(lam,
    mu) chi(q)`` to total degree ``j``, indexed ``[q + 1, j - lam + 1, mu +
    lam + _PAD]``."""
    q = _Q[:, None, None]
    return _frozen_table(
        (-1.0) ** q * cg_spin1(lam, _mus(lam), q, lam + _Q[:, None]))


@lru_cache(maxsize=None)
def _cross_table(lam: int) -> np.ndarray:
    """The axis cross-product terms of the toroidal series, total degrees
    ``j = lam - 2..lam`` of orbital degree ``lam - 1``, indexed ``[q + 1, j
    - lam + 2, mu + lam + _PAD]``."""
    q, m1 = _Q[:, None, None, None], _Q[:, None, None]
    weights = cross_weights(lam - 1 + _Q[:, None], lam, q, m1, _mus(lam))
    return _frozen_table(weights.sum(axis=1))


class _Series:
    """The tables of one vector-series call: the complex vector harmonics
    and ``vector_Y`` at the direction of ``r``, the solid harmonics of the
    shift and its spherical components."""

    def __init__(self, l, m, r_vec, a, lam_max, decaying=True):
        _check_order(l, m)
        r_vec = np.asarray(r_vec, dtype=float)
        a = np.asarray(a, dtype=float)
        self.rn, self.an = np.linalg.norm(r_vec), np.linalg.norm(a)
        if self.rn == 0.0:
            raise SingularityError("evaluation point must be nonzero")
        if decaying:
            _check_region(self.rn, self.an)
        self.l, self.m, self.lam_max = l, m, lam_max
        self.fields = vsh_complex_table(lam_max + 1, Direction.from_vector(r_vec))
        self.vec_y = vector_Y_table(self.fields)
        self.shift = (
            _decaying_table(l + lam_max, a) if decaying else _growing_shift(l, a)
        )
        comp = rhat_dot_a_expand(a)
        self.a_sph = np.array([comp[q] for q in (-1, 0, 1)])

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


def translate_V_decay(
    l: int, m: int, r_vec, a, policy: TruncationPolicy = TruncationPolicy()
) -> np.ndarray:
    """Series for the decaying field ``|r'|^{-l-2} V(l, m)``."""
    s = _Series(l, m, r_vec, a, policy.lam_max)
    acc = _Kahan(np.zeros(3, dtype=complex))
    for lam in range(1, policy.lam_max + 1):
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
        ks, weights = _recoupling_table(lam)
        block = block + 2.0 * rn**lam * s.coupled(lam, ks, weights, c)
        acc.add(block)
    return acc


def translate_V_neg_l(
    l: int, m: int, r_vec, a, policy: TruncationPolicy = TruncationPolicy()
) -> np.ndarray:
    """Series for ``|r'|^{-l} V(l, m)`` (decaying field times ``|r'|^2``)."""
    return _neg_l_common(_Series(l, m, r_vec, a, policy.lam_max)).total


def translate_W_neg_l(
    l: int, m: int, r_vec, a, policy: TruncationPolicy = TruncationPolicy()
) -> np.ndarray:
    """Series for ``|r'|^{-l} W(l, m)``; adds the radial-part re-expansion
    to the ``V`` series through the pointwise identity
    ``W - V = (2l+1) Y r_hat``."""
    s = _Series(l, m, r_vec, a, policy.lam_max)
    acc = _neg_l_common(s)
    rn = s.rn
    for lam in range(policy.lam_max + 1):
        c = s.decay(lam)
        block = rn ** (lam + 1) / (2 * lam + 1) * (
            c @ (s.field(Family.W, lam) - s.field(Family.V, lam))
        )
        block = block + rn**lam * s.coupled(lam, lam, _radial_table(lam), c)
        acc.add((2 * l + 1) * block)
    return acc.total


def translate_X(
    l: int, m: int, r_vec, a, policy: TruncationPolicy = TruncationPolicy()
) -> np.ndarray:
    """Series for the toroidal field ``|r'|^{-l-1} X(l, m)``: a toroidal
    branch plus the axis cross-product branch."""
    s = _Series(l, m, r_vec, a, policy.lam_max)
    acc = _Kahan(np.zeros(3, dtype=complex))
    for lam in range(1, policy.lam_max + 1):
        c = s.decay(lam)
        acc.add(
            s.rn**lam * (c @ s.field(Family.X, lam))
            + 1j * s.rn ** (lam - 1) * s.coupled(lam, lam - 1, _cross_table(lam), c)
        )
    return acc.total
