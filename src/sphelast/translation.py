"""Translation re-expansion machinery for solid and vector harmonics.

A field centred at the origin is re-expanded about a shifted centre: the
growing (regular) harmonics give finite sums, the decaying ones give
geometric-type series valid for ``|r| < |a|``.  Four coefficient families
drive everything:

* ``regular_coeff``    -- weight of the finite growing re-expansion,
* ``decay_coeff``      -- weight of the decaying re-expansion,
* ``recoupling_weight``-- pure angular-momentum weight that recouples an
  axis-projection product back into vector harmonics,
* ``cross_coeff``      -- weight of the axis cross-product recoupling.

The ``translate_*`` evaluators sum the re-expansion series for the real
vector harmonics; the assembly code never calls them (its entries are closed
form), they exist so the series themselves can be verified against direct
evaluation of the translated field.

``combine_source`` / ``combine_row`` encode the three-case real/complex
recombination for the source and projection order respectively and are the
single place where those sign conventions live.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coupling import binom_safe, cg
from .sphharm import Direction, solid_irregular, solid_regular
from .vsh import (
    Family,
    rhat_dot_a_expand,
    vector_Y,
    vsh_complex_or_zero,
)

__all__ = [
    "TruncationPolicy",
    "ConvergenceError",
    "SingularityError",
    "regular_coeff",
    "decay_coeff",
    "decay_prefactor",
    "decay_prefactors",
    "recoupling_weight",
    "cross_coeff",
    "cross_prefactor",
    "cross_weight",
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


def _sgn(x: int) -> int:
    return (x > 0) - (x < 0)


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


@lru_cache(maxsize=None)
def recoupling_weight(k: int, j: int, lam: int, m1: int, mu: int, q: int) -> float:
    """Angular weight converting an axis-projection product into a vector
    harmonic of orbital degree ``k`` and total degree ``j``; vanishes
    outside the coupling selection rules."""
    if lam < 1:
        return 0.0
    root = lam * (2 * lam + 1) * (2 * lam - 1) / (2 * k + 1)
    return (
        math.sqrt(root)
        * (-1.0) ** q
        * cg(lam - 1, mu - m1, 1, m1, lam, mu)
        * cg(1, q, lam - 1, mu - m1, k, q + mu - m1)
        * cg(1, 0, lam - 1, 0, k, 0)
        * cg(k, q + mu - m1, 1, m1, j, q + mu)
    )


@lru_cache(maxsize=None)
def cross_weight(j: int, lam: int, q: int, m1: int, mu: int) -> float:
    """``cross_prefactor(l, j, lam, m, mu, q, m1)`` over
    ``1j * decay_prefactor(l, lam, m, mu)``: the two share their binomials,
    so the ratio depends on neither ``l`` nor ``m``."""
    if lam < 1:
        return 0.0
    return (
        (-1.0) ** q
        * _sgn(q - m1)
        * math.sqrt(lam * (2 * lam + 1))
        * cg(lam - 1, mu - m1, 1, m1, lam, mu)
        * cg(lam - 1, mu - m1, 1, q + m1, j, mu + q)
    )


@lru_cache(maxsize=None)
def cross_prefactor(
    l: int, j: int, lam: int, m: int, mu: int, q: int, m1: int
) -> complex:
    """Translation-independent part of ``cross_coeff``."""
    return 1j * cross_weight(j, lam, q, m1, mu) * decay_prefactor(l, lam, m, mu)


def cross_coeff(
    l: int, j: int, lam: int, m: int, mu: int, q: int, m1: int, a
) -> complex:
    """Axis cross-product re-expansion weight; singular at ``a = 0``."""
    pref = cross_prefactor(l, j, lam, m, mu, q, m1)
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


def translate_solid_regular(l: int, m: int, r, a) -> complex:
    """Growing solid harmonic of ``r + a`` as its finite re-expansion."""
    total = 0.0 + 0.0j
    for lam in range(l + 1):
        for mu in range(-lam, lam + 1):
            bb = binom_safe(l + m, lam + mu) * binom_safe(l - m, lam - mu)
            if bb == 0.0:
                continue
            total += (
                math.sqrt(bb)
                * solid_regular(lam, mu, r)
                * solid_regular(l - lam, m - mu, a)
            )
    return total


def translate_solid_irregular(
    l: int, m: int, r, a, policy: TruncationPolicy = TruncationPolicy(),
    with_tail: bool = False,
):
    """Decaying solid harmonic of ``r + a`` as a truncated series.

    Requires ``|r| < |a|``; the tail is estimated from the geometric ratio
    of the last computed block.
    """
    r = np.asarray(r, dtype=float)
    a = np.asarray(a, dtype=float)
    rn, an = np.linalg.norm(r), np.linalg.norm(a)
    if an == 0.0:
        raise SingularityError("translation must be nonzero")
    if rn >= an:
        raise ConvergenceError(f"series requires |r| < |a| ({rn} >= {an})")
    total = 0.0 + 0.0j
    comp = 0.0 + 0.0j
    last_block = 0.0
    for lam in range(policy.lam_max + 1):
        block = 0.0 + 0.0j
        for mu in range(-lam, lam + 1):
            bb = binom_safe(l + lam + mu - m, lam + mu) * binom_safe(
                l + lam + m - mu, lam - mu
            )
            if bb == 0.0:
                continue
            block += (
                (-1.0) ** (lam + mu)
                * math.sqrt(bb)
                * solid_regular(lam, mu, r)
                * solid_irregular(l + lam, m - mu, a)
            )
        # Kahan step keeps the cancellation between mu-blocks local.
        y = block - comp
        t = total + y
        comp = (t - total) - y
        total = t
        last_block = abs(block)
    ratio = rn / an
    tail = last_block * ratio / (1.0 - ratio)
    if with_tail:
        return total, tail
    return total


class _ShiftCache:
    """Per-call cache of solid-harmonic values of one fixed shift, plus the
    coefficient helpers built on them (same closed forms as the public
    ``*_coeff`` functions)."""

    def __init__(self, a):
        self.a = np.asarray(a, dtype=float)
        self.a_sph = rhat_dot_a_expand(self.a)
        self._irr = {}
        self._reg = {}

    def irregular(self, big_l, t):
        key = (big_l, t)
        if key not in self._irr:
            self._irr[key] = (
                solid_irregular(big_l, t, self.a) if abs(t) <= big_l else 0.0j
            )
        return self._irr[key]

    def regular(self, deg, t):
        key = (deg, t)
        if key not in self._reg:
            self._reg[key] = (
                solid_regular(deg, t, self.a)
                if 0 <= deg and abs(t) <= deg
                else 0.0j
            )
        return self._reg[key]

    def decay(self, l, lam, mt, mu):
        pref = decay_prefactor(l, lam, mt, mu)
        if pref == 0.0:
            return 0.0j
        return pref * self.irregular(l + lam, mt - mu)

    def growing(self, l, lam, mt, mu):
        bb = binom_safe(l + mt, lam + mu) * binom_safe(l - mt, lam - mu)
        if bb == 0.0 or lam > l:
            return 0.0j
        return math.sqrt((2 * l + 1) / (2 * lam + 1) * bb) * self.regular(
            l - lam, mt - mu
        )

    def cross(self, l, j, lam, mt, mu, q, m1):
        pref = cross_prefactor(l, j, lam, mt, mu, q, m1)
        if pref == 0.0:
            return 0.0j
        return pref * self.a_sph[q] * self.irregular(l + lam, mt - mu)


class _DirCache:
    """Per-call cache of harmonic values at one fixed direction."""

    def __init__(self, d: Direction):
        self.d = d
        self._vsh = {}
        self._vecY = {}

    def field(self, family, lam, mu):
        key = (int(family), lam, mu)
        if key not in self._vsh:
            self._vsh[key] = vsh_complex_or_zero(family, lam, mu, self.d)
        return self._vsh[key]

    def vecY(self, j, k, m):
        key = (j, k, m)
        if key not in self._vecY:
            if abs(m) > j:
                self._vecY[key] = np.zeros(3, dtype=complex)
            else:
                self._vecY[key] = vector_Y(j, k, m, self.d)
        return self._vecY[key]


def _setup(r_vec, a):
    r_vec = np.asarray(r_vec, dtype=float)
    a = np.asarray(a, dtype=float)
    rn, an = np.linalg.norm(r_vec), np.linalg.norm(a)
    if rn == 0.0:
        raise SingularityError("evaluation point must be nonzero")
    cache = _DirCache(Direction.from_vector(r_vec))
    return r_vec, a, rn, an, cache, _ShiftCache(a)


def _check_region(rn: float, an: float):
    if an == 0.0:
        raise SingularityError("translation must be nonzero")
    if rn >= an:
        raise ConvergenceError(f"series requires |r| < |a| ({rn} >= {an})")


class _KahanVec:
    def __init__(self):
        self.total = np.zeros(3, dtype=complex)
        self._comp = np.zeros(3, dtype=complex)

    def add(self, v):
        y = v - self._comp
        t = self.total + y
        self._comp = (t - self.total) - y
        self.total = t


def translate_W(l: int, m: int, r_vec, a) -> np.ndarray:
    """Finite re-expansion of the growing-trace field
    ``|r'|^{l-1} W(l, m)`` about the shifted centre, evaluated at ``r``."""
    r_vec, a, rn, an, cache, shift = _setup(r_vec, a)
    acc = _KahanVec()
    for lam in range(1, l + 1):
        block = np.zeros(3, dtype=complex)
        for mu in range(-lam, lam + 1):
            c = combine_source(m, lambda mt: shift.growing(l, lam, mt, mu))
            if c == 0.0:
                continue
            block += rn ** (lam - 1) * c * cache.field(Family.W, lam, mu)
        acc.add(block)
    return acc.total


def translate_V_decay(
    l: int, m: int, r_vec, a, policy: TruncationPolicy = TruncationPolicy()
) -> np.ndarray:
    """Series for the decaying field ``|r'|^{-l-2} V(l, m)``."""
    r_vec, a, rn, an, cache, shift = _setup(r_vec, a)
    _check_region(rn, an)
    acc = _KahanVec()
    for lam in range(1, policy.lam_max + 1):
        block = np.zeros(3, dtype=complex)
        for mu in range(-lam, lam + 1):
            c = combine_source(m, lambda mt: shift.decay(l, lam, mt, mu))
            if c == 0.0:
                continue
            block += rn ** (lam - 1) * c * cache.field(Family.W, lam, mu)
        acc.add(block)
    return acc.total


def _neg_l_common(l, m, rn, an, shift, cache, policy):
    """Terms shared by the ``|r'|^{-l} V`` and ``|r'|^{-l} W`` series."""
    a_sph = shift.a_sph
    acc = _KahanVec()
    for lam in range(1, policy.lam_max + 1):
        block = np.zeros(3, dtype=complex)
        for mu in range(-lam, lam + 1):
            c = combine_source(m, lambda mt: shift.decay(l, lam, mt, mu))
            if c == 0.0:
                continue
            block += (
                c
                * (rn ** (lam + 1) + an * an * rn ** (lam - 1))
                * cache.field(Family.W, lam, mu)
            )
            for q in (-1, 0, 1):
                if a_sph[q] == 0.0:
                    continue
                for m1 in (-1, 0, 1):
                    for k in range(abs(lam - 2), lam + 1):
                        if k == lam - 1:
                            continue
                        for j in range(abs(k - 1), k + 2):
                            w = recoupling_weight(k, j, lam, m1, mu, q)
                            if w == 0.0:
                                continue
                            block += (
                                c
                                * 2.0
                                * rn**lam
                                * w
                                * a_sph[q]
                                * cache.vecY(j, k, q + mu)
                            )
        acc.add(block)
    return acc


def translate_V_neg_l(
    l: int, m: int, r_vec, a, policy: TruncationPolicy = TruncationPolicy()
) -> np.ndarray:
    """Series for ``|r'|^{-l} V(l, m)`` (decaying field times ``|r'|^2``)."""
    r_vec, a, rn, an, cache, shift = _setup(r_vec, a)
    _check_region(rn, an)
    return _neg_l_common(l, m, rn, an, shift, cache, policy).total


def translate_W_neg_l(
    l: int, m: int, r_vec, a, policy: TruncationPolicy = TruncationPolicy()
) -> np.ndarray:
    """Series for ``|r'|^{-l} W(l, m)``; adds the radial-part re-expansion
    to the ``V`` series through the pointwise identity
    ``W - V = (2l+1) Y r_hat``."""
    r_vec, a, rn, an, cache, shift = _setup(r_vec, a)
    _check_region(rn, an)
    acc = _neg_l_common(l, m, rn, an, shift, cache, policy)
    a_sph = shift.a_sph
    for lam in range(policy.lam_max + 1):
        block = np.zeros(3, dtype=complex)
        for mu in range(-lam, lam + 1):
            c = combine_source(m, lambda mt: shift.decay(l, lam, mt, mu))
            if c == 0.0:
                continue
            block += (
                (2 * l + 1)
                * rn ** (lam + 1)
                / (2 * lam + 1)
                * c
                * (
                    cache.field(Family.W, lam, mu)
                    - cache.field(Family.V, lam, mu)
                )
            )
            for q in (-1, 0, 1):
                if a_sph[q] == 0.0:
                    continue
                for j in range(abs(lam - 1), lam + 2):
                    w = cg(lam, mu, 1, q, j, mu + q)
                    if w == 0.0:
                        continue
                    block += (
                        (2 * l + 1)
                        * (-1.0) ** q
                        * a_sph[q]
                        * rn**lam
                        * c
                        * w
                        * cache.vecY(j, lam, q + mu)
                    )
        acc.add(block)
    return acc.total


def translate_X(
    l: int, m: int, r_vec, a, policy: TruncationPolicy = TruncationPolicy()
) -> np.ndarray:
    """Series for the toroidal field ``|r'|^{-l-1} X(l, m)``: a toroidal
    branch plus the axis cross-product branch."""
    r_vec, a, rn, an, cache, shift = _setup(r_vec, a)
    _check_region(rn, an)
    acc = _KahanVec()
    for lam in range(1, policy.lam_max + 1):
        block = np.zeros(3, dtype=complex)
        for mu in range(-lam, lam + 1):
            c = combine_source(m, lambda mt: shift.decay(l, lam, mt, mu))
            if c != 0.0:
                block += rn**lam * c * cache.field(Family.X, lam, mu)
            for q in (-1, 0, 1):
                for m1 in (-1, 0, 1):
                    for j in range(abs(lam - 2), lam + 1):
                        cl = combine_source(
                            m,
                            lambda mt: shift.cross(l, j, lam, mt, mu, q, m1),
                        )
                        if cl == 0.0:
                            continue
                        block += (
                            rn ** (lam - 1)
                            * cl
                            * cache.vecY(j, lam - 1, q + mu)
                        )
        acc.add(block)
    return acc.total
