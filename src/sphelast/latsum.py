"""Unit-circle polylogarithm/Lerch values for the Bloch-phased lattice sums.

Summing a re-expansion coefficient over all lattice copies with phase
``e^{-i n alpha}`` collapses, because the shifts all lie on one axis, to a
phase-independent coefficient times ``Li_s(e^{-i alpha})`` plus another times
``Li_s(e^{+i alpha})``.  The reflection ``x -> -x`` makes the first
coefficient ``(-1)^(s+1)`` times the second, so each order carries one real
coefficient (in ``assembly``) times one value ``u[s - 1] = v(s,+) +
(-1)^(s+1) v(s,-)``, where ``v(s,-)`` sums the copies at positive shifts
and ``v(s,+)`` those at negative ones.  This module supplies those values,
one vector per block, each a plain function of the raw phase (nothing is
kept between calls):

* ``line_values``  -- ``Li_s(e^{i alpha}) + (-1)^(s+1) Li_s(e^{-i alpha})``
  for the sum over every nonzero integer shift (one ball per cell): exactly
  ``2 Re Li_s`` at odd and ``2i Im Li_s`` at even orders;
* ``dimer_values`` -- the Lerch values of the two coupling blocks of a
  two-ball cell, from one vector per half-offset lattice (offsets ``2d``
  and ``1 - 2d``); block "21" couples the right ball onto the left one,
  "12" the reverse.

Every value, the dimer's Bloch factor ``e^{i alpha}`` included, comes from
the phase as given, so the vectors at ``-alpha`` are the exact conjugates of
those at ``alpha``; ``reduce_alpha`` only validates it and names its
representative in ``[0, 2 pi)``.

The values are float64, every order ``s = 1..s_max`` of one phase and one
offset ``0 < a <= 1`` in one pass (``lerch_orders``, ``polylog_orders``).
With ``theta`` the phase reduced to ``(-pi, pi]`` and ``mu = i theta``
(DLMF 25.12.12 and 25.14),

    Phi(e^mu, s, a) = e^{-a mu} [ sum_{k != s-1} zeta(s - k, a) mu^k / k!
                      + mu^{s-1} / (s-1)! (psi(s) - psi(a) - ln(-mu)) ],

and ``Li_s(e^mu) = e^mu Phi(e^mu, s, 1)`` is the bracket at ``a = 1``.  The
series converges like ``(|theta| / 2 pi)^k``; all orders share one column of
Hurwitz zeta values ``zeta(t, a)``, from 64 orders below the pole
(``zeta(1 - m, a) = -B_m(a) / m``) up to ``t = s_max``.

``_bracket`` is one array pass over a table with a row per ``t`` and a
column per order ``s``: entry ``(t, s)`` is the term ``zeta(t, a)
mu^(s - t) / (s - t)!`` (the pole row holds the psi bracket of order
``s``), and an exact zero for ``t > s``.  Summed over the rows, which is
not the contiguous axis, the terms are added to every order one after
another in ascending ``t``; numpy sums pairwise only along the contiguous
axis, so the table has two columns even for ``s_max = 1``.  This keeps two
bitwise properties:

* a longer vector repeats a shorter one: column ``s`` holds the same terms
  whatever ``s_max`` is (the ``mu^j / j!`` are built one term at a time,
  each zeta value depends on ``t`` and ``a`` only), they are added in the
  same order, and the zeros past a column's last term leave it unchanged;
* the value at ``e^{-i alpha}`` is the exact conjugate of the one at
  ``e^{i alpha}``: only ``theta > 0`` is computed, and the value at
  ``-theta``, like every ``v(s,-)``, is the conjugate of the finished
  vector.

``oracle.polylog_ref``/``lerch_ref`` (30 digits: mpmath's polylogarithm,
and for the Lerch values direct terms plus an Euler-transformed tail under
a rigorous remainder bound, with mpmath's ``lerchphi`` only next to the
resonance) are the reference, within ``1e-14 max(1, |ref|)`` in the tests
and in ``sphelast verify --suite latsum``; the brute-force truncated sums
live in the test suite, never here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "QuasiMomentumSingular",
    "LatticeSumOverflow",
    "DimerGeometry",
    "reduce_alpha",
    "polylog_orders",
    "lerch_orders",
    "line_values",
    "dimer_values",
    "AXIS_COMPONENT",
]

_TWO_PI = 2.0 * math.pi
_SINGULAR_TOL = 1e-12   # distance from 0 (mod 2 pi) that counts as resonant
_EULER_GAMMA = 0.5772156649015329

_TAIL = 64      # terms zeta(1 - m, a), m = 1.._TAIL, past the pole order
_SHIFT = 10     # direct terms ahead of each Euler-Maclaurin remainder
_EM = 12        # Bernoulli terms of the Euler-Maclaurin remainders
_POLY = 12      # B_m(a) from its coefficients up to this degree,
_FOURIER = 16   # from this many terms of its Fourier series above it


def _bernoulli_numbers(n: int) -> list[Fraction]:
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b


_B = _bernoulli_numbers(max(2 * _EM, _POLY))
_EM_WEIGHT = [float(_B[2 * j] / math.factorial(2 * j)) for j in range(1, _EM + 1)]
_PSI_WEIGHT = [float(_B[2 * j] / (2 * j)) for j in range(1, _EM + 1)]
# B_m(x) = sum_k C(m, k) B_k x^(m - k), highest power first, one row per
# m = 1.._POLY padded in front with zeros (which leave a Horner sum at 0)
_POLY_COEF = np.array([
    [0.0] * (_POLY - m)
    + [float(math.comb(m, k) * _B[k]) for k in range(m + 1)]
    for m in range(1, _POLY + 1)
])
# B_m(x) = -2 m! / (2 pi)^m sum_k cos(2 pi k x - m pi / 2) / k^m
_HIGH = np.arange(_POLY + 1, _TAIL + 1)
_FOURIER_K = np.arange(1, _FOURIER + 1, dtype=float)
_FOURIER_POW = _FOURIER_K ** -_HIGH[:, None].astype(float)
_FOURIER_SCALE = np.array([
    -2.0 * math.exp(math.lgamma(m + 1) - m * math.log(_TWO_PI)) for m in _HIGH
])

# Spherical components of a unit shift along -x: the axis weight per unit
# (signed) shift length.
AXIS_COMPONENT = {-1: 1.0 / math.sqrt(2.0), 0: 0.0, 1: -1.0 / math.sqrt(2.0)}


class QuasiMomentumSingular(ValueError):
    """Bloch phase at which a conditionally convergent sum diverges."""


class LatticeSumOverflow(ValueError):
    """Lattice-sum values beyond the float64 range (a tiny Lerch offset
    raised to a high order)."""


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


def _signed_phase(alpha: float) -> float:
    """The phase in ``[-pi, pi]``, validated by ``reduce_alpha`` but reduced
    from the raw input: mapping a negative phase into ``[0, 2 pi)`` first
    rounds ``2 pi - |alpha|``, which moves a small phase by up to 4.4e-16."""
    reduce_alpha(alpha)
    return math.remainder(float(alpha), _TWO_PI)


def _hurwitz(n: int, a: float) -> float:
    """Hurwitz ``zeta(n, a)`` for integer ``n >= 2`` and ``0 < a <= 1``:
    ``_SHIFT`` direct terms and the Euler-Maclaurin remainder (``inf`` past
    the float64 range)."""
    w = _SHIFT + a
    rising = n / w          # n (n + 1) ... (n + 2j - 2) / w^(2j - 1)
    series = 0.0
    for j, weight in enumerate(_EM_WEIGHT, 1):
        series += weight * rising
        rising *= (n + 2 * j - 1) * (n + 2 * j) / (w * w)
    total = w ** -n * (w / (n - 1) + 0.5 + series)
    for k in range(_SHIFT - 1, 0, -1):
        total += (k + a) ** -n
    try:
        return total + a ** -n
    except OverflowError:
        return math.inf


def _digamma(a: float) -> float:
    """``psi(a)`` for ``0 < a <= 1``: shifted by ``_SHIFT``, then the
    asymptotic series."""
    w = _SHIFT + a
    total = math.log(w) - 0.5 / w
    power = 1.0
    for weight in _PSI_WEIGHT:
        power *= w * w
        total -= weight / power
    for k in range(_SHIFT - 1, -1, -1):
        total -= 1.0 / (k + a)
    return total


def _bernoulli_poly(a: float) -> np.ndarray:
    """``B_m(a)`` for ``m = 1.._TAIL``."""
    low = np.zeros(_POLY)
    for coef in _POLY_COEF.T:   # one Horner step for every m at once
        low *= a
        low += coef
    angle = _TWO_PI * a * _FOURIER_K
    trig = np.array([np.cos(angle), np.sin(angle), -np.cos(angle), -np.sin(angle)])
    high = _FOURIER_SCALE * (_FOURIER_POW * trig[_HIGH % 4]).sum(axis=1)
    return np.concatenate([low, high])


def _bracket(theta: float, a: float, s_max: int) -> np.ndarray:
    """The bracket of the expansion (module docstring) at ``mu = i theta``,
    ``0 < theta <= pi``, for the orders ``1..s_max``."""
    # at least two orders: the sum over the terms of a single order would
    # run along the contiguous axis, which numpy sums pairwise
    width = max(s_max, 2)
    n_terms = width + _TAIL
    # mu^j / j!, built term by term so that a prefix never depends on s_max
    magnitude = [1.0]
    for j in range(1, n_terms):
        magnitude.append(magnitude[-1] * theta / j)
    i_power = np.array([1, 1j, -1, -1j])[np.arange(n_terms) % 4]
    powers = np.array(magnitude) * i_power
    # zeta(t, a) for t = 1 - _TAIL .. width, except at the pole t = 1, where
    # order s has psi(s) - psi(a) - ln(-mu) with psi(s) = H_{s-1} - gamma
    harmonic = np.cumsum(np.concatenate([[0.0], 1.0 / np.arange(1, width)]))
    log_mu = complex(math.log(theta), -math.pi / 2)
    pole = harmonic - _EULER_GAMMA - _digamma(a) - log_mu
    zeta = np.empty(n_terms, dtype=complex)
    zeta[:_TAIL] = -_bernoulli_poly(a)[::-1] / np.arange(_TAIL, 0, -1)
    zeta[_TAIL + 1:] = [_hurwitz(t, a) for t in range(2, width + 1)]
    # Term t of order s, zeta(t, a) mu^(s - t) / (s - t)!, sits in row
    # t - 1 + _TAIL and column s - 1; there is none for t > s.  Its power
    # is read from behind width - 1 zeros, at s - t + width - 1, so that
    # t > s reads a zero.  The zeta factor is selected to 0 there, not
    # multiplied by 0, so that an overflowed zeta(t, a) does not reach the
    # lower orders as inf * 0.
    index = (np.arange(n_terms - 1, n_terms - 1 + width)
             - np.arange(n_terms)[:, None])
    table = np.where(index < width - 1, 0j, zeta[:, None])
    table[_TAIL] = pole
    table *= np.concatenate([np.zeros(width - 1), powers])[index]
    # Summed over the rows, the non-contiguous axis, numpy adds the terms to
    # every order one after another in ascending t.
    return np.add.reduce(table, axis=0)[:s_max]


def _product(a, b):
    """``a * b`` elementwise in real arithmetic: a vectorised complex
    product may fuse its multiply-adds differently in its tail, which would
    make a value depend on its position in the array."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def polylog_orders(alpha: float, s_max: int) -> np.ndarray:
    """``Li_s(e^{i alpha})`` for ``s = 1..s_max``."""
    theta = _signed_phase(alpha)
    vec = _bracket(abs(theta), 1.0, s_max)
    return vec.conj() if theta < 0 else vec


def lerch_orders(alpha: float, offset: float, s_max: int) -> np.ndarray:
    """``Phi(e^{i alpha}, s, offset)`` for ``s = 1..s_max`` and
    ``0 < offset <= 1``; raises ``LatticeSumOverflow`` when a value is
    beyond float64."""
    if not 0.0 < offset <= 1.0:
        raise ValueError("offset must lie in (0, 1]")
    theta = _signed_phase(alpha)
    phase = abs(theta)
    with np.errstate(over="ignore", invalid="ignore"):
        vec = _product(
            _bracket(phase, offset, s_max),
            complex(math.cos(offset * phase), -math.sin(offset * phase)),
        )
    if not np.isfinite(vec).all():
        raise LatticeSumOverflow(
            f"Lerch values at offset {offset:.3g} exceed float64 for orders "
            f"up to {s_max}: the ball radius, the separation and lmax put the "
            "lattice sums outside float64"
        )
    return vec.conj() if theta < 0 else vec


def _fold(plus: np.ndarray, minus: np.ndarray) -> np.ndarray:
    """``plus + (-1)^(s+1) minus`` for the orders ``s = 1..len(plus)``: the
    one value per order that a trace coefficient multiplies (each sign
    applied exactly)."""
    out = plus + minus
    out[1::2] = plus[1::2] - minus[1::2]
    return out


def line_values(alpha: float, s_max: int) -> np.ndarray:
    """``Li_s(e^{i alpha}) + (-1)^(s+1) Li_s(e^{-i alpha})`` for ``s =
    1..s_max``: exactly ``2 Re Li_s`` at odd and ``2i Im Li_s`` at even
    orders."""
    plus = polylog_orders(alpha, s_max)
    return _fold(plus, plus.conj())


def dimer_values(
    alpha: float, geom: DimerGeometry, s_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """Lerch values of the coupling blocks "21" and "12" of ``geom``, one
    per order as in ``line_values``.

    Block "21" sums shifts ``n + 2d``: negative side offsets ``1 - 2d``
    with one extra phase ``e^{i alpha}`` (``far``), positive side ``2d``
    (``near``), so its value is ``far + (-1)^(s+1) conj(near)``.  Block
    "12" mirrors the offsets, so its value is ``(-1)^(s+1)`` times the
    conjugate of that of "21".
    """
    near = lerch_orders(alpha, 2 * geom.d, s_max)
    far = _product(
        lerch_orders(alpha, 1 - 2 * geom.d, s_max),
        complex(math.cos(alpha), math.sin(alpha)),
    )
    return _fold(far, near.conj()), _fold(near, far.conj())
