"""Matrix representation of the quasi-periodic single layer operator.

Every inner product of a row harmonic against the potential of a shifted
copy of a column harmonic is one closed-form combination of four kernels
of the complex orders ``mu`` (row) and ``mt`` (column): plain,
axis-weighted, squared-moment and cross-product.  Each kernel is a
decaying-translation prefactor times a Racah-normalised equator harmonic
of degree ``L = l + lam`` and order ``mt - mu``, and it depends on the
shift ``x`` only through ``|x|^-s`` for one order ``s``: ``L + 1`` (plain),
``L`` (axis, cross) or ``L - 1`` (moment).  Summed over the copies with
the Bloch phase, ``|x|^-s`` becomes a polylogarithm (or, for the dimer
coupling blocks, a Lerch) value, so every entry is a short vector of
phase-independent coefficients dotted with ``v(alpha)`` of
``latsum.line_values``/``dimer_values``, and ``M(alpha) = D + T v(alpha)``.

Degree-pair blocks: ``_DegreeBlocks`` builds, for one family pair and one
degree pair ``(lp, l)``, the kernel block ``K[mu, mt]`` of every complex
order pair with numpy, from one equator table, the prefactor table
``translation.decay_prefactors`` and the recoupling, cross
(``translation.cross_weight``) and Clebsch-Gordan weights, and then turns it
into the block of every real order pair ``(mp, m)`` with the per-degree
complex-to-real unitaries on both sides (the weights of
``translation.combine_source``/``combine_row``; Blanco, Florez & Bermejo,
J. Mol. Struct. THEOCHEM 419:19 (1997)).  The Python loop
runs over degree pairs, not entries.  ``Trace``, ``entry_single``,
``entry_dimer`` and ``per_copy_entries`` all read the same blocks.

Two orders per entry: the lattice part of an entry of degrees ``(lp, l)``
lives on the orders ``l + lp + b`` and ``l + lp + b + 2``, with ``b`` fixed
by the family pair (row, column):

    (V,W), (W,V)   b = 1        (W,X), (X,W)   b = 0
    (W,W)          b = -1       (X,X)          b = 1 (the higher order is 0)

so each entry is stored as its lowest order and four coefficients
``[c(s,-), c(s,+), c(s+2,-), c(s+2,+)]``, contracted by a gather.  Slot
``(s, -)`` weighs ``Li_s(e^{-i alpha})``, the sum over the copies at
positive shifts; one copy at shift ``x`` contributes
``sum_s c(s,-) x^-s`` for ``x > 0`` and ``sum_s c(s,+) |x|^-s`` for
``x < 0`` (``per_copy_entries``).  The reflection ``x -> -x`` gives
``c(s,-) = (-1)^(s+1) c(s,+)``.  A term on any other order stops the
builder.

Structural zeros: a V-family density produces a pure W-family potential
off its own ball, so the (V,V) off-diagonal, (X,V) and (V,X) entries
vanish; ``per_copy_entries`` still evaluates the printed (V,X) combination
(orders ``l + lp + 2``) so its numerical vanishing can be tested.  Beyond
those, a chain on the x-axis (and the dimer at ``(+-d, 0, 0)``) is
symmetric under ``z -> -z`` and ``y -> -y``, so ``M`` splits into four
parity sectors (``sector``): entries whose row and column labels lie in
different sectors are zero, and the assembled matrices store exact zeros.

Mirrored triangle: ``M`` is Hermitian for every phase, and
``conj Li_s(e^{-+i alpha}) = Li_s(e^{+-i alpha})``; since the ``Li_s`` are
linearly independent, the coefficients of entry ``(j, i)`` are the
conjugates of those of ``(i, j)`` with each ``(s, -)``/``(s, +)`` pair
swapped (``_mirror``).  The Lerch values of the dimer blocks "21" and "12"
are related the same way, so one triangle serves all three blocks.  Only
the blocks with ``lp <= l`` are built, and only their entries on or above
the diagonal are kept; the rest are mirrored.

Basis ordering: degree ascending, order ``-l..l`` ascending, family V,W,X
innermost, with the two identically-zero degree-0 labels removed, giving
``3 (L+1)^2 - 2`` basis elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import __version__ as _pkg_version
from .kelvin import LameParams, norm_factor, response_coeffs
from .coupling import cg
from .latsum import (
    AXIS_COMPONENT,
    DimerGeometry,
    LatticeSumCache,
    dimer_values,
    line_values,
    reduce_alpha,
    slot,
)
from .sphharm import equator_table
from .translation import cross_weight, decay_prefactors, recoupling_weight
from .vsh import Family, ForbiddenIndexError

__all__ = [
    "BASIS_VERSION",
    "BasisMap",
    "AssembledMatrix",
    "per_copy_entry",
    "per_copy_entries",
    "entry_single",
    "assemble_single",
    "entry_dimer",
    "assemble_dimer",
    "Trace",
    "sector",
]

BASIS_VERSION = "vwx-ordered-1"


class BasisMap:
    """Ordered basis labels ``(l, m, family)`` up to ``L_max``."""

    def __init__(self, l_max: int):
        if l_max < 0:
            raise ValueError("L_max must be >= 0")
        self.l_max = l_max
        self.labels = []
        for l in range(l_max + 1):
            for m in range(-l, l + 1):
                for fam in (Family.V, Family.W, Family.X):
                    if l == 0 and fam != Family.V:
                        continue
                    self.labels.append((l, m, fam))
        self._lookup = {lab: i for i, lab in enumerate(self.labels)}

    @property
    def n_eff(self) -> int:
        return len(self.labels)

    def index_of(self, l: int, m: int, family) -> int:
        family = Family(family)
        if l == 0 and family != Family.V:
            raise ForbiddenIndexError(
                f"{family.name}(0,0) is excluded from the basis"
            )
        try:
            return self._lookup[(l, m, family)]
        except KeyError:
            raise IndexError(f"label (l={l}, m={m}, {family.name}) "
                             f"outside basis with L_max={self.l_max}") from None

    def __iter__(self):
        return iter(self.labels)

    def __len__(self):
        return len(self.labels)


@dataclass
class AssembledMatrix:
    """Dense operator matrix with the inputs that produced it."""

    matrix: np.ndarray
    basis: BasisMap
    alpha: float
    rho: float
    params: LameParams
    l_max: int
    dimer: DimerGeometry | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.meta.setdefault("basis_version", BASIS_VERSION)
        self.meta.setdefault("tool_version", _pkg_version)


# ---------------------------------------------------------------------------
# degree-pair blocks

V, W, X = Family.V, Family.W, Family.X
_SQRT2 = math.sqrt(2.0)

# b of each family pair (row, column) with a lattice part: an entry of
# degrees (lp, l) lives on the orders l + lp + b and l + lp + b + 2
_ORDER_OFFSET = {(W, V): 1, (V, W): 1, (W, W): -1, (W, X): 0, (X, W): 0,
                 (X, X): 1, (V, X): 2}
# the pairs the matrices hold: (V, X) vanishes (see the module docstring)
_STORED = [pair for pair in _ORDER_OFFSET if pair != (V, X)]


def _frozen(values) -> np.ndarray:
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


# Row weights over mu = -lp..lp.  The axis and cross kernels enter their
# (+) slot with the factor -AXIS_COMPONENT[qq] (the shift is odd there);
# qq = 0 has no axis component, so only qq = +-1 occurs.

@lru_cache(maxsize=None)
def _axis_rows(k: int, lp: int, lam: int, qq: int) -> np.ndarray:
    """The axis kernel at ``(lam, mu - qq)`` recoupled to orbital degree
    ``k`` and total degree ``lp`` (summed over ``m1``)."""
    return _frozen([
        -AXIS_COMPONENT[qq] * sum(
            recoupling_weight(k, lp, lam, m1, mu - qq, qq) for m1 in (-1, 0, 1))
        for mu in range(-lp, lp + 1)
    ])


@lru_cache(maxsize=None)
def _cg_rows(k: int, lp: int, qq: int) -> np.ndarray:
    """The axis kernel at ``(k, mu - qq)`` coupled with the axis component
    to degree ``lp``."""
    return _frozen([
        -AXIS_COMPONENT[qq] * (-1.0) ** qq * cg(k, mu - qq, 1, qq, lp, mu)
        for mu in range(-lp, lp + 1)
    ])


@lru_cache(maxsize=None)
def _cross_rows(lp: int, lam: int, qq: int) -> np.ndarray:
    """The cross kernel at ``(lam, mu - qq)`` with total degree ``lp``
    (summed over ``m1``), over ``1j`` times the plain kernel."""
    return _frozen([
        -AXIS_COMPONENT[qq] * sum(
            cross_weight(lp, lam, qq, m1, mu - qq) for m1 in (-1, 0, 1))
        for mu in range(-lp, lp + 1)
    ])


def _terms(p, q, lp, l, rho, params):
    """The combination of one family pair: ``(phase, terms)`` with terms
    ``(order, lam, qq, weights)``, each adding ``weights[mu]`` times the
    plain kernel of degree ``l + lam`` at ``(mu - qq, mt)`` to the block of
    ``order``; the block is ``phase`` times their sum.  The radial factors
    are instantiated on the ball surface (``r = rho``)."""
    r = rho
    a11, a12, a22, a33 = response_coeffs(l, params)
    one = np.ones(2 * lp + 1)
    if (p, q) == (W, V):
        return 1.0, [(l + lp + 1, lp, 0, one * (
            rho ** (l + 3) * a11 * r ** (lp - 1) * norm_factor(W, lp)))]
    if (p, q) in ((W, X), (X, X), (V, X)):
        if p == X:
            pref = rho ** (l + 2) * a33 * r**lp
            n3 = norm_factor(X, lp)
            # -1j times the cross kernels' 1j: the block is real
            terms = [(l + lp + 1, lp, 0, pref * n3 * one)]
            pref, lam, phase = pref * math.sqrt(n3), lp + 1, 1.0
        elif p == W:
            pref = rho ** (l + 2) * a33 * r ** (lp - 1) * math.sqrt(norm_factor(W, lp))
            terms, lam, phase = [], lp, 1j
        else:
            pref = rho ** (l + 2) * a33 * r ** (lp + 1) * math.sqrt(norm_factor(V, lp))
            terms, lam, phase = [], lp + 2, 1j
        return phase, terms + [
            (l + lam, lam, qq, pref * _cross_rows(lp, lam, qq)) for qq in (-1, 1)]
    # q == W: the axis kernels recoupled to the row's vector harmonic
    side = rho ** (l + 1) * (a22 - a12)
    if p == V:
        root = math.sqrt(norm_factor(V, lp))
        k, lams, phase = lp + 1, (lp + 1, lp + 3), 1.0
        terms = [(l + lp + 1, lp, 0, one * (
            -rho ** (l + 1) * a22 * r ** (lp + 1) * (2 * l + 1) * (lp + 1)))]
        coupled = rho ** (l + 1) * a22 * r ** (lp + 1) * (2 * l + 1) * root
    elif p == X:
        root = math.sqrt(norm_factor(X, lp))
        k, lams, phase = lp, (lp, lp + 2), -1j
        terms = []
        coupled = rho ** (l + 1) * a22 * r**lp * (2 * l + 1) * root
    else:
        n2 = norm_factor(W, lp)
        root = math.sqrt(n2)
        k, lams, phase = lp - 1, (lp - 1, lp + 1), 1.0
        bracket = (
            rho ** (l + 3) * a12 * r ** (lp - 1)
            + side * r ** (lp + 1)
            + rho ** (l + 1) * a22 * r ** (lp + 1) * (2 * l + 1) / (2 * lp + 1)
        )
        terms = [
            (l + lp + 1, lp, 0, n2 * bracket * one),
            (l + lp - 1, lp, 0, n2 * side * r ** (lp - 1) * one),
        ]
        coupled = rho ** (l + 1) * a22 * (2 * l + 1) * root * r ** (lp - 1)
    for lam in lams:
        if lam >= 1:
            terms += [(l + lam, lam, qq, 2.0 * side * root * r**lam
                       * _axis_rows(k, lp, lam, qq)) for qq in (-1, 1)]
    terms += [(l + k, k, qq, coupled * _cg_rows(k, lp, qq)) for qq in (-1, 1)]
    return phase, terms


def _real_orders(block: np.ndarray, row: bool = False) -> np.ndarray:
    """The complex-to-real change of order on the last axis of ``block``:
    the weights of ``combine_source``, or with ``row`` of ``combine_row``,
    except their common factor ``1/sqrt(2)`` at ``m != 0`` (``_unitary_scale``)."""
    l = block.shape[-1] // 2
    out = np.empty(block.shape, dtype=complex)
    out[..., l] = block[..., l]
    if l:
        sign = 1.0 - 2.0 * (np.arange(1, l + 1) % 2)   # (-1)^m, m = 1..l
        up, down = block[..., l + 1:], block[..., l - 1::-1]   # orders m, -m
        out[..., l + 1:] = down + sign * up
        out[..., l - 1::-1] = 1j * (sign * up - down if row else down - sign * up)
    return out


def _unitary_scale(lp: int, l: int) -> np.ndarray:
    """The factors ``1/sqrt(2)`` left out by ``_real_orders`` on both
    sides of a block, as divisors: 2 (exact) where ``mp`` and ``m`` are
    both nonzero."""
    nonzero = (np.arange(-lp, lp + 1) != 0)[:, None].astype(int) + (
        np.arange(-l, l + 1) != 0)
    return np.array([1.0, _SQRT2, 2.0])[nonzero]


def _mirror(coef):
    """Coefficients (the last axis) of the transposed entries: each
    ``(s, -)``/``(s, +)`` pair swapped, then conjugated."""
    pairs = coef.reshape(*coef.shape[:-1], coef.shape[-1] // 2, 2)
    return pairs[..., ::-1].reshape(coef.shape).conj()


class _DegreeBlocks:
    """Lattice coefficients of one radius and material, one family pair
    and degree pair at a time, for degrees up to ``l_max``."""

    def __init__(self, rho, params: LameParams, l_max: int):
        self.rho, self.params = rho, params
        self._top = 2 * l_max + 3   # the highest kernel degree l + lam
        self._equator = equator_table(self._top)
        self._racah = np.sqrt(4.0 * math.pi / (2 * np.arange(self._top + 1) + 1))
        self._plain = {}

    def _padded(self, l: int, lam: int) -> np.ndarray:
        """The plain kernel ``decay_prefactor(l, lam, mt, mu)`` times the
        Racah-normalised ``Y_{l+lam}^{mt-mu}(pi/2, 0)``, indexed
        ``[mu + lam + 2, mt + l]``: two zero rows on each side.  The
        factors are multiplied in ``translation.decay_coeff``'s order, so one
        kernel at one shift rounds exactly as that coefficient."""
        table = self._plain.get((l, lam))
        if table is None:
            t = np.arange(-l, l + 1) - np.arange(-lam, lam + 1)[:, None]
            table = np.pad(
                decay_prefactors(l, lam) * self._racah[l + lam]
                * self._equator[l + lam, t + self._top], ((2, 2), (0, 0)))
            self._plain[l, lam] = table
        return table

    def plain(self, l: int, lam: int) -> np.ndarray:
        """The plain kernel, indexed ``[mu + lam, mt + l]``: its ``(+)``
        coefficient on order ``l + lam + 1``."""
        return self._padded(l, lam)[2:-2]

    def block(self, p, q, lp: int, l: int):
        """``(s, coef)`` for rows of family ``p``, degree ``lp`` and columns
        of family ``q``, degree ``l``: ``coef[mp + lp, m + l]`` holds the
        coefficients ``[c(s,-), c(s,+), c(s+2,-), c(s+2,+)]`` of entry
        ``(mp, m)``."""
        s = l + lp + _ORDER_OFFSET[p, q]
        phase, terms = _terms(p, q, lp, l, self.rho, self.params)
        kernel = np.zeros((2, 2 * lp + 1, 2 * l + 1))
        for order, lam, qq, weights in terms:
            if order - s not in (0, 2):
                raise RuntimeError(
                    f"({p.name},{q.name}) term of degrees ({lp}, {l}) on order "
                    f"{order}, outside the two orders {s} and {s + 2}")
            start = lam + 2 - lp - qq   # rows mu - qq for mu = -lp..lp
            rows = self._padded(l, lam)[start:start + 2 * lp + 1]
            kernel[(order - s) // 2] += weights[:, None] * rows
        real = _real_orders(_real_orders(kernel).swapaxes(1, 2), row=True)
        plus = phase * (real.swapaxes(1, 2) / _unitary_scale(lp, l))
        minus = (-1.0) ** (s + 1) * plus
        return s, np.stack([minus[0], plus[0], minus[1], plus[1]], axis=-1)


def _label_indices(basis: BasisMap) -> dict:
    """Basis positions of each (degree, family), over ``m = -l..l``."""
    ids = {}
    for i, (l, m, fam) in enumerate(basis.labels):
        ids.setdefault((l, fam), []).append(i)
    return {key: np.array(val) for key, val in ids.items()}


def _unrestricted(l_max: int, rho, params: LameParams):
    """``(order, coef)`` of every label pair of ``BasisMap(l_max)``, read
    from the full degree-pair blocks with no sector rule and no mirror:
    shapes ``(n, n)`` and ``(n, n, 4)``, zero where the family pair has no
    lattice part."""
    basis = BasisMap(l_max)
    n = basis.n_eff
    ids = _label_indices(basis)
    blocks = _DegreeBlocks(rho, params, l_max)
    order = np.zeros((n, n), dtype=int)
    coef = np.zeros((n, n, 4), dtype=complex)
    for (lp, p), rows in ids.items():
        for (l, q), cols in ids.items():
            if (p, q) in _STORED:
                s, block = blocks.block(p, q, lp, l)
                order[np.ix_(rows, cols)] = s
                coef[np.ix_(rows, cols)] = block
    return order, coef


def _single_order(s: int, plus) -> np.ndarray:
    """The four coefficients of a kernel with ``(+)`` coefficient ``plus``
    on order ``s`` alone; ``c(s,-) = (-1)^(s+1) c(s,+)``."""
    return np.array([(-1) ** (s + 1) * plus, plus, 0.0, 0.0], dtype=complex)


def _product(a, b):
    """``a * b`` elementwise in real arithmetic: a vectorised complex
    product may fuse its multiply-adds differently in its tail, which would
    make an entry's value depend on its position in the array."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _contract(order, coef, values):
    """Each entry's coefficients dotted with the slots of its two orders,
    gathered from ``values``, one ``(s, -)``/``(s, +)`` pair at a time: an
    entry comes out bit-identical whichever entries are contracted with it,
    and a mirrored entry contracted with mirrored values exactly the
    conjugate."""
    pairs = [
        _product(coef[:, k], values[slot(s, -1)])
        + _product(coef[:, k + 1], values[slot(s, 1)])
        for k, s in ((0, order), (2, order + 2))
    ]
    return pairs[0] + pairs[1]


def _check_labels(p, lp, mp, q, l, m):
    for fam, deg, order in ((p, lp, mp), (q, l, m)):
        fam = Family(fam)
        if deg < 0 or abs(order) > deg:
            raise IndexError(f"invalid label (l={deg}, m={order})")
        if deg == 0 and fam != Family.V:
            raise ForbiddenIndexError(
                f"{fam.name}(0,0) is excluded from the basis"
            )


def per_copy_entries(p, lp, mp, q, l, m, shifts, rho, params: LameParams):
    """Inner products against one shifted copy, vectorised over the signed
    shift lengths; values are real up to roundoff but returned complex."""
    _check_labels(p, lp, mp, q, l, m)
    x = np.atleast_1d(np.asarray(shifts, dtype=float))
    if np.any(x == 0.0):
        raise ValueError("shift lengths must be nonzero")
    pair = Family(p), Family(q)
    if pair not in _ORDER_OFFSET:
        return np.zeros(x.shape, dtype=complex)
    s, coef = _DegreeBlocks(rho, params, max(l, lp)).block(*pair, lp, l)
    return _per_copy_values(s, coef[mp + lp, m + l], x)


def _per_copy_values(s, coef, x):
    """One entry at the signed shift lengths ``x`` from its coefficients:
    the ``(-)`` slots at ``x > 0``, the ``(+)`` slots at ``x < 0``, times
    numpy's power of ``|x|`` (as in ``sphharm.solid_irregular``)."""
    side = (x < 0).astype(int)
    dist = np.abs(x)
    return coef[side] * dist ** -s + coef[side + 2] * dist ** (-s - 2)


def per_copy_entry(p, lp, mp, q, l, m, n, rho, params: LameParams) -> float:
    """Single-copy inner product at shift ``(n, 0, 0)``, ``n != 0``.

    The result is mathematically real; the imaginary roundoff residue is
    asserted below 1e-12.
    """
    val = complex(per_copy_entries(p, lp, mp, q, l, m, [n], rho, params)[0])
    if abs(val.imag) > 1e-12 * max(1.0, abs(val.real)):
        raise AssertionError(
            f"per-copy value unexpectedly complex: {val!r}"
        )
    return val.real


def _diagonal_term(p, q, l, lp, m, mp, rho, params):
    if p != q or l != lp or m != mp:
        return 0.0
    a11, a12, a22, a33 = response_coeffs(l, params)
    tau = {Family.V: a11, Family.W: a22, Family.X: a33}[Family(p)]
    return rho * tau * norm_factor(p, l)


def sector(l: int, m: int, family) -> int:
    """Parity sector ``0..3`` of a basis label under the reflections
    ``z -> -z`` and ``y -> -y`` of a chain on the x-axis.  For V and W the
    z-parity is ``(l + m) % 2`` and the y-parity ``m < 0``; X flips both.
    Entries between labels of different sectors vanish."""
    flip = int(Family(family) == Family.X)
    return 2 * ((l + m) % 2 ^ flip) + ((m < 0) ^ flip)


def _entry_lattice(p, lp, mp, q, l, m, rho, params, values) -> complex:
    """Lattice part of one entry, from the block ``Trace`` reads it from:
    zero across sectors and without a lattice part, the mirror of the
    transposed entry when the row label comes after the column label in
    basis order; ``values(s_max)`` returns the value vector."""
    _check_labels(p, lp, mp, q, l, m)
    row, col = (lp, mp, Family(p)), (l, m, Family(q))
    if sector(*row) != sector(*col) or (row[2], col[2]) not in _STORED:
        return 0.0 + 0.0j
    mirrored = row > col
    if mirrored:
        row, col = col, row
    (lp, mp, p), (l, m, q) = row, col
    s, block = _DegreeBlocks(rho, params, l).block(p, q, lp, l)
    coef = block[mp + lp, m + l]
    if mirrored:
        coef = _mirror(coef)
    return complex(_contract(np.array([s]), coef[None], values(l + lp + 3))[0])


def entry_single(
    p, lp, mp, q, l, m, alpha, rho, params: LameParams, cache=None
) -> complex:
    """One entry of the quasi-periodic operator matrix: the on-ball
    diagonal plus the phased sum over all other copies in closed form."""
    if cache is None:
        cache = LatticeSumCache(alpha)
    lattice = _entry_lattice(
        p, lp, mp, q, l, m, rho, params,
        lambda s_max: line_values(cache, s_max),
    )
    return complex(lattice + _diagonal_term(p, q, l, lp, m, mp, rho, params))


def entry_dimer(
    block, p, lp, mp, q, l, m, alpha, geom: DimerGeometry,
    params: LameParams, cache=None,
) -> complex:
    """One coupling-block entry (source ball ``s`` onto target ``t`` for
    block = "st"): the phased sum over the half-offset lattice, including
    the in-cell copy, with no on-ball diagonal."""
    if cache is None:
        cache = LatticeSumCache(alpha, geom)
    elif cache.geom != geom:
        raise ValueError("cache belongs to a different dimer geometry")
    return complex(_entry_lattice(
        p, lp, mp, q, l, m, geom.rho, params,
        lambda s_max: dimer_values(cache, s_max, block),
    ))


class Trace:
    """Phase-independent part of ``M(alpha) = D + T v(alpha)`` for one ball
    radius, material and truncation degree.

    ``diag`` is the on-ball diagonal ``D``; ``index`` holds the row-major
    flat positions of the in-sector entries whose lattice part does not
    vanish identically, ``order`` the lowest order of each and ``coef`` its
    four coefficients ``[c(s,-), c(s,+), c(s+2,-), c(s+2,+)]`` (module
    docstring).  The blocks are built for ``lp <= l`` and only their
    entries on or above the diagonal are kept; those below are mirrored.
    """

    def __init__(self, rho, params: LameParams, l_max: int):
        if not 0.0 < rho < 0.5:
            raise ValueError("need 0 < rho < 1/2")
        self.rho, self.params, self.l_max = rho, params, l_max
        self.basis = BasisMap(l_max)
        self.s_max = 2 * l_max + 3
        n = self.basis.n_eff
        ids = _label_indices(self.basis)
        secs = np.array([sector(*label) for label in self.basis.labels])
        blocks = _DegreeBlocks(rho, params, l_max)
        index = [np.zeros(0, dtype=np.intp)]
        order = [np.zeros(0, dtype=np.intp)]
        coef = [np.zeros((0, 4), dtype=complex)]
        for l in range(l_max + 1):
            for lp in range(l + 1):
                for p, q in _STORED:
                    rows, cols = ids.get((lp, p)), ids.get((l, q))
                    if rows is None or cols is None:
                        continue
                    keep = (rows[:, None] <= cols) & (secs[rows][:, None] == secs[cols])
                    s, block = blocks.block(p, q, lp, l)
                    r, c = np.nonzero(keep & block.any(axis=-1))
                    index.append(rows[r] * n + cols[c])
                    order.append(np.full(len(r), s, dtype=np.intp))
                    coef.append(block[r, c])
        index, order, coef = map(np.concatenate, (index, order, coef))
        row, col = np.divmod(index, n)
        below = row != col
        self.index = np.concatenate([index, col[below] * n + row[below]])
        self.order = np.concatenate([order, order[below]])
        self.coef = np.concatenate([coef, _mirror(coef[below])])
        self.diag = np.array([
            _diagonal_term(p, p, l, l, m, m, rho, params) for l, m, p in self.basis
        ])

    def _block(self, values, with_diag: bool) -> np.ndarray:
        n = self.basis.n_eff
        out = np.zeros(n * n, dtype=complex)
        out[self.index] = _contract(self.order, self.coef, values)
        out = out.reshape(n, n)
        if with_diag:
            out[np.diag_indices(n)] += self.diag
        return out

    def single(self, alpha) -> AssembledMatrix:
        """The single-ball matrix at Bloch phase ``alpha``."""
        cache = LatticeSumCache(alpha)
        return AssembledMatrix(
            matrix=self._block(line_values(cache, self.s_max), True),
            basis=self.basis, alpha=cache.alpha, rho=self.rho,
            params=self.params, l_max=self.l_max,
        )

    def dimer(self, alpha, geom: DimerGeometry) -> AssembledMatrix:
        """The two-ball block matrix ``[[M11, M21], [M12, M22]]``.

        The self blocks are the single-ball matrix; the coupling blocks sum
        the shifted copies of the other ball (block "st" maps the density
        on ball s to values on ball t).
        """
        if geom.rho != self.rho:
            raise ValueError("dimer radius differs from the trace radius")
        cache = LatticeSumCache(alpha, geom)
        n = self.basis.n_eff
        self_block = self._block(line_values(cache, self.s_max), True)
        big = np.zeros((2 * n, 2 * n), dtype=complex)
        big[:n, :n] = self_block
        big[:n, n:] = self._block(dimer_values(cache, self.s_max, "21"), False)
        big[n:, :n] = self._block(dimer_values(cache, self.s_max, "12"), False)
        big[n:, n:] = self_block
        return AssembledMatrix(
            matrix=big, basis=self.basis, alpha=cache.alpha, rho=self.rho,
            params=self.params, l_max=self.l_max, dimer=geom,
        )


def assemble_single(alpha, rho, params: LameParams, l_max: int) -> AssembledMatrix:
    """Assemble the full single-ball operator matrix at one Bloch phase."""
    reduce_alpha(alpha)  # a singular phase fails before the trace is built
    return Trace(rho, params, l_max).single(alpha)


def assemble_dimer(
    alpha, geom: DimerGeometry, params: LameParams, l_max: int
) -> AssembledMatrix:
    """Assemble the two-ball block matrix at one Bloch phase (see
    ``Trace.dimer``)."""
    reduce_alpha(alpha)  # a singular phase fails before the trace is built
    return Trace(geom.rho, params, l_max).dimer(alpha, geom)
