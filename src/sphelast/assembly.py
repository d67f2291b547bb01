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
``translation.decay_prefactors`` and rows of the recoupling, radial
(Clebsch-Gordan) and cross weight tables of ``translation`` (``_rows``), the
closed spin-1 forms that the re-expansion series use too, and then turns it
into the block of every real order pair ``(mp, m)`` with the per-degree
complex-to-real unitaries on both sides (the weights of
``translation.combine_source``/``combine_row``; Blanco, Florez & Bermejo,
J. Mol. Struct. THEOCHEM 419:19 (1997)).  The Python loop
runs over degree pairs, not entries.  ``Trace``, ``entry_single``,
``entry_dimer`` and ``per_copy_entries`` all read the same blocks.

Geometry and scale: the radius and the material enter a coefficient on
order ``s`` only as ``rho^(s+1)`` times the ``response_coeffs`` of the
column degree, ``a11`` (V columns), ``a33`` (X) or ``a12`` and ``a22``
(W).  So the blocks are built on the unit ball, once per response
coefficient (``_terms`` with a factor axis): this geometry depends on
``l_max`` alone and is cached, read-only, for the most recent ``l_max``
(``_geometry``).  Each radius and material only scales it (``_scale``,
``_scaled``); values beyond the float64 range raise ``ScaleOverflow``.

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
from .translation import (
    _PAD,
    _cross_table,
    _radial_table,
    _recoupling_table,
    decay_prefactors,
)
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
    "ScaleOverflow",
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
    out = np.asarray(values)
    out.flags.writeable = False
    return out


def _rows(table, lp: int, lam: int, qq: int) -> np.ndarray:
    """Row weights over ``mu = -lp..lp`` of a term at ``(lam, mu - qq)``:
    ``table[qq + 1, mu - qq + lam + _PAD]``, from a translation weight table
    (zero where ``|mu - qq| > lam``), times ``-AXIS_COMPONENT[qq]``, the
    factor with which the axis and cross kernels enter their ``(+)`` slot
    (the shift is odd there; ``qq = 0`` has no axis component, so only
    ``qq = +-1`` occurs)."""
    start = lam + _PAD - lp - qq
    return -AXIS_COMPONENT[qq] * table[qq + 1, start:start + 2 * lp + 1]


def _terms(p, q, lp, l, coeffs):
    """The combination of one family pair on the unit ball: ``(phase,
    terms)`` with terms ``(order, lam, qq, weights)``, each adding
    ``weights[..., mu]`` times the plain kernel of degree ``l + lam`` at
    ``(mu - qq, mt)`` to the block of ``order``; the block is ``phase``
    times their sum.  ``coeffs`` are the column degree's ``(a11, a12, a22,
    a33)`` of ``response_coeffs``, as scalars or as arrays over a factor
    axis (shape ``(F, 1)``).  On a ball of radius ``rho`` every term of
    order ``o`` takes the factor ``rho^(o + 1)``."""
    a11, a12, a22, a33 = coeffs
    one = np.ones(2 * lp + 1)
    if (p, q) == (W, V):
        return 1.0, [(l + lp + 1, lp, 0, a11 * (norm_factor(W, lp) * one))]
    if (p, q) in ((W, X), (X, X), (V, X)):
        if p == X:
            n3 = norm_factor(X, lp)
            # -1j times the cross kernels' 1j: the block is real
            terms = [(l + lp + 1, lp, 0, a33 * (n3 * one))]
            root, lam, phase = math.sqrt(n3), lp + 1, 1.0
        elif p == W:
            root, lam, phase = math.sqrt(norm_factor(W, lp)), lp, 1j
            terms = []
        else:
            root, lam, phase = math.sqrt(norm_factor(V, lp)), lp + 2, 1j
            terms = []
        cross = _cross_table(lam)[:, lp - lam + 2]   # total degree lp
        return phase, terms + [
            (l + lam, lam, qq, a33 * (root * _rows(cross, lp, lam, qq))) for qq in (-1, 1)]
    # q == W: the axis kernels recoupled to the row's vector harmonic
    side = a22 - a12
    if p == V:
        root = math.sqrt(norm_factor(V, lp))
        k, lams, phase = lp + 1, (lp + 1, lp + 3), 1.0
        terms = [(l + lp + 1, lp, 0, a22 * (-(2 * l + 1) * (lp + 1) * one))]
    elif p == X:
        root = math.sqrt(norm_factor(X, lp))
        k, lams, phase = lp, (lp, lp + 2), -1j
        terms = []
    else:
        n2 = norm_factor(W, lp)
        root = math.sqrt(n2)
        k, lams, phase = lp - 1, (lp - 1, lp + 1), 1.0
        bracket = a12 + side + a22 * (2 * l + 1) / (2 * lp + 1)
        terms = [
            (l + lp + 1, lp, 0, bracket * (n2 * one)),
            (l + lp - 1, lp, 0, side * (n2 * one)),
        ]
    # the axis kernels recoupled to orbital degree k and total degree lp,
    # and the axis kernel at (k, mu - qq) coupled with the axis component
    for lam in lams:
        if lam >= 1:
            axis = _recoupling_table(lam)[1][:, (lam - k) // 2, lp - k + 1]
            terms += [(l + lam, lam, qq, side * (2.0 * root * _rows(axis, lp, lam, qq)))
                      for qq in (-1, 1)]
    radial = _radial_table(k)[:, lp - k + 1]
    terms += [(l + k, k, qq, a22 * ((2 * l + 1) * root * _rows(radial, lp, k, qq)))
              for qq in (-1, 1)]
    return phase, terms


# The response coefficients a column family brings, as positions in
# response_coeffs' (a11, a12, a22, a33); the first is also the family's
# on-ball diagonal.  An entry stores two factors: V and X columns repeat
# their one, with zero weights.
_FACTORS = {V: (0,), W: (2, 1), X: (3,)}
# the factors as unit response coefficients, the arguments of _terms
_UNIT = {fam: tuple(np.eye(4)[:, f, None]) for fam, f in _FACTORS.items()}


def _label_columns(l: int, family):
    """``(factors, norm)`` of the column label ``(l, family)``: the flat
    positions of its two factors in the ``(l_max + 1, 4)`` response table
    and its squared basis norm."""
    return 4 * l + np.array((_FACTORS[family] * 2)[:2]), float(norm_factor(family, l))


class ScaleOverflow(ValueError):
    """Response coefficients or an on-ball diagonal beyond the float64
    range (extreme material constants or radius)."""


def _scale(rho, params: LameParams, l_max: int, factors, norm):
    """The factors of one radius and material: each column's two response
    coefficients ``table[factors]`` (``_label_columns``), its on-ball
    diagonal ``rho a norm`` (``a`` the first factor) and the powers
    ``rho^k`` for ``k = 0..2 l_max + 5``."""
    message = "the response coefficients of this material are not finite"
    try:
        table = np.array([response_coeffs(l, params) for l in range(l_max + 1)])
    except (ZeroDivisionError, OverflowError) as exc:   # a product underflowed to 0
        raise ScaleOverflow(message) from exc
    if not np.isfinite(table).all():
        raise ScaleOverflow(message)
    fac = table.ravel()[factors]
    diag = rho * fac[..., 0] * norm
    if not np.all(np.isfinite(diag) & (np.abs(diag) >= np.finfo(float).tiny)):
        raise ScaleOverflow(
            "the on-ball diagonal of this radius and material is not a finite normal float")
    return fac, diag, np.array([rho**k for k in range(2 * l_max + 6)])


def _scaled(order, weights, fac, powers, out=None):
    """The coefficients ``[c(s,-), c(s,+), c(s+2,-), c(s+2,+)]`` (last axis)
    of entries of lowest order ``order``, geometric weights ``weights[...,
    f, k]`` (``_DegreeBlocks.block``) and real factors ``fac[..., f]``:
    ``c(s + 2k, +) = rho^(s + 2k + 1) sum_f fac[f] weights[f, k]`` and
    ``c(s,-) = (-1)^(s+1) c(s,+)``; written into ``out`` when given.  The
    factors are real, so each complex product is exact whether fused or
    not, and an entry's coefficients do not depend on what it is computed
    with."""
    order = np.asarray(order)
    value = powers[order[..., None] + (1, 3)] * (
        fac[..., :1] * weights[..., 0, :] + fac[..., 1:] * weights[..., 1, :])
    if out is None:
        out = np.empty(value.shape[:-1] + (4,), dtype=complex)
    np.multiply(np.where(order % 2 == 0, -1.0, 1.0)[..., None], value, out=out[..., 0::2])
    out[..., 1::2] = value
    return out


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


def _mirror(coef, out=None):
    """Coefficients (the last axis) of the transposed entries: each
    ``(s, -)``/``(s, +)`` pair swapped, then conjugated; written into
    ``out`` when given."""
    pairs = coef.reshape(*coef.shape[:-1], coef.shape[-1] // 2, 2)[..., ::-1]
    if out is None:
        out = np.empty(coef.shape, dtype=complex)
    np.conjugate(pairs, out=out.reshape(pairs.shape))
    return out


class _DegreeBlocks:
    """Geometric lattice coefficients, one family pair and degree pair at a
    time, for degrees up to ``l_max``: those of the unit ball per unit
    response coefficient, which no radius or material enters (``_scaled``
    applies them)."""

    def __init__(self, l_max: int):
        self._top = 2 * l_max + 3   # the highest kernel degree l + lam
        self._equator = equator_table(self._top)
        self._racah = np.sqrt(4.0 * math.pi / (2 * np.arange(self._top + 1) + 1))
        self._plain = {}

    def plain(self, l: int, lam: int) -> np.ndarray:
        """The plain kernel ``decay_prefactor(l, lam, mt, mu)`` times the
        Racah-normalised ``Y_{l+lam}^{mt-mu}(pi/2, 0)``, indexed ``[mu +
        lam, mt + l]``: its ``(+)`` coefficient on order ``l + lam + 1``.
        The factors are multiplied in ``translation.decay_coeff``'s order,
        so one kernel at one shift rounds exactly as that coefficient."""
        t = np.arange(-l, l + 1) - np.arange(-lam, lam + 1)[:, None]
        return (decay_prefactors(l, lam) * self._racah[l + lam]
                * self._equator[l + lam, t + self._top])

    def _padded(self, l: int, lam: int) -> np.ndarray:
        """``plain`` with the real change of the column order
        (``_real_orders``), indexed ``[mu + lam + 2, m + l]``: two zero rows
        on each side."""
        table = self._plain.get((l, lam))
        if table is None:
            table = np.zeros((2 * lam + 5, 2 * l + 1), dtype=complex)
            table[2:-2] = _real_orders(self.plain(l, lam))   # np.pad: 30 us of overhead a call
            self._plain[l, lam] = table
        return table

    def block(self, p, q, lp: int, l: int):
        """``(s, weights)`` for rows of family ``p``, degree ``lp`` and
        columns of family ``q``, degree ``l``: ``weights[mp + lp, m + l, f,
        k]`` is the ``(+)`` coefficient of entry ``(mp, m)`` on order ``s +
        2k`` per unit of its ``f``-th response coefficient (``_FACTORS``)."""
        s = l + lp + _ORDER_OFFSET[p, q]
        factors = len(_FACTORS[q])
        phase, terms = _terms(p, q, lp, l, _UNIT[q])
        kernel = np.zeros((2, factors, 2 * lp + 1, 2 * l + 1), dtype=complex)
        for order, lam, qq, weights in terms:
            if order - s not in (0, 2):
                raise RuntimeError(
                    f"({p.name},{q.name}) term of degrees ({lp}, {l}) on order "
                    f"{order}, outside the two orders {s} and {s + 2}")
            start = lam + 2 - lp - qq   # rows mu - qq for mu = -lp..lp
            rows = self._padded(l, lam)[start:start + 2 * lp + 1]
            kernel[(order - s) // 2] += weights[..., None] * rows
        real = _real_orders(kernel.swapaxes(-1, -2), row=True).swapaxes(-1, -2)
        weights = np.zeros((2 * lp + 1, 2 * l + 1, 2, 2), dtype=complex)
        weights[:, :, :factors] = (
            phase * (real / _unitary_scale(lp, l))).transpose(2, 3, 1, 0)
        return s, weights


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
    blocks = _DegreeBlocks(l_max)
    order = np.zeros((n, n), dtype=int)
    coef = np.zeros((n, n, 4), dtype=complex)
    for (lp, p), rows in ids.items():
        for (l, q), cols in ids.items():
            if (p, q) in _STORED:
                s, weights = blocks.block(p, q, lp, l)
                fac, _diag, powers = _scale(rho, params, l_max, *_label_columns(l, q))
                order[np.ix_(rows, cols)] = s
                coef[np.ix_(rows, cols)] = _scaled(s, weights, fac, powers)
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
    p, q = Family(p), Family(q)
    if (p, q) not in _ORDER_OFFSET:
        return np.zeros(x.shape, dtype=complex)
    return _per_copy_values(*_entry_coef(p, lp, mp, q, l, m, rho, params), x)


def _entry_coef(p, lp, mp, q, l, m, rho, params):
    """``(s, coef)`` of one entry, from its degree-pair block and the
    factors of its column: the same values as the entry in ``Trace``."""
    l_max = max(l, lp)
    s, weights = _DegreeBlocks(l_max).block(p, q, lp, l)
    fac, _diag, powers = _scale(rho, params, l_max, *_label_columns(l, q))
    return s, _scaled(s, weights[mp + lp, m + l], fac, powers)


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
    return float(_scale(rho, params, l, *_label_columns(l, Family(p)))[1])


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
    s, coef = _entry_coef(p, lp, mp, q, l, m, rho, params)
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


@dataclass(frozen=True, eq=False)
class _Geometry:
    """The part of ``Trace`` that depends on ``l_max`` alone, read-only:
    ``basis``, ``index`` and ``order`` as in ``Trace``; ``weights``
    (``_DegreeBlocks.block``) of the built triangle, which the
    first ``len(weights)`` entries of ``index`` hold; ``below``, the built
    entries mirrored into the rest, in order; and for each basis label its
    ``factors`` and ``norm`` (``_label_columns``)."""

    basis: BasisMap
    index: np.ndarray
    order: np.ndarray
    weights: np.ndarray
    below: np.ndarray
    factors: np.ndarray
    norm: np.ndarray


@lru_cache(maxsize=1)
def _geometry(l_max: int) -> _Geometry:
    """The geometry of ``l_max``; only the most recent ``l_max`` is kept."""
    basis = BasisMap(l_max)
    n = basis.n_eff
    ids = _label_indices(basis)
    secs = np.array([sector(*label) for label in basis.labels])
    pairs = []   # the label pairs of each block on or above the diagonal, in-sector
    for l in range(l_max + 1):
        for lp in range(l + 1):
            for p, q in _STORED:
                rows, cols = ids.get((lp, p)), ids.get((l, q))
                if rows is not None and cols is not None:
                    keep = (rows[:, None] <= cols) & (secs[rows][:, None] == secs[cols])
                    pairs.append((p, q, lp, l, rows, cols, keep))
    # filled in place: at most every pair, and the mirror of each
    bound = sum(int(keep.sum()) for *_, keep in pairs)
    index, order = np.empty(2 * bound, dtype=np.intp), np.empty(2 * bound, dtype=np.intp)
    weights = np.empty((bound, 2, 2), dtype=complex)
    built = 0
    blocks = _DegreeBlocks(l_max)
    for p, q, lp, l, rows, cols, keep in pairs:
        s, block = blocks.block(p, q, lp, l)
        r, c = np.nonzero(keep & block.any(axis=(-2, -1)))
        end = built + len(r)
        index[built:end] = rows[r] * n + cols[c]
        order[built:end] = s
        weights[built:end] = block[r, c]
        built = end
    row, col = np.divmod(index[:built], n)
    below = row != col
    total = built + np.count_nonzero(below)
    index[built:total] = (col * n + row)[below]
    order[built:total] = order[:built][below]
    factors, norm = zip(*(_label_columns(l, fam) for l, _m, fam in basis))
    return _Geometry(
        basis=basis, index=_frozen(index[:total]), order=_frozen(order[:total]),
        weights=_frozen(weights[:built]),
        below=_frozen(below), factors=_frozen(factors), norm=_frozen(norm),
    )


class Trace:
    """Phase-independent part of ``M(alpha) = D + T v(alpha)`` for one ball
    radius, material and truncation degree.

    ``diag`` is the on-ball diagonal ``D``; ``index`` holds the row-major
    flat positions of the in-sector entries whose lattice part does not
    vanish identically, ``order`` the lowest order of each and ``coef`` its
    four coefficients ``[c(s,-), c(s,+), c(s+2,-), c(s+2,+)]`` (module
    docstring).  The blocks are built for ``lp <= l`` and only their
    entries on or above the diagonal are kept; those below are mirrored.

    ``basis``, ``index`` and ``order`` are the read-only geometry of
    ``l_max``, shared by every trace of that ``l_max`` (unless the material
    cancels some entries); ``coef`` and ``diag`` are its per-radius,
    per-material scale (``_scale``, ``_scaled``), which raises
    ``ScaleOverflow`` where they leave the float64 range.
    """

    def __init__(self, rho, params: LameParams, l_max: int):
        if not 0.0 < rho < 0.5:
            raise ValueError("need 0 < rho < 1/2")
        geo = _geometry(l_max)
        self.rho, self.params, self.l_max = rho, params, l_max
        self.basis, self.index, self.order = geo.basis, geo.index, geo.order
        self.s_max = 2 * l_max + 3
        fac, self.diag, powers = _scale(rho, params, l_max, geo.factors, geo.norm)
        built = len(geo.weights)
        self.coef = np.empty((len(self.index), 4), dtype=complex)
        _scaled(self.order[:built], geo.weights,
                fac[self.index[:built] % self.basis.n_eff], powers, self.coef[:built])
        _mirror(self.coef[:built][geo.below], self.coef[built:])
        kept = self.coef[:built, 1::2].any(axis=1)   # c(s,-) = +-c(s,+)
        if not kept.all():
            # a12 = a22 at some degree (l = 3 when lam = mu) cancels the
            # entries that only the difference a22 - a12 reaches
            stored = np.concatenate([kept, kept[geo.below]])
            self.index, self.order = self.index[stored], self.order[stored]
            self.coef = self.coef[stored]

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
