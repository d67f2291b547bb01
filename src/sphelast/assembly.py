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
``Trace.single``/``dimer`` hand the phase to those functions as given and
keep no value between phases.

Degree-pair blocks: ``_DegreeBlocks.blocks`` builds, for one family pair,
the kernel block ``K[mu, mt]`` of every complex order pair of many degree
pairs ``(lp, l)`` at once, in a few array passes over padded arrays indexed
``[pair, mu, mt]``.  The terms of a family pair (``_terms``) are weight
rows over ``(pair, mu)`` times slices of one table of plain kernels over
``(l, lam)`` (the prefactors of ``coupling._prefactor_grid`` times the
equator table), with the weights read from the recoupling, radial
(Clebsch-Gordan) and cross tables of ``coupling._WeightTables``, built over
a ``lam`` axis from the closed spin-1 forms, which the re-expansion series
of ``translation`` read too.  The per-degree complex-to-real unitaries on
both sides (the weights of ``translation.combine_source``/``combine_row``;
Blanco, Florez & Bermejo, J. Mol. Struct. THEOCHEM 419:19 (1997)) then give
the block of every real order pair ``(mp, m)``.  ``_geometry`` groups the
degree pairs in tiles of two degree bands (``_bands``), so that the padded
arrays stay below a fixed size at any ``l_max``; at ``l_max <= 9`` one tile
holds them all.  ``Trace``, ``per_copy_entries`` and ``_unrestricted`` read
the same blocks through ``blocks``; single entries are read off the
assembled matrices.

Geometry and scale: the radius and the material enter a coefficient on
order ``s`` only as ``rho^(s+1)`` times the ``response_coeffs`` of the
column degree, ``a11`` (V columns), ``a33`` (X) or ``a12`` and ``a22``
(W).  So the blocks are built on the unit ball, once per response
coefficient (the ``factors`` of ``_terms``): this geometry depends on
``l_max`` alone and is cached, read-only, for the most recent ``l_max``
(``_geometry``).  Each radius and material only scales it (``_scale``,
``_scaled``); values beyond the float64 range raise ``ScaleOverflow``.

Two orders per entry: the lattice part of an entry of degrees ``(lp, l)``
lives on the orders ``l + lp + b`` and ``l + lp + b + 2``, with ``b`` fixed
by the family pair (row, column):

    (V,W), (W,V)   b = 1        (W,X), (X,W)   b = 0
    (W,W)          b = -1       (X,X)          b = 1 (the higher order is 0)

and a term on any other order stops the builder.  One copy at shift ``x``
contributes ``sum_s c(s,-) x^-s`` for ``x > 0`` and ``sum_s c(s,+)
|x|^-s`` for ``x < 0`` (``per_copy_entries``); summed with the phase, the
copies at positive shifts give ``Li_s(e^{-i alpha})`` and those at
negative shifts ``Li_s(e^{i alpha})``.  The reflection ``x -> -x`` gives
``c(s,-) = (-1)^(s+1) c(s,+)``, and the coefficients of the in-sector
entries (below) are real.  So each entry is stored as its lowest order
``s`` and two real coefficients ``[c(s,+), c(s+2,+)]``, contracted with
one complex value per order, ``u[s - 1] = Li_s(e^{i alpha}) +
(-1)^(s+1) Li_s(e^{-i alpha})`` (``latsum.line_values``; the Lerch values
of ``dimer_values`` alike).

Structural zeros: a V-family density produces a pure W-family potential
off its own ball, so the (V,V) off-diagonal, (X,V) and (V,X) entries
vanish; ``per_copy_entries`` still evaluates the printed (V,X) combination
(orders ``l + lp + 2``) so its numerical vanishing can be tested.  Beyond
those, a chain on the x-axis (and the dimer at ``(+-d, 0, 0)``) is
symmetric under ``z -> -z`` and ``y -> -y``, so ``M`` splits into four
parity sectors (``sector``): entries whose row and column labels lie in
different sectors are zero, and an assembled matrix holds only its blocks
on the sectors (``sectors``).

Mirrored triangle: ``M`` is Hermitian for every phase, and ``conj u[s -
1] = (-1)^(s+1) u[s - 1]``; since the ``Li_s`` are linearly independent,
the coefficients of entry ``(j, i)`` are ``(-1)^(s+1)`` times those of
``(i, j)`` (``_mirror``), so its value is the conjugate of the value of
``(i, j)``.  Only the blocks with ``lp <= l`` are built, only their entries
on or above the diagonal are stored, and a phase writes the conjugates of
their contracted values below the diagonal (``Trace._fill``).  The Lerch
values of the dimer blocks "21" and "12" are mirrors of each other (``u12
= (-1)^(s+1) conj u21``), so the lower triangle of each coupling block is
the conjugate of the other's upper triangle.

Basis ordering: degree ascending, order ``-l..l`` ascending, family V,W,X
innermost, with the two identically-zero degree-0 labels removed, giving
``3 (L+1)^2 - 2`` basis elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import __version__ as _pkg_version
from .coupling import _prefactor_grid, _weight_tables
from .kelvin import LameParams, norm_factor, response_coeffs
from .latsum import AXIS_COMPONENT, DimerGeometry, dimer_values, line_values, reduce_alpha
from .sphharm import equator_table
from .vsh import Family, ForbiddenIndexError

__all__ = [
    "BASIS_VERSION",
    "BasisMap",
    "AssembledMatrix",
    "per_copy_entries",
    "assemble_single",
    "assemble_dimer",
    "Trace",
    "ScaleOverflow",
    "sector",
    "sectors",
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

    @property
    def n_eff(self) -> int:
        return len(self.labels)

    @staticmethod
    def positions(l, m, family):
        """Positions of the labels ``(l, m, family)`` in ``labels``,
        broadcast over integer arrays ``l`` and ``m``: the ``3 l^2 - 2``
        labels of the degrees below ``l >= 1`` (one at degree 0), then
        three families an order.  No range check (``index_of`` has one)."""
        return 3 * l * l - 2 + 2 * (l == 0) + 3 * (m + l) + (Family(family) - 1)

    def index_of(self, l: int, m: int, family) -> int:
        family = Family(family)
        if l == 0 and family != Family.V:
            raise ForbiddenIndexError(
                f"{family.name}(0,0) is excluded from the basis"
            )
        if not (0 <= l <= self.l_max and -l <= m <= l):
            raise IndexError(f"label (l={l}, m={m}, {family.name}) "
                             f"outside basis with L_max={self.l_max}")
        return int(self.positions(l, m, family))

    def __iter__(self):
        return iter(self.labels)

    def __len__(self):
        return len(self.labels)


@dataclass
class AssembledMatrix:
    """Operator matrix as its parity-sector blocks, with the inputs that
    produced it: ``blocks[k]`` is the block on the rows and columns
    ``rows[k]``, and every other entry is zero.  ``matrix`` scatters the
    blocks into the dense array; ``from_matrix`` gathers them from one."""

    blocks: list
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

    @property
    def size(self) -> int:
        """The number of rows: ``n``, or ``2 n`` for the dimer."""
        return self.basis.n_eff * (1 if self.dimer is None else 2)

    @property
    def rows(self) -> list:
        """The positions of ``sectors(l_max)``, for the dimer each followed by
        the same on ball 2: block ``k`` is ``[[A_k, C21_k], [C12_k, A_k]]``."""
        return [g if self.dimer is None else np.concatenate([g, g + self.basis.n_eff])
                for g in sectors(self.l_max)]

    @cached_property
    def matrix(self) -> np.ndarray:
        out = np.zeros((self.size, self.size), dtype=complex)
        for block, rows in zip(self.blocks, self.rows):
            out[np.ix_(rows, rows)] = block
        return out

    @classmethod
    def from_matrix(cls, matrix, **inputs) -> AssembledMatrix:
        """Gather the blocks of a dense ``matrix`` (other fields as keywords);
        ``ValueError`` for a shape other than the basis's or an entry across sectors."""
        out, matrix = cls(blocks=[], **inputs), np.asarray(matrix)
        if matrix.shape != (out.size, out.size):
            raise ValueError(f"a matrix of shape {matrix.shape}, where lmax {out.l_max} and "
                             f"d = {out.dimer and out.dimer.d} give {out.size} x {out.size}")
        out.blocks = [matrix[np.ix_(rows, rows)] for rows in out.rows]
        if sum(map(np.count_nonzero, out.blocks)) != np.count_nonzero(matrix):
            raise ValueError("the matrix couples different parity sectors")
        return out


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


def _rows(tables, table, lam, j: int, qq: int, span: int) -> np.ndarray:
    """``-AXIS_COMPONENT[qq]``, the factor with which the axis and cross
    kernels enter their ``(+)`` coefficient (the shift is odd there; ``qq =
    0`` has no axis component), times the weights ``table[lam[g], qq + 1,
    j, mu - qq]`` of one table of ``tables`` (``coupling._WeightTables``)
    over ``mu = -span..span``, for a column ``lam`` of shape ``(G, 1)``."""
    start = tables.center - span - qq
    return -AXIS_COMPONENT[qq] * table[lam[:, 0], qq + 1, j, start:start + 2 * span + 1]


def _terms(p, q, lp, l, tables, span):
    """The combination of one family pair on the unit ball, for the degree
    pairs ``(lp[g], l[g])`` (integer columns, shape ``(G, 1)``): ``(phase,
    terms)`` with terms ``(offset, c, qq, factors, weights)``.  Each adds
    ``weights[g, mu]`` (``mu = -span..span``) times the plain kernel of
    degree ``l + lam``, ``lam = lp + c``, at ``(mu - qq, mt)`` to the block
    of order ``l + lp + offset`` of each response coefficient of
    ``_FACTORS[q]``, times the matching entry of ``factors`` (``+-1``, or 0
    where the coefficient does not enter); the block is ``phase`` times
    their sum.  The weights that vary with ``mu`` are read from the tables
    of ``coupling._WeightTables`` (``tables``).  On a ball of radius
    ``rho`` every term of order ``o`` takes the factor ``rho^(o + 1)``."""
    one = np.ones(lp.shape)
    if (p, q) == (W, V):
        return 1.0, [(1, 0, 0, (1,), norm_factor(W, lp) * one)]
    if (p, q) in ((W, X), (X, X), (V, X)):
        if p == X:
            n3 = norm_factor(X, lp)
            # -1j times the cross kernels' 1j: the block is real
            terms = [(1, 0, 0, (1,), n3 * one)]
            root, c, phase = np.sqrt(n3), 1, 1.0
        elif p == W:
            root, c, phase, terms = np.sqrt(norm_factor(W, lp)), 0, 1j, []
        else:
            root, c, phase, terms = np.sqrt(norm_factor(V, lp)), 2, 1j, []
        # the cross kernels of total degree lp at lam = lp + c
        return phase, terms + [
            (c, c, qq, (1,), root * _rows(tables, tables.cross, lp + c, 2 - c, qq, span))
            for qq in (-1, 1)]
    # q == W: the axis kernels recoupled to the row's vector harmonic; the
    # factors are (a22, a12), side = a22 - a12
    side, a22 = (1, -1), (1, 0)
    if p == V:
        root, k, phase = np.sqrt(norm_factor(V, lp)), 1, 1.0
        terms = [(1, 0, 0, a22, -(2 * l + 1) * (lp + 1) * one)]
    elif p == X:
        root, k, phase, terms = np.sqrt(norm_factor(X, lp)), 0, -1j, []
    else:
        n2 = norm_factor(W, lp)
        root, k, phase = np.sqrt(n2), -1, 1.0
        terms = [
            # the bracket a12 + side + a22 (2l+1)/(2lp+1) is a22 (1 + (2l+1)/(2lp+1))
            (1, 0, 0, a22, (1.0 + (2 * l + 1) / (2 * lp + 1)) * n2),
            (-1, 0, 0, side, n2 * one),
        ]
    # the axis kernels recoupled to orbital degree lp + k and total degree
    # lp at lam = lp + k, lp + k + 2 (none at lam = 0), and the axis kernel
    # at (lp + k, mu - qq) coupled with the axis component
    for c in (0, 2):
        axis = tables.recoupling[:, :, c // 2]   # orbital degree lam - c
        terms += [(k + c, k + c, qq, side,
                   2.0 * root * _rows(tables, axis, lp + k + c, 1 - k, qq, span))
                  for qq in (-1, 1)]
    terms += [(k, k, qq, a22,
               (2 * l + 1) * root * _rows(tables, tables.radial, lp + k, 1 - k, qq, span))
              for qq in (-1, 1)]
    return phase, terms


# The response coefficients a column family brings, as positions in
# response_coeffs' (a11, a12, a22, a33); the first is also the family's
# on-ball diagonal.  An entry stores two factors: V and X columns repeat
# their one, with zero weights.
_FACTORS = {V: (0,), W: (2, 1), X: (3,)}


_FACTOR_PAIRS = np.array([(_FACTORS[fam] * 2)[:2] for fam in Family])


def _label_columns(l, family):
    """``(factors, norm)`` of the column labels ``(l, family)`` (broadcast
    over integer arrays): the flat positions of the two factors in the
    ``(l_max + 1, 4)`` response table (last axis) and the squared basis
    norm."""
    l, family = np.asarray(l), np.asarray(family)
    norm = np.choose(family - 1, [norm_factor(fam, l) for fam in Family])
    return 4 * l[..., None] + _FACTOR_PAIRS[family - 1], norm.astype(float)


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


def _scaled(order, weights, fac, powers):
    """The coefficients ``[c(s,+), c(s+2,+)]`` (last axis) of entries of
    lowest order ``order``, geometric weights ``weights[..., f, k]``
    (``_DegreeBlocks.blocks``) and factors ``fac[..., f]``: ``c(s + 2k, +) =
    rho^(s + 2k + 1) sum_f fac[f] weights[f, k]``."""
    return powers[np.asarray(order)[..., None] + (1, 3)] * (
        fac[..., :1] * weights[..., 0, :] + fac[..., 1:] * weights[..., 1, :])


def _real_orders(block: np.ndarray, row: bool = False) -> np.ndarray:
    """The complex-to-real change of order on the last axis of ``block``
    (centred: order 0 in the middle): the weights of ``combine_source``,
    or with ``row`` of ``combine_row``, except their common factor
    ``1/sqrt(2)`` at ``m != 0`` (``_unitary_scale``) and the factor ``i``
    of the negative orders, so a real block stays real."""
    l = block.shape[-1] // 2
    out = np.empty_like(block)
    out[..., l] = block[..., l]
    if l:
        sign = 1.0 - 2.0 * (np.arange(1, l + 1) % 2)   # (-1)^m, m = 1..l
        up, down = block[..., l + 1:], block[..., l - 1::-1]   # orders m, -m
        out[..., l + 1:] = down + sign * up
        out[..., l - 1::-1] = sign * up - down if row else down - sign * up
    return out


_I_POWERS = np.array([1, 1j, -1, -1j])   # i^k, k = 0..3


def _unitary_scale(lp: int, l: int) -> np.ndarray:
    """The factors ``1/sqrt(2)`` left out by ``_real_orders`` on both
    sides of a block, as divisors: 2 (exact) where ``mp`` and ``m`` are
    both nonzero."""
    nonzero = (np.arange(-lp, lp + 1) != 0)[:, None].astype(int) + (
        np.arange(-l, l + 1) != 0)
    return np.array([1.0, _SQRT2, 2.0])[nonzero]


def _mirror(order, coef):
    """Coefficients (the last axis) of the transposed entries of lowest
    order ``order``: the ``(-)`` coefficients ``c(s,-) = (-1)^(s+1)
    c(s,+)``, one sign for both orders of an entry."""
    return (-1.0) ** (np.asarray(order)[..., None] + 1) * coef


class _DegreeBlocks:
    """Geometric lattice coefficients of a family pair for many degree
    pairs at once, for column degrees ``low..l_max`` and row degrees up to
    ``l_max``: those of the unit ball per unit response coefficient, which
    no radius or material enters (``_scaled`` applies them).

    It holds the plain kernels of every column degree ``l`` and every
    ``lam <= l_max + 3`` as one table, indexed ``[l - low, lam, mu +
    l_max + 3, mt + l_max]`` (zero outside ``|mu| <= lam``, ``|mt| <= l``),
    the same table with the real change of the column order
    (``_real_orders``: the complex change divided by ``i`` at ``mt < 0``),
    and the weight tables of ``coupling`` for those ``lam`` (``tables``,
    when given, may hold more)."""

    def __init__(self, l_max: int, low: int = 0, tables=None):
        self._low, self._l_max = low, l_max
        top = 2 * l_max + 3   # the highest kernel degree l + lam
        self._lam = l_max + 3   # the highest lam, and the centre of the mu axis
        l = np.arange(low, l_max + 1)[:, None, None, None]
        lam = np.arange(self._lam + 1)[:, None, None]
        mu = np.arange(-self._lam, self._lam + 1)[:, None]
        mt = np.arange(-l_max, l_max + 1)
        racah = np.sqrt(4.0 * math.pi / (2 * np.arange(top + 1) + 1))
        # multiplied in translation.decay_coeff's order, so one kernel at
        # one shift rounds exactly as that coefficient
        self._plain = (_prefactor_grid(l, lam, mu, mt) * racah[l + lam]
                       * equator_table(top)[l + lam, mt - mu + top])
        self._real = _real_orders(self._plain)
        self._plain.flags.writeable = self._real.flags.writeable = False
        self._tables = _weight_tables(self._lam + 1) if tables is None else tables

    def plain(self, l: int, lam: int) -> np.ndarray:
        """The plain kernel ``decay_prefactor(l, lam, mt, mu)`` times the
        Racah-normalised ``Y_{l+lam}^{mt-mu}(pi/2, 0)``, indexed ``[mu +
        lam, mt + l]``: its ``(+)`` coefficient on order ``l + lam + 1``."""
        return self._plain[l - self._low, lam, self._lam - lam:self._lam + lam + 1,
                           self._l_max - l:self._l_max + l + 1]

    def blocks(self, p, q, lp, l, dropped: bool = False):
        """``(s, weights)`` for rows of family ``p``, degrees ``lp[g]`` and
        columns of family ``q``, degrees ``l[g]``: ``weights[g, mp + P, m +
        Q, f, k]`` (``P``, ``Q`` the largest ``lp``, ``l``) is the real
        ``(+)`` coefficient of entry ``(mp, m)`` on order ``s[g] + 2k`` per
        unit of its ``f``-th response coefficient (``_FACTORS``), for ``|mp|
        <= lp[g]`` and ``|m| <= l[g]``; the rest of each block is padding.
        The complex block is the real one times ``phase i^([mp < 0] + [m <
        0])``: ``+-1`` on the quadrants in one sector, imaginary on the
        others, which hold roundoff only and are set to 0 (with ``dropped``,
        the weights set to 0: the real block times the factor's imaginary part)."""
        lp, l = np.asarray(lp), np.asarray(l)
        b = _ORDER_OFFSET[p, q]
        span, width = int(lp.max()), int(l.max())
        phase, terms = _terms(p, q, lp[:, None], l[:, None], self._tables, span)
        cols = slice(self._l_max - width, self._l_max + width + 1)
        # each term is real weights times a column of self._real, so the
        # kernel of each order s + 2k and factor f is a real sum
        kernels = {}
        for offset, c, qq, factors, weights in terms:
            if offset - b not in (0, 2):
                raise RuntimeError(
                    f"({p.name},{q.name}) term on order l + lp + {offset}, outside "
                    f"the two orders l + lp + {b} and l + lp + {b + 2}")
            start = self._lam - span - qq   # rows mu - qq for mu = -span..span
            term = weights[..., None] * self._real[
                l - self._low, lp + c, start:start + 2 * span + 1, cols]
            for f, sign in enumerate(factors):
                if sign:
                    key = ((offset - b) // 2, f)
                    if key not in kernels:
                        kernels[key] = np.zeros(term.shape)
                    if sign > 0:
                        kernels[key] += term
                    else:
                        kernels[key] -= term
        slots = sorted(kernels)
        block = np.stack([kernels[key] for key in slots])
        real = _real_orders(block.swapaxes(-1, -2), row=True).swapaxes(-1, -2)
        quadrant = (np.arange(-span, span + 1) < 0)[:, None].astype(int) + (
            np.arange(-width, width + 1) < 0)
        # times the reciprocal of the scale: a division rounds differently
        # and would move the bytes of the matrices
        factor = phase * _I_POWERS[quadrant]
        real *= (factor.imag if dropped else factor.real) * (1.0 / _unitary_scale(span, width))
        weights = np.zeros(term.shape + (2, 2))
        for part, (k, f) in zip(real, slots):
            weights[..., f, k] = part
        return l + lp + b, weights


def _unrestricted(l_max: int, rho, params: LameParams, dropped: bool = False):
    """``(order, coef)`` of every label pair of ``BasisMap(l_max)``, read
    from the full degree-pair blocks with no sector rule and no mirror:
    shapes ``(n, n)`` and ``(n, n, 2)``, zero where the family pair has no
    lattice part.  With ``dropped``, ``coef`` holds the coefficients that
    the real quadrant signs set to 0 (``_DegreeBlocks.blocks``).  Each
    stored family pair is one ``blocks`` call over every degree pair."""
    basis = BasisMap(l_max)
    n = basis.n_eff
    degs, _orders, fams = np.array(basis.labels).T
    fac, _diag, powers = _scale(rho, params, l_max, *_label_columns(degs, fams))
    blocks = _DegreeBlocks(l_max)
    lp, l = (deg.ravel() for deg in np.meshgrid(*[np.arange(l_max + 1)] * 2, indexing="ij"))
    order = np.zeros((n, n), dtype=int)
    coef = np.zeros((n, n, 2))
    for p, q in _STORED:
        pick = (lp >= (p != V)) & (l >= (q != V))   # W and X have no degree 0
        if not pick.any():
            continue
        s, block = blocks.blocks(p, q, lp[pick], l[pick], dropped)
        deg_r, deg_c = lp[pick, None], l[pick, None]
        mp = np.arange(-deg_r.max(), deg_r.max() + 1)
        m = np.arange(-deg_c.max(), deg_c.max() + 1)
        g, a, b = np.nonzero((np.abs(mp) <= deg_r)[:, :, None] & (np.abs(m) <= deg_c)[:, None, :])
        r = BasisMap.positions(deg_r, mp, p)[g, a]
        c = BasisMap.positions(deg_c, m, q)[g, b]
        order[r, c] = s[g]
        coef[r, c] = _scaled(s[g], block[g, a, b], fac[c], powers)
    return order, coef


def _contract(order, coef, values):
    """Each entry's two coefficients times the values ``values[s - 1]`` and
    ``values[s + 1]`` of its two orders, in real arithmetic: an entry comes
    out bit-identical whichever entries are contracted with it, and a zero
    comes out as ``+0``.  The mirrored coefficients (``_mirror``)
    contracted with ``values`` give exactly the conjugates of the stored
    ones contracted with ``(-1)^(s+1) conj(values)``: the values of the
    same block for one ball, those of the other coupling block for the
    dimer."""
    low, high = values[order - 1], values[order + 1]
    out = np.empty(len(order), dtype=complex)
    out.real = coef[:, 0] * low.real + coef[:, 1] * high.real + 0.0
    out.imag = coef[:, 0] * low.imag + coef[:, 1] * high.imag + 0.0
    return out


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
    shift lengths (real values)."""
    _check_labels(p, lp, mp, q, l, m)
    x = np.atleast_1d(np.asarray(shifts, dtype=float))
    if np.any(x == 0.0):
        raise ValueError("shift lengths must be nonzero")
    p, q = Family(p), Family(q)
    if (p, q) not in _ORDER_OFFSET:
        return np.zeros(x.shape)
    return _per_copy_values(*_entry_coef(p, lp, mp, q, l, m, rho, params), x)


def _entry_coef(p, lp, mp, q, l, m, rho, params):
    """``(s, coef)`` of one entry, from its degree-pair block and the
    factors of its column: the same values as the entry in ``Trace``."""
    l_max = max(l, lp)
    s, weights = _DegreeBlocks(l_max, l).blocks(p, q, [lp], [l])   # column degree l alone
    fac, _diag, powers = _scale(rho, params, l_max, *_label_columns(l, q))
    return int(s[0]), _scaled(s[0], weights[0, mp + lp, m + l], fac, powers)


def _per_copy_values(s, coef, x):
    """One entry at the signed shift lengths ``x`` from its coefficients:
    ``c(s,+)`` at ``x < 0`` and ``c(s,-) = (-1)^(s+1) c(s,+)`` at ``x > 0``,
    times numpy's power of ``|x|`` (as in ``sphharm.solid_irregular``)."""
    dist = np.abs(x)
    return np.where(x > 0, (-1.0) ** (s + 1), 1.0) * (
        coef[0] * dist ** -s + coef[1] * dist ** (-s - 2))


def sector(l, m, family):
    """Parity sector ``0..3`` of a basis label under the reflections
    ``z -> -z`` and ``y -> -y`` of a chain on the x-axis (broadcast over
    integer arrays).  For V and W the z-parity is ``(l + m) % 2`` and the
    y-parity ``m < 0``; X flips both.  Entries between labels of different
    sectors vanish."""
    flip = (np.asarray(family) == Family.X).astype(int)
    return 2 * ((l + m) % 2 ^ flip) + ((m < 0) ^ flip)


@lru_cache(maxsize=1)
def sectors(l_max: int) -> tuple:
    """The basis positions of each nonempty parity sector of
    ``BasisMap(l_max)``, by ascending ``sector``, read-only; only the most
    recent ``l_max`` is kept.  ``M`` is block-diagonal over them."""
    secs = sector(*np.array(BasisMap(l_max).labels).T)
    return tuple(_frozen(np.flatnonzero(secs == k)) for k in range(4) if np.any(secs == k))


@dataclass(frozen=True, eq=False)
class _Geometry:
    """The part of ``Trace`` that depends on ``l_max`` alone, read-only:
    ``basis``, ``bounds``, ``row``, ``col`` and ``order`` as in ``Trace``;
    ``weights`` (``_DegreeBlocks.blocks``) of each stored entry; and for
    each basis label its ``factors`` and ``norm`` (``_label_columns``)."""

    basis: BasisMap
    bounds: np.ndarray
    row: np.ndarray
    col: np.ndarray
    order: np.ndarray
    weights: np.ndarray
    factors: np.ndarray
    norm: np.ndarray


# A band of degrees a..b holds as many degrees as fit (b - a + 1) (2 b + 7)
# <= _BAND, so that a tile of two bands stays below about _BAND^2 padded
# entries at any l_max; one band holds every degree up to 9.
_BAND = 256


def _bands(l_max: int) -> list:
    """Consecutive bands of the degrees ``0..l_max`` (``_BAND``)."""
    bands, low = [], 0
    while low <= l_max:
        high = low
        while high < l_max and (high - low + 2) * (2 * high + 9) <= _BAND:
            high += 1
        bands.append(np.arange(low, high + 1))
        low = high + 1
    return bands


@lru_cache(maxsize=1)
def _geometry(l_max: int) -> _Geometry:
    """The geometry of ``l_max``; only the most recent ``l_max`` is kept.

    The degree pairs ``lp <= l`` are built a tile at a time: the row
    degrees of one band (``_bands``) against the column degrees of a band
    at or above it, every family pair of ``_STORED`` in one
    ``_DegreeBlocks.blocks`` call.  Each tile's entries go straight to the
    region of their sector, so the entries are never copied to be grouped."""
    basis = BasisMap(l_max)
    n = basis.n_eff
    degs, orders, fams = np.array(basis.labels).T
    secs = sector(degs, orders, fams)
    # the position of each sector's block and each label's rank in it
    group, rank = np.empty(n, dtype=np.int8), np.empty(n, dtype=np.intp)
    for k, labels in enumerate(sectors(l_max)):
        group[labels], rank[labels] = k, np.arange(len(labels))
    # filled in place, a region per sector sized for every in-sector label
    # pair on or above the diagonal of a stored family pair; seen[j, f]
    # counts the labels i <= j of family f in the sector of j
    seen = np.cumsum(np.eye(12, dtype=int)[3 * secs + fams - 1], axis=0)
    seen = seen.reshape(n, 4, 3)[np.arange(n), secs]
    stored = np.array([[(p, q) in _STORED for q in Family] for p in Family])
    room = np.bincount(group, (seen * stored[:, fams - 1].T).sum(axis=1)).astype(np.intp)
    size = int(room.sum())
    row, col, order = (np.empty(size, dtype=np.intp) for _ in range(3))
    weights = np.empty((size, 2, 2))
    start = np.cumsum(room) - room
    end = start.copy()
    bands = _bands(l_max)
    tables = _weight_tables(l_max + 4)
    for j, cols in enumerate(bands):
        blocks = _DegreeBlocks(int(cols[-1]), int(cols[0]), tables)
        for rows in bands[:j + 1]:
            lp, l = (deg.ravel() for deg in np.meshgrid(rows, cols, indexing="ij"))
            found = []
            for p, q in _STORED:
                # W and X have no degree 0
                pick = (lp <= l) & (lp >= (p != V)) & (l >= (q != V))
                if not pick.any():
                    continue
                s, block = blocks.blocks(p, q, lp[pick], l[pick])
                deg_r, deg_c = lp[pick, None], l[pick, None]
                mp = np.arange(-deg_r.max(), deg_r.max() + 1)
                m = np.arange(-deg_c.max(), deg_c.max() + 1)
                r = BasisMap.positions(deg_r, mp, p)
                c = BasisMap.positions(deg_c, m, q)
                # an entry with any nonzero weight (four ORs: a reduction
                # over the two short last axes takes several times longer)
                nonzero = block.reshape(block.shape[:3] + (4,)) != 0
                keep = ((np.abs(mp) <= deg_r)[:, :, None]
                        & (np.abs(m) <= deg_c)[:, None, :]
                        & (r[:, :, None] <= c[:, None, :])
                        & (sector(deg_r, mp, p)[:, :, None] == sector(deg_c, m, q)[:, None, :])
                        & (nonzero[..., 0] | nonzero[..., 1] | nonzero[..., 2] | nonzero[..., 3]))
                g, a, b = np.nonzero(keep)
                found.append((r[g, a], c[g, b], s[g], block[g, a, b]))
            if not found:
                continue
            # the tile's entries of each sector in the order found, after the
            # sector's earlier ones: its k-th goes to end[sector] + k
            tile_r, tile_c, tile_s, tile_w = (np.concatenate(parts) for parts in zip(*found))
            within = group[tile_r]
            count = np.bincount(within, minlength=len(room))
            at = np.empty(len(tile_r), dtype=np.intp)
            at[np.argsort(within, kind="stable")] = np.arange(len(tile_r)) + np.repeat(
                end - np.cumsum(count) + count, count)
            row[at], col[at] = rank[tile_r], rank[tile_c]
            order[at], weights[at] = tile_s, tile_w
            end += count
    # close the gaps between the sectors' regions (an overlapping move
    # goes through a copy of one sector's entries)
    bounds = np.zeros(len(room) + 1, dtype=np.intp)
    np.cumsum(end - start, out=bounds[1:])
    for k in range(1, len(room)):
        if start[k] > bounds[k]:
            for values in (row, col, order, weights):
                values[bounds[k]:bounds[k + 1]] = values[start[k]:end[k]]
    row, col, order, weights = (v[:bounds[-1]] for v in (row, col, order, weights))
    factors, norm = _label_columns(degs, fams)
    return _Geometry(
        basis=basis, bounds=_frozen(bounds), row=_frozen(row), col=_frozen(col),
        order=_frozen(order), weights=_frozen(weights),
        factors=_frozen(factors), norm=_frozen(norm),
    )


class Trace:
    """Phase-independent part of ``M(alpha) = D + T v(alpha)`` for one ball
    radius, material and truncation degree.

    ``diag`` is the on-ball diagonal ``D``.  The in-sector entries on or
    above the diagonal whose geometric weights do not vanish identically
    are stored by sector: entries ``bounds[k]:bounds[k + 1]`` lie at ``(row,
    col)`` of the block of ``sectors(l_max)[k]``, ``order`` is the lowest
    order of each and ``coef`` its two real coefficients ``[c(s,+),
    c(s+2,+)]`` (module docstring).  Only this triangle is stored: the
    entries below the diagonal are the conjugates of its values (``_fill``).

    ``basis``, ``bounds``, ``row``, ``col`` and ``order`` are the read-only
    geometry of ``l_max``, shared by every trace of that ``l_max``;
    ``coef`` and ``diag`` are its per-radius, per-material scale
    (``_scale``, ``_scaled``), which raises ``ScaleOverflow`` where they
    leave the float64 range.  An entry that a material cancels (``a12 =
    a22`` at ``l = 3`` when ``lam = mu``) keeps its zero coefficients and
    contracts to ``+0``.
    """

    def __init__(self, rho, params: LameParams, l_max: int):
        if not 0.0 < rho < 0.5:
            raise ValueError("need 0 < rho < 1/2")
        geo = _geometry(l_max)
        self.rho, self.params, self.l_max = rho, params, l_max
        self.basis, self.bounds, self.order = geo.basis, geo.bounds, geo.order
        self.row, self.col = geo.row, geo.col
        self.s_max = 2 * l_max + 3
        fac, self.diag, powers = _scale(rho, params, l_max, geo.factors, geo.norm)
        cols = np.concatenate([labels[self.col[a:b]] for labels, a, b in zip(
            sectors(l_max), self.bounds, self.bounds[1:])])
        self.coef = _scaled(self.order, geo.weights, fac[cols], powers)

    def _fill(self, blocks, upper, lower) -> None:
        """Write into each zeroed sector block of ``blocks`` the contracted
        values ``upper`` at ``(row, col)`` and the conjugates of ``lower`` at
        ``(col, row)``, first, so the diagonal keeps ``upper``.  ``0.0 -
        imag`` conjugates as the mirrored coefficients would: ``+0`` stays."""
        mirrored = np.empty_like(lower)
        mirrored.real, mirrored.imag = lower.real, 0.0 - lower.imag
        for out, a, b in zip(blocks, self.bounds, self.bounds[1:]):
            row, col = self.row[a:b], self.col[a:b]
            out[col, row] = mirrored[a:b]
            out[row, col] = upper[a:b]

    def _self_blocks(self, alpha, blocks) -> None:
        """Write the single-ball matrix at phase ``alpha`` into zeroed blocks:
        ``M`` is Hermitian, so one contraction serves both triangles."""
        upper = _contract(self.order, self.coef, line_values(alpha, self.s_max))
        self._fill(blocks, upper, upper)
        for out, labels in zip(blocks, sectors(self.l_max)):
            out.flat[::len(out) + 1] += self.diag[labels]

    def single(self, alpha) -> AssembledMatrix:
        """The single-ball matrix at Bloch phase ``alpha``."""
        blocks = [np.zeros((len(g), len(g)), dtype=complex) for g in sectors(self.l_max)]
        self._self_blocks(alpha, blocks)
        return AssembledMatrix(
            blocks=blocks, basis=self.basis, alpha=reduce_alpha(alpha),
            rho=self.rho, params=self.params, l_max=self.l_max,
        )

    def dimer(self, alpha, geom: DimerGeometry) -> AssembledMatrix:
        """The two-ball block matrix ``[[M11, M21], [M12, M22]]``.

        The self blocks are the single-ball matrix; the coupling blocks sum
        the shifted copies of the other ball (block "st" maps the density
        on ball s to values on ball t).
        """
        if geom.rho != self.rho:
            raise ValueError("dimer radius differs from the trace radius")
        halves = [len(g) for g in sectors(self.l_max)]
        blocks = [np.zeros((2 * h, 2 * h), dtype=complex) for h in halves]
        a, c21, c12, a2 = zip(*[(b[:h, :h], b[:h, h:], b[h:, :h], b[h:, h:])
                                for b, h in zip(blocks, halves)])
        self._self_blocks(alpha, a)
        # each coupling block's lower triangle is the other's conjugate
        u21, u12 = (_contract(self.order, self.coef, values)
                    for values in dimer_values(alpha, geom, self.s_max))
        self._fill(c21, u21, u12)
        self._fill(c12, u12, u21)
        for out, same in zip(a2, a):
            out[...] = same
        return AssembledMatrix(
            blocks=blocks, basis=self.basis, alpha=reduce_alpha(alpha), rho=self.rho,
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
