"""Matrix representation of the quasi-periodic single layer operator.

Every inner product of a row harmonic against the potential of a shifted
copy of a column harmonic reduces to one closed-form combination of four
primitive coefficient families (plain, axis-weighted, squared-moment and
cross-product).  The same combination is evaluated against two kernels:

* ``_SingleShiftKernel`` -- the coefficients of one copy at a given shift
  (vectorised over many shifts), giving ``per_copy_entry``;
* ``_TraceKernel``       -- the lattice sum over all copies as a vector of
  phase-independent coefficients over the slots of
  ``latsum.line_values``/``dimer_values``.

Since the lattice part of every entry is such a vector dotted with the
polylogarithm (or, for the dimer coupling blocks, Lerch) values,
``M(alpha) = D + T v(alpha)``.  ``Trace`` holds the on-ball diagonal ``D``
and the vectors ``T`` of the entries that do not vanish identically; one
trace serves every Bloch phase and all three blocks of the dimer matrix.

Structural zeros: a V-family density produces a pure W-family potential
off its own ball, so the (V,V) off-diagonal, (X,V) and (V,X) entries
vanish.  Beyond those, a chain on the x-axis (and the dimer at
``(+-d, 0, 0)``) is symmetric under ``z -> -z`` and ``y -> -y``, so ``M``
splits into four parity sectors (``sector``): entries whose row and column
labels lie in different sectors are zero.  ``per_copy_entry`` and
``_lattice_coef`` still evaluate the printed combinations there so their
numerical vanishing can be tested, while the assembled matrices store
exact zeros.

Mirrored triangle: ``M`` is Hermitian for every phase, and
``conj Li_s(e^{-+i alpha}) = Li_s(e^{+-i alpha})``; since the ``Li_s`` are
linearly independent, the trace vector of entry ``(j, i)`` is the conjugate
of that of ``(i, j)`` with each ``(s, -)``/``(s, +)`` slot pair swapped
(``_mirror``).  The Lerch values of the dimer blocks "21" and "12" are
related the same way, so one triangle serves all three blocks.  Only the
entries on or above the diagonal are evaluated; the rest are mirrored.

Basis ordering: degree ascending, order ``-l..l`` ascending, family V,W,X
innermost, with the two identically-zero degree-0 labels removed, giving
``3 (L+1)^2 - 2`` basis elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
from .sphharm import ylm_equator
from .translation import (
    combine_row,
    combine_source,
    cross_prefactor,
    decay_prefactor,
    recoupling_weight,
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
# coefficient kernels


class _SingleShiftKernel:
    """Coefficient values of single shifted copies at signed shift lengths
    ``N`` (the shift vector is ``(N, 0, 0)``); vectorised over ``N``."""

    def __init__(self, shifts):
        self.n = np.atleast_1d(np.asarray(shifts, dtype=float))
        if np.any(self.n == 0.0):
            raise ValueError("shift lengths must be nonzero")
        self._pos = self.n > 0
        self._ieq_cache = {}

    def zero(self):
        return np.zeros_like(self.n, dtype=complex)

    def _ieq(self, big_l: int, t: int):
        key = (big_l, t)
        if key not in self._ieq_cache:
            if abs(t) > big_l:
                self._ieq_cache[key] = np.zeros_like(self.n)
            else:
                y = np.where(
                    self._pos,
                    ylm_equator(big_l, t, at_pi=True),
                    ylm_equator(big_l, t, at_pi=False),
                )
                self._ieq_cache[key] = (
                    math.sqrt(4.0 * math.pi / (2 * big_l + 1))
                    * y
                    * np.abs(self.n) ** (-big_l - 1)
                )
        return self._ieq_cache[key]

    def plain(self, l, lam, mt, mu):
        pref = decay_prefactor(l, lam, mt, mu)
        if pref == 0.0:
            return self.zero()
        return pref * self._ieq(l + lam, mt - mu).astype(complex)

    def axis(self, l, lam, mt, mu, q):
        eps = AXIS_COMPONENT[q]
        if eps == 0.0:
            return self.zero()
        return eps * self.n * self.plain(l, lam, mt, mu)

    def moment(self, l, lam, mt, mu):
        return self.n * self.n * self.plain(l, lam, mt, mu)

    def cross(self, l, j, lam, mt, mu, q, m1):
        eps = AXIS_COMPONENT[q]
        pref = cross_prefactor(l, j, lam, mt, mu, q, m1)
        if eps == 0.0 or pref == 0.0:
            return self.zero()
        return pref * eps * self.n * self._ieq(l + lam, mt - mu)


class _TraceKernel:
    """Phase-independent coefficients of the full-lattice sums: each method
    returns a vector over the value slots ``slot(s, sign)``, ``s = 1..s_max``,
    or the scalar ``0`` where the sum vanishes identically.

    With ``L = l + lam``, the plain sum lands on order ``L + 1``, the
    squared-moment sum on ``L - 1``, and the axis and cross sums on ``L``;
    the last two are odd in the shift, so their ``+`` value enters with a
    minus sign.
    """

    def __init__(self, s_max: int):
        self.size = 2 * s_max
        self._memo = {}

    @staticmethod
    def zero():
        return 0.0 + 0.0j

    def _pair(self, s, c_minus, c_plus):
        vec = np.zeros(self.size, dtype=complex)
        vec[slot(s, -1)], vec[slot(s, 1)] = c_minus, c_plus
        return vec

    def _line(self, pref, big_l, t, order_shift, plus_sign):
        """``pref`` times the equator pair of degree ``big_l``, order ``t``,
        on the order ``big_l + order_shift`` slots."""
        if pref == 0.0 or abs(t) > big_l:
            return self.zero()
        y_pi = ylm_equator(big_l, t, at_pi=True)
        y_0 = ylm_equator(big_l, t, at_pi=False)
        if y_pi == 0.0 and y_0 == 0.0:
            return self.zero()
        pref *= math.sqrt(4.0 * math.pi / (2 * big_l + 1))
        return self._pair(big_l + order_shift, pref * y_pi, plus_sign * pref * y_0)

    def _cached(self, key, make):
        val = self._memo.get(key)
        if val is None:
            val = self._memo[key] = make()
        return val

    def plain(self, l, lam, mt, mu):
        return self._cached(("plain", l, lam, mt, mu), lambda: self._line(
            decay_prefactor(l, lam, mt, mu), l + lam, mt - mu, 1, 1.0))

    def axis(self, l, lam, mt, mu, q):
        return self._cached(("axis", l, lam, mt, mu, q), lambda: self._line(
            AXIS_COMPONENT[q] * decay_prefactor(l, lam, mt, mu),
            l + lam, mt - mu, 0, -1.0))

    def moment(self, l, lam, mt, mu):
        return self._cached(("moment", l, lam, mt, mu), lambda: self._line(
            decay_prefactor(l, lam, mt, mu), l + lam, mt - mu, -1, 1.0))

    def cross(self, l, j, lam, mt, mu, q, m1):
        return self._cached(("cross", l, j, lam, mt, mu, q, m1), lambda: self._line(
            AXIS_COMPONENT[q] * cross_prefactor(l, j, lam, mt, mu, q, m1),
            l + lam, mt - mu, 0, -1.0))


# ---------------------------------------------------------------------------
# the shared combination


def _combined_value(p, lp, mp, q, l, m, rho, params, ker):
    """Evaluate one (row family p, column family q) inner-product
    combination against a kernel backend.  The radial factors are all
    instantiated on the ball surface (r = rho)."""
    p, q = Family(p), Family(q)
    r = rho
    a11, a12, a22, a33 = response_coeffs(l, params)

    def hc(lam, mu):
        return combine_source(m, lambda mt: ker.plain(l, lam, mt, mu))

    def ac(lam, mu, qq):
        return combine_source(m, lambda mt: ker.axis(l, lam, mt, mu, qq))

    def dc(lam, mu):
        return combine_source(m, lambda mt: ker.moment(l, lam, mt, mu))

    def lc(j, lam, mu, qq, m1):
        return combine_source(
            m, lambda mt: ker.cross(l, j, lam, mt, mu, qq, m1)
        )

    if q == Family.V:
        if p != Family.W:
            return ker.zero()

        def row(mu):
            return (
                rho ** (l + 3)
                * a11
                * r ** (lp - 1)
                * norm_factor(Family.W, lp)
                * hc(lp, mu)
            )

        return combine_row(mp, row)

    if q == Family.X:
        if p == Family.V:
            pref = (
                rho ** (l + 2)
                * a33
                * r ** (lp + 1)
                * math.sqrt(norm_factor(Family.V, lp))
            )

            def row(mu):
                acc = ker.zero()
                for qq in (-1, 0, 1):
                    for m1 in (-1, 0, 1):
                        acc = acc + lc(lp, lp + 2, mu - qq, qq, m1)
                return pref * acc

            return combine_row(mp, row)

        if p == Family.W:
            pref = (
                rho ** (l + 2)
                * a33
                * r ** (lp - 1)
                * math.sqrt(norm_factor(Family.W, lp))
            )

            def row(mu):
                acc = ker.zero()
                for qq in (-1, 0, 1):
                    for m1 in (-1, 0, 1):
                        acc = acc + lc(lp, lp, mu - qq, qq, m1)
                return pref * acc

            return combine_row(mp, row)

        pref = rho ** (l + 2) * a33 * r**lp
        n3 = norm_factor(Family.X, lp)

        def row(mu):
            acc = ker.zero()
            for qq in (-1, 0, 1):
                for m1 in (-1, 0, 1):
                    acc = acc + lc(lp, lp + 1, mu - qq, qq, m1)
            return pref * (n3 * hc(lp, mu) - 1j * math.sqrt(n3) * acc)

        return combine_row(mp, row)

    # q == Family.W
    if p == Family.V:
        n1 = norm_factor(Family.V, lp)

        def row(mu):
            t1 = ker.zero()
            for lam in (lp + 1, lp + 3):
                for qq in (-1, 0, 1):
                    for m1 in (-1, 0, 1):
                        w = recoupling_weight(lp + 1, lp, lam, m1, mu - qq, qq)
                        if w == 0.0:
                            continue
                        t1 = t1 + r**lam * w * ac(lam, mu - qq, qq)
            t1 = 2.0 * rho ** (l + 1) * (a22 - a12) * math.sqrt(n1) * t1
            t2 = (
                -rho ** (l + 1)
                * a22
                * r ** (lp + 1)
                * (2 * l + 1)
                * (lp + 1)
                * hc(lp, mu)
            )
            t3 = ker.zero()
            for qq in (-1, 0, 1):
                w = cg(lp + 1, mu - qq, 1, qq, lp, mu)
                if w == 0.0:
                    continue
                t3 = t3 + (-1.0) ** qq * w * ac(lp + 1, mu - qq, qq)
            t3 = (
                rho ** (l + 1)
                * a22
                * r ** (lp + 1)
                * (2 * l + 1)
                * math.sqrt(n1)
                * t3
            )
            return t1 + t2 + t3

        return combine_row(mp, row)

    if p == Family.X:
        n3 = norm_factor(Family.X, lp)

        def row(mu):
            t1 = ker.zero()
            for lam in (lp, lp + 2):
                for qq in (-1, 0, 1):
                    for m1 in (-1, 0, 1):
                        w = recoupling_weight(lp, lp, lam, m1, mu - qq, qq)
                        if w == 0.0:
                            continue
                        t1 = t1 + r**lam * w * ac(lam, mu - qq, qq)
            t1 = -2j * rho ** (l + 1) * (a22 - a12) * math.sqrt(n3) * t1
            t3 = ker.zero()
            for qq in (-1, 0, 1):
                w = cg(lp, mu - qq, 1, qq, lp, mu)
                if w == 0.0:
                    continue
                t3 = t3 + (-1.0) ** qq * w * ac(lp, mu - qq, qq)
            t3 = (
                -1j
                * rho ** (l + 1)
                * a22
                * r**lp
                * (2 * l + 1)
                * math.sqrt(n3)
                * t3
            )
            return t1 + t3

        return combine_row(mp, row)

    # (W, W)
    n2 = norm_factor(Family.W, lp)

    def row(mu):
        bracket = (
            rho ** (l + 3) * a12 * r ** (lp - 1)
            + rho ** (l + 1) * (a22 - a12) * r ** (lp + 1)
            + rho ** (l + 1) * a22 * r ** (lp + 1) * (2 * l + 1) / (2 * lp + 1)
        )
        t0 = n2 * (
            bracket * hc(lp, mu)
            + rho ** (l + 1) * (a22 - a12) * r ** (lp - 1) * dc(lp, mu)
        )
        t1 = ker.zero()
        for lam in (lp - 1, lp + 1):
            if lam < 1:
                continue
            for qq in (-1, 0, 1):
                for m1 in (-1, 0, 1):
                    w = recoupling_weight(lp - 1, lp, lam, m1, mu - qq, qq)
                    if w == 0.0:
                        continue
                    t1 = t1 + r**lam * w * ac(lam, mu - qq, qq)
        t1 = 2.0 * rho ** (l + 1) * (a22 - a12) * math.sqrt(n2) * t1
        t3 = ker.zero()
        for qq in (-1, 0, 1):
            w = cg(lp - 1, mu - qq, 1, qq, lp, mu)
            if w == 0.0:
                continue
            t3 = t3 + (-1.0) ** qq * w * ac(lp - 1, mu - qq, qq)
        t3 = (
            rho ** (l + 1)
            * a22
            * (2 * l + 1)
            * math.sqrt(n2)
            * r ** (lp - 1)
            * t3
        )
        return t0 + t1 + t3

    return combine_row(mp, row)


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
    ker = _SingleShiftKernel(shifts)
    val = _combined_value(p, lp, mp, q, l, m, rho, params, ker)
    if np.isscalar(val) or np.ndim(val) == 0:
        return np.full_like(ker.n, complex(val), dtype=complex)
    return np.asarray(val, dtype=complex)


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


def _lattice_coef(p, lp, mp, q, l, m, rho, params, ker):
    """Trace vector of one entry's lattice part, or ``None`` where that part
    vanishes identically (the V-V and V-X blocks, and exact cancellations)."""
    p, q = Family(p), Family(q)
    if p == q == Family.V or {p, q} == {Family.V, Family.X}:
        return None
    coef = _combined_value(p, lp, mp, q, l, m, rho, params, ker)
    if np.ndim(coef) == 0 or not coef.any():
        return None
    return coef


def sector(l: int, m: int, family) -> int:
    """Parity sector ``0..3`` of a basis label under the reflections
    ``z -> -z`` and ``y -> -y`` of a chain on the x-axis.  For V and W the
    z-parity is ``(l + m) % 2`` and the y-parity ``m < 0``; X flips both.
    Entries between labels of different sectors vanish."""
    flip = int(Family(family) == Family.X)
    return 2 * ((l + m) % 2 ^ flip) + ((m < 0) ^ flip)


def _mirror(coef):
    """Trace vectors (the last axis) of the transposed entries: each
    ``(s, -)``/``(s, +)`` slot pair swapped, then conjugated."""
    pairs = coef.reshape(*coef.shape[:-1], coef.shape[-1] // 2, 2)
    return pairs[..., ::-1].reshape(coef.shape).conj()


def _sector_coef(p, lp, mp, q, l, m, rho, params, ker):
    """The trace vector ``Trace`` holds for one entry, or ``None``: zero
    across sectors, the mirror of the transposed entry when the row label
    comes after the column label in basis order, else ``_lattice_coef``."""
    row, col = (lp, mp, Family(p)), (l, m, Family(q))
    if sector(*row) != sector(*col):
        return None
    if row > col:
        coef = _lattice_coef(q, l, m, p, lp, mp, rho, params, ker)
        return None if coef is None else _mirror(coef)
    return _lattice_coef(p, lp, mp, q, l, m, rho, params, ker)


def _contract(coef, values):
    """Each row of ``coef`` dotted with ``values``, summed one slot pair
    ``(s, -)``, ``(s, +)`` at a time: an entry comes out bit-identical
    whichever rows are contracted with it, and a mirrored entry contracted
    with mirrored values exactly the conjugate."""
    out = np.zeros(coef.shape[0], dtype=complex)
    for k in range(0, coef.shape[1], 2):
        out += coef[:, k] * values[k] + coef[:, k + 1] * values[k + 1]
    return out


def _contract_one(coef, values) -> complex:
    """``_contract`` for one trace vector, or the scalar structural zero."""
    if np.ndim(coef) == 0:
        return complex(coef)
    return complex(_contract(coef[None, :], values)[0])


def _entry_lattice(p, lp, mp, q, l, m, rho, params, values) -> complex:
    """Lattice part of one entry; ``values(s_max, need)`` returns the value
    vector with (at least) the slots of the mask ``need`` filled in."""
    _check_labels(p, lp, mp, q, l, m)
    s_max = l + lp + 3
    coef = _sector_coef(p, lp, mp, q, l, m, rho, params, _TraceKernel(s_max))
    if coef is None:
        return 0.0 + 0.0j
    return _contract_one(coef, values(s_max, coef != 0))


def entry_single(
    p, lp, mp, q, l, m, alpha, rho, params: LameParams, cache=None
) -> complex:
    """One entry of the quasi-periodic operator matrix: the on-ball
    diagonal plus the phased sum over all other copies in closed form."""
    if cache is None:
        cache = LatticeSumCache(alpha)
    lattice = _entry_lattice(
        p, lp, mp, q, l, m, rho, params,
        lambda s_max, need: line_values(cache, s_max, need),
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
        lambda s_max, need: dimer_values(cache, s_max, block, need),
    ))


class Trace:
    """Phase-independent part of ``M(alpha) = D + T v(alpha)`` for one ball
    radius, material and truncation degree.

    ``diag`` is the on-ball diagonal ``D``; ``index`` holds the row-major
    flat positions of the in-sector entries whose lattice part does not
    vanish identically, and ``coef`` their vectors over the value slots of
    orders ``1..s_max``.  Only the entries on or above the diagonal are
    evaluated; those below are their mirrors (``_sector_coef``).
    """

    def __init__(self, rho, params: LameParams, l_max: int):
        if not 0.0 < rho < 0.5:
            raise ValueError("need 0 < rho < 1/2")
        self.rho, self.params, self.l_max = rho, params, l_max
        self.basis = BasisMap(l_max)
        self.s_max = 2 * l_max + 3
        labels = self.basis.labels
        n = len(labels)
        sectors = [sector(*label) for label in labels]
        pairs, rows = [], []
        for col, (l, m, q) in enumerate(labels):
            # one kernel per column: its memo is reused down the column and
            # does not outgrow it
            ker = _TraceKernel(self.s_max)
            for row in range(col + 1):
                if sectors[row] != sectors[col]:
                    continue
                lp, mp, p = labels[row]
                coef = _lattice_coef(p, lp, mp, q, l, m, rho, params, ker)
                if coef is not None:
                    pairs.append((row, col))
                    rows.append(coef)
        upper = np.array(rows, dtype=complex).reshape(-1, 2 * self.s_max)
        row, col = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        below = row != col
        self.index = np.concatenate([row * n + col, col[below] * n + row[below]])
        self.coef = np.concatenate([upper, _mirror(upper[below])])
        self.diag = np.array([
            _diagonal_term(p, p, l, l, m, m, rho, params) for l, m, p in labels
        ])

    def _block(self, values, with_diag: bool) -> np.ndarray:
        n = self.basis.n_eff
        out = np.zeros(n * n, dtype=complex)
        out[self.index] = _contract(self.coef, values)
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
