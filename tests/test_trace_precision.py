"""The assembled matrix against a 40-digit evaluation of the same closed
forms.

The reference evaluates the combination of each family pair (``_terms``)
with its radial factors written out on the ball surface, in mpmath, with
exact binomials, exact Clebsch-Gordan coefficients (Racah's sum in
fractions), exact equator values and exact complex-to-real unitaries, and
contracts it with the float64 lattice values ``v(alpha)`` that the matrix
itself uses.  So the difference is the rounding of the float64 trace and
its contraction alone, and the builder's split into a unit-ball geometry
and a per-radius scale is checked too.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from mpmath import mp, mpc, mpf

from sphelast.assembly import _ORDER_OFFSET, _STORED, BasisMap, assemble_single
from sphelast.kelvin import LameParams, norm_factor
from sphelast.latsum import line_values
from sphelast.vsh import Family

DPS = 40


def _mp(x: Fraction):
    return mpf(x.numerator) / x.denominator


@lru_cache(maxsize=None)
def _cg(j1, m1, j2, m2, j, m):
    if min(j1, j2) < 0 or abs(m1) > j1 or abs(m2) > j2 or abs(m) > j:
        return mpf(0)
    if m != m1 + m2 or not abs(j1 - j2) <= j <= j1 + j2:
        return mpf(0)
    f = math.factorial
    pref = Fraction(
        (2 * j + 1) * f(j1 + j2 - j) * f(j1 - j2 + j) * f(j2 - j1 + j),
        f(j1 + j2 + j + 1),
    ) * (f(j + m) * f(j - m) * f(j1 - m1) * f(j1 + m1) * f(j2 - m2) * f(j2 + m2))
    total = Fraction(0)
    for k in range(j1 + j2 - j + 1):
        args = (k, j1 + j2 - j - k, j1 - m1 - k, j2 + m2 - k,
                j - j2 + m1 + k, j - j1 - m2 + k)
        if min(args) >= 0:
            total += Fraction((-1) ** k, math.prod(f(a) for a in args))
    return _mp(total) * mp.sqrt(_mp(pref))


def _axis(q):
    return {-1: 1 / mp.sqrt(2), 0: mpf(0), 1: -1 / mp.sqrt(2)}[q]


def _recoupling(k, j, lam, m1, mu, q):
    if lam < 1:
        return mpf(0)
    return (
        mp.sqrt(mpf(lam * (2 * lam + 1) * (2 * lam - 1)) / (2 * k + 1))
        * (-1) ** q
        * _cg(lam - 1, mu - m1, 1, m1, lam, mu)
        * _cg(1, q, lam - 1, mu - m1, k, q + mu - m1)
        * _cg(1, 0, lam - 1, 0, k, 0)
        * _cg(k, q + mu - m1, 1, m1, j, q + mu)
    )


def _cross(j, lam, q, m1, mu):
    if lam < 1:
        return mpf(0)
    return (
        (-1) ** q * ((q > m1) - (q < m1)) * mp.sqrt(lam * (2 * lam + 1))
        * _cg(lam - 1, mu - m1, 1, m1, lam, mu)
        * _cg(lam - 1, mu - m1, 1, q + m1, j, mu + q)
    )


def _rows(values):
    return np.array(values, dtype=object)


def _axis_rows(k, lp, lam, qq):
    return _rows([-_axis(qq) * sum(_recoupling(k, lp, lam, m1, mu - qq, qq)
                                   for m1 in (-1, 0, 1))
                  for mu in range(-lp, lp + 1)])


def _cg_rows(k, lp, qq):
    return _rows([-_axis(qq) * (-1) ** qq * _cg(k, mu - qq, 1, qq, lp, mu)
                  for mu in range(-lp, lp + 1)])


def _cross_rows(lp, lam, qq):
    return _rows([-_axis(qq) * sum(_cross(lp, lam, qq, m1, mu - qq)
                                   for m1 in (-1, 0, 1))
                  for mu in range(-lp, lp + 1)])


def _response(l, params):
    mu, lam = mpf(params.mu), mpf(params.lam)
    denom = (2 * l + 1) * mu * (2 * mu + lam)
    a11 = ((3 * l + 1) * mu + l * lam) / ((2 * l + 3) * denom)
    a12 = l * (mu + lam) / (2 * denom)
    a22 = ((3 * l + 2) * mu + (l + 1) * lam) / ((2 * l - 1) * denom) if l else mpf(0)
    a33 = 1 / ((2 * l + 1) * mu)
    return tuple(params.sign * a for a in (a11, a12, a22, a33))


def _equator(big_l, t):
    if abs(t) > big_l or (big_l + t) % 2:
        return mpf(0)
    a, b = (big_l - abs(t)) // 2, (big_l + abs(t)) // 2
    size = Fraction(2 * big_l + 1) * Fraction(math.comb(2 * a, a), 4**a) * Fraction(
        math.comb(2 * b, b), 4**b)
    sign = -1 if (a + max(t, 0)) % 2 else 1
    return sign * mp.sqrt(_mp(size) / (4 * mp.pi))


@lru_cache(maxsize=None)
def _padded(l, lam):
    """The plain kernel, indexed ``[mu + lam + 2, mt + l]`` as in
    ``_DegreeBlocks._padded``."""
    table = np.zeros((2 * lam + 5, 2 * l + 1), dtype=object)
    racah = mp.sqrt(4 * mp.pi / (2 * (l + lam) + 1))
    for mu in range(-lam, lam + 1):
        for mt in range(-l, l + 1):
            bb = math.comb(l + lam + mu - mt, lam + mu) * math.comb(
                l + lam + mt - mu, lam - mu)
            decay = (-1) ** (lam + mu) * mp.sqrt(mpf(2 * l + 1) / (2 * lam + 1) * bb)
            table[mu + lam + 2, mt + l] = decay * racah * _equator(l + lam, mt - mu)
    return table


def _real_orders(block, row=False):
    l = block.shape[-1] // 2
    out = np.empty(block.shape, dtype=object)
    out[..., l] = block[..., l]
    if l:
        sign = _rows([(-1) ** m for m in range(1, l + 1)])
        up, down = block[..., l + 1:], block[..., l - 1::-1]
        out[..., l + 1:] = (down + sign * up) / mp.sqrt(2)
        out[..., l - 1::-1] = mpc(0, 1) * (
            sign * up - down if row else down - sign * up) / mp.sqrt(2)
    return out


def _terms(p, q, lp, l, rho, params):
    """The combination of one family pair as ``assembly._terms``, with the
    radial factors instantiated on the ball surface (``r = rho``)."""
    r = rho
    a11, a12, a22, a33 = _response(l, params)
    one = np.ones(2 * lp + 1)
    W, V, X = Family.W, Family.V, Family.X
    if (p, q) == (W, V):
        return 1.0, [(l + lp + 1, lp, 0, one * (
            rho ** (l + 3) * a11 * r ** (lp - 1) * norm_factor(W, lp)))]
    if (p, q) in ((W, X), (X, X)):
        if p == X:
            pref = rho ** (l + 2) * a33 * r**lp
            n3 = norm_factor(X, lp)
            terms = [(l + lp + 1, lp, 0, pref * n3 * one)]
            pref, lam, phase = pref * mp.sqrt(n3), lp + 1, 1.0
        else:
            pref = rho ** (l + 2) * a33 * r ** (lp - 1) * mp.sqrt(norm_factor(W, lp))
            terms, lam, phase = [], lp, 1j
        return phase, terms + [
            (l + lam, lam, qq, pref * _cross_rows(lp, lam, qq)) for qq in (-1, 1)]
    side = rho ** (l + 1) * (a22 - a12)
    if p == V:
        root = mp.sqrt(norm_factor(V, lp))
        k, lams, phase = lp + 1, (lp + 1, lp + 3), 1.0
        terms = [(l + lp + 1, lp, 0, one * (
            -rho ** (l + 1) * a22 * r ** (lp + 1) * (2 * l + 1) * (lp + 1)))]
        coupled = rho ** (l + 1) * a22 * r ** (lp + 1) * (2 * l + 1) * root
    elif p == X:
        root = mp.sqrt(norm_factor(X, lp))
        k, lams, phase = lp, (lp, lp + 2), -1j
        terms = []
        coupled = rho ** (l + 1) * a22 * r**lp * (2 * l + 1) * root
    else:
        n2 = norm_factor(W, lp)
        root = mp.sqrt(n2)
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
            terms += [(l + lam, lam, qq, 2 * side * root * r**lam
                       * _axis_rows(k, lp, lam, qq)) for qq in (-1, 1)]
    terms += [(l + k, k, qq, coupled * _cg_rows(k, lp, qq)) for qq in (-1, 1)]
    return phase, terms


def _block(p, q, lp, l, rho, params):
    """``(s, plus)``: the ``(+)`` coefficients of the orders ``s`` and
    ``s + 2`` of every real order pair, shape ``(2, 2 lp + 1, 2 l + 1)``."""
    s = l + lp + _ORDER_OFFSET[p, q]
    phase, terms = _terms(p, q, lp, l, rho, params)
    kernel = np.zeros((2, 2 * lp + 1, 2 * l + 1), dtype=object)
    for order, lam, qq, weights in terms:
        start = lam + 2 - lp - qq
        rows = _padded(l, lam)[start:start + 2 * lp + 1]
        kernel[(order - s) // 2] += weights[:, None] * rows
    real = _real_orders(_real_orders(kernel).swapaxes(1, 2), row=True)
    return s, mpc(phase) * real.swapaxes(1, 2)


def reference_matrix(l_max, alpha, rho, params):
    """``M(alpha)`` at ``DPS`` digits, as an object array of ``mpc``."""
    basis = BasisMap(l_max)
    ids = {}
    for i, (l, _m, fam) in enumerate(basis.labels):
        ids.setdefault((l, fam), []).append(i)
    values = [mpc(v) for v in line_values(alpha, 2 * l_max + 3)]
    rho = mpf(rho)
    out = np.full((basis.n_eff, basis.n_eff), mpc(0), dtype=object)
    for (lp, p), rows in ids.items():
        for (l, q), cols in ids.items():
            if (p, q) not in _STORED:
                continue
            s, plus = _block(p, q, lp, l, rho, params)
            for a, i in enumerate(rows):
                for b, j in enumerate(cols):
                    out[i, j] = sum(plus[k, a, b] * values[order - 1]
                                    for k, order in ((0, s), (1, s + 2)))
    for i, (l, _m, fam) in enumerate(basis.labels):
        a11, _a12, a22, a33 = _response(l, params)
        tau = {Family.V: a11, Family.W: a22, Family.X: a33}[fam]
        out[i, i] += rho * tau * norm_factor(fam, l)
    return out


@pytest.mark.parametrize("l_max, alpha, rho, params, tol", [
    # rho = 0.45 (the largest couplings) and a sign-flipped material; with
    # the closed spin-1 weights the float64 route is 2.7e-16 and 2.8e-16 of
    # the largest entry off at L = 7 and L = 9 (with Racah's weights 4.9e-16
    # at both, and the per-entry route before them 1.6e-15 at L = 7)
    pytest.param(2, 0.7, 0.45, LameParams(1.5, 0.8, sign_flip=True), 1e-15, id="2-0.7"),
    pytest.param(7, 2.9, 0.45, LameParams(1.5, 0.8, sign_flip=True), 4e-16, id="7-2.9"),
    pytest.param(9, 1.9, 0.45, LameParams(1.5, 0.8, sign_flip=True), 4e-16, id="9-1.9"),
    # a second radius and material for the per-call scale of one geometry
    pytest.param(4, 1.3, 0.17, LameParams(0.3, 2.1), 1e-15, id="4-1.3-rho0.17"),
])
def test_matrix_against_high_precision(l_max, alpha, rho, params, tol):
    matrix = assemble_single(alpha, rho, params, l_max).matrix
    with mp.workdps(DPS):
        ref = reference_matrix(l_max, alpha, rho, params)
        err = max(abs(mpc(x) - r) for x, r in zip(matrix.ravel(), ref.ravel()))
        scale = max(abs(r) for r in ref.ravel())
        assert float(err / scale) <= tol
