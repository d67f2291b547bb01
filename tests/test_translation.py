import math
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np
import pytest
from mpmath import mp, mpf

from sphelast.coupling import _binomials, binom_safe, cg, cross_weights, recoupling_weights
from sphelast.sphharm import solid_irregular, solid_regular
from sphelast.translation import (
    ConvergenceError,
    SingularityError,
    TruncationPolicy,
    combine_source,
    cross_coeff,
    decay_coeff,
    decay_prefactor,
    decay_prefactors,
    regular_coeff,
    translate_V_decay,
    translate_V_neg_l,
    translate_W,
    translate_W_neg_l,
    translate_X,
    translate_solid_irregular,
    translate_solid_regular,
)
from sphelast.verify import suite_translation, vector_series_residual
from sphelast.vsh import Family, vsh_real

EVALUATORS = {
    "growing": (translate_W, Family.W, lambda l: l - 1, False, 1),
    "decaying": (translate_V_decay, Family.V, lambda l: -l - 2, True, 0),
    "shifted-v": (translate_V_neg_l, Family.V, lambda l: -l, True, 0),
    "shifted-w": (translate_W_neg_l, Family.W, lambda l: -l, True, 1),
    "toroidal": (translate_X, Family.X, lambda l: -l - 1, True, 1),
}


class TestCoefficients:
    def test_regular_lambda_zero(self, rng):
        a = rng.normal(size=3)
        for l, m in [(2, 1), (3, -2), (1, 0)]:
            got = regular_coeff(l, 0, m, 0, a)
            expect = math.sqrt(2 * l + 1) * solid_regular(l, m, a)
            assert got == pytest.approx(expect, rel=1e-13)

    def test_decay_frozen_value(self):
        # all factors are rational here; the shift is two lattice units
        assert decay_coeff(1, 1, 0, 0, (2.0, 0, 0)) == pytest.approx(0.125)
        assert decay_coeff(1, 1, 0, 0, (2.0, 0, 0)) == pytest.approx(
            -2.0 * solid_irregular(2, 0, (2.0, 0, 0))
        )

    def test_prefactors_against_closed_forms(self):
        # the table, the scalar lookup and the cross prefactor built on it
        # (the cross weight times 1j times the decay prefactor, as in
        # cross_coeff) are the printed closed forms
        for l in range(4):
            for lam in range(4):
                table = decay_prefactors(l, lam)
                assert table.shape == (2 * lam + 1, 2 * l + 1)
                for m in range(-l - 1, l + 2):
                    for mu in range(-lam - 1, lam + 2):
                        bb = 0.0
                        if abs(m) <= l and abs(mu) <= lam:
                            bb = math.comb(l + lam + mu - m, lam + mu) * math.comb(
                                l + lam + m - mu, lam - mu)
                        expect = (-1.0) ** (lam + mu) * math.sqrt(
                            (2 * l + 1) / (2 * lam + 1) * bb)
                        assert decay_prefactor(l, lam, m, mu) == pytest.approx(
                            expect, rel=1e-15, abs=0.0)
                        if abs(m) <= l and abs(mu) <= lam:
                            assert table[mu + lam, m + l] == decay_prefactor(
                                l, lam, m, mu)
                        for j in range(max(0, lam - 2), lam + 1):
                            for q in (-1, 0, 1):
                                for m1 in (-1, 0, 1):
                                    couplings = cg(
                                        lam - 1, mu - m1, 1, m1, lam, mu
                                    ) * cg(lam - 1, mu - m1, 1, q + m1, j, mu + q)
                                    sgn = (q > m1) - (q < m1)
                                    printed = 1j * (-1.0) ** (lam + mu + q) * sgn * (
                                        math.sqrt(lam * (2 * l + 1) * bb) * couplings)
                                    pref = 1j * cross_weights(
                                        j, lam, q, m1, mu
                                    ) * decay_prefactor(l, lam, m, mu)
                                    assert pref == pytest.approx(
                                        printed, rel=1e-14, abs=1e-300)

    def test_decay_singularity(self):
        with pytest.raises(SingularityError):
            decay_coeff(1, 1, 1, 0, (0.0, 0, 0))

    def test_recoupling_selection_rules(self):
        # coupled degrees violating the triangle rule give exactly zero
        assert recoupling_weights(5, 1, 2, 0, 0, 0) == 0.0
        assert recoupling_weights(2, 2, 0, 0, 0, 1) == 0.0

    def test_cross_coeff_zero_cases(self, rng):
        a = rng.normal(size=3)
        # sgn(q - m1) = 0
        assert cross_coeff(1, 1, 1, 0, 0, 1, 1, a) == 0.0

    def test_decay_conjugation_on_axis(self):
        # on-axis shifts make the coefficient real for m = mu and give the
        # order-negation rule an explicit parity sign
        a = (3.0, 0, 0)
        for l in range(1, 4):
            for lam in range(1, 4):
                for m in range(-l, l + 1):
                    for mu in range(-lam, lam + 1):
                        lhs = decay_coeff(l, lam, -m, -mu, a)
                        rhs = (-1) ** (m + mu) * np.conj(
                            decay_coeff(l, lam, m, mu, a)
                        )
                        assert lhs == pytest.approx(rhs, abs=1e-14)
                        if m == mu:
                            assert abs(decay_coeff(l, lam, m, mu, a).imag) <= 1e-15


def test_binomial_table_matches_binom_safe():
    for size in (1 << p for p in range(10)):
        want = [[binom_safe(n, k) for k in range(size)] for n in range(size)]
        assert np.array_equal(_binomials(size), np.array(want)), size


class TestSolidReExpansion:
    def test_constant(self, rng):
        assert translate_solid_regular(0, 0, rng.normal(size=3), rng.normal(size=3)) == pytest.approx(1.0)

    def test_linear(self, rng):
        r, a = rng.normal(size=3), rng.normal(size=3)
        assert translate_solid_regular(1, 0, r, a) == pytest.approx(r[2] + a[2])

    def test_exactness(self, rng):
        worst = 0.0
        for _ in range(10):
            r = rng.normal(size=3)
            a = rng.normal(size=3)
            a *= rng.uniform(0.2, 2.0) / np.linalg.norm(a)
            for l in range(7):
                for m in range(-l, l + 1):
                    got = translate_solid_regular(l, m, r, a)
                    expect = solid_regular(l, m, r + a)
                    worst = max(
                        worst, abs(got - expect) / max(1.0, abs(expect))
                    )
        assert worst <= 1e-12

    def test_decaying_series(self, rng):
        pol = TruncationPolicy(lam_max=24)
        a = rng.normal(size=3)
        a /= np.linalg.norm(a)
        r = rng.normal(size=3)
        r *= 0.3 / np.linalg.norm(r)
        for l in range(4):
            for m in range(-l, l + 1):
                got, tail = translate_solid_irregular(
                    l, m, r, a, pol, with_tail=True
                )
                expect = solid_irregular(l, m, r + a)
                assert abs(got - expect) <= 1e-9
                assert abs(got - expect) <= max(10 * tail, 1e-12)

    def test_region_errors(self):
        with pytest.raises(ConvergenceError):
            translate_solid_irregular(1, 0, (1.0, 0, 0), (0.5, 0, 0))
        with pytest.raises(SingularityError):
            translate_solid_irregular(1, 0, (0.1, 0, 0), (0.0, 0, 0))


def _direct(fam, l, m, power, r, a):
    rp = np.asarray(r) + np.asarray(a)
    rpn = np.linalg.norm(rp)
    return rpn ** power(l) * vsh_real(fam, l, m, rp / rpn)


@pytest.mark.parametrize("name", list(EVALUATORS))
def test_series_match_direct_evaluation(name, rng):
    fn, fam, power, needs_pol, lmin = EVALUATORS[name]
    pol = TruncationPolicy(lam_max=28)
    a = np.array([1.0, 0.0, 0.0])
    r = rng.normal(size=3)
    r *= 0.25 / np.linalg.norm(r)
    for l in range(lmin, 5):
        for m in (-l, -1, 0, 1, l):
            if abs(m) > l:
                continue
            got = fn(l, m, r, a, pol) if needs_pol else fn(l, m, r, a)
            expect = _direct(fam, l, m, power, r, a)
            assert np.abs(got - expect).max() <= 1e-9


@pytest.mark.parametrize("name", list(EVALUATORS))
def test_series_off_axis_shift(name, rng):
    fn, fam, power, needs_pol, lmin = EVALUATORS[name]
    pol = TruncationPolicy(lam_max=28)
    a = np.array([0.5, -0.7, 0.4])
    r = rng.normal(size=3)
    r *= 0.2 * np.linalg.norm(a) / np.linalg.norm(r)
    l = max(lmin, 2)
    for m in (-2, 0, 1):
        got = fn(l, m, r, a, pol) if needs_pol else fn(l, m, r, a)
        expect = _direct(fam, l, m, power, r, a)
        assert np.abs(got - expect).max() <= 1e-9


def test_zero_order_branch_is_real(rng):
    pol = TruncationPolicy(lam_max=24)
    a = np.array([1.0, 0.0, 0.0])
    r = rng.normal(size=3)
    r *= 0.25 / np.linalg.norm(r)
    for name, (fn, fam, power, needs_pol, lmin) in EVALUATORS.items():
        l = max(lmin, 1)
        got = fn(l, 0, r, a, pol) if needs_pol else fn(l, 0, r, a)
        assert np.abs(got.imag).max() <= 1e-12


def test_reflection_covariance_of_order_branches(rng):
    # with the shift on the x-axis, reflecting the evaluation point
    # through the xz-plane multiplies each series by the order-sign parity
    # (the toroidal family is axial and picks up an extra minus), which
    # ties the positive- and negative-order branches to the same algebra
    pol = TruncationPolicy(lam_max=26)
    a = np.array([1.0, 0.0, 0.0])
    reflect = np.array([1.0, -1.0, 1.0])
    r = rng.normal(size=3)
    r *= 0.25 / np.linalg.norm(r)
    for name, (fn, fam, power, needs_pol, lmin) in EVALUATORS.items():
        axial = -1.0 if fam == Family.X else 1.0
        for l, m in [(2, 1), (2, -1), (3, 0), (3, -2)]:
            sign = (1.0 if m >= 0 else -1.0) * axial
            args = (pol,) if needs_pol else ()
            plain = fn(l, m, r, a, *args)
            mirrored = fn(l, m, r * reflect, a, *args)
            assert np.abs(mirrored - sign * reflect * plain).max() <= 1e-13


@pytest.mark.parametrize("ratio", [0.2, 0.4])
@pytest.mark.parametrize(
    "name", [n for n in EVALUATORS if n != "growing"]
)
def test_geometric_convergence(name, ratio, rng):
    # doubling the cutoff must gain accuracy consistently with the radius
    # ratio (the growing series is finite and exempt)
    fn, fam, power, _needs_pol, lmin = EVALUATORS[name]
    a = np.array([1.0, 0.0, 0.0])
    r = rng.normal(size=3)
    r *= ratio / np.linalg.norm(r)
    l, m = max(lmin, 2), 1
    direct = _direct(fam, l, m, power, r, a)
    res = {}
    for lam_max in (8, 16):
        got = fn(l, m, r, a, TruncationPolicy(lam_max=lam_max))
        res[lam_max] = np.abs(got - direct).max()
    if res[16] > 1e-14:
        observed = math.log(res[8] / res[16]) / (8 * math.log(1 / ratio))
        assert observed >= 0.6
    else:
        assert res[8] <= 1e-6


def test_toroidal_series_is_tangential(rng):
    pol = TruncationPolicy(lam_max=26)
    a = np.array([1.0, 0.0, 0.0])
    r = rng.normal(size=3)
    r *= 0.25 / np.linalg.norm(r)
    rp = r + a
    rp_hat = rp / np.linalg.norm(rp)
    for l, m in [(1, 0), (2, -1), (3, 2)]:
        got = translate_X(l, m, r, a, pol)
        assert abs(np.dot(rp_hat, got)) <= 1e-10


def test_convergence_region_enforced():
    pol = TruncationPolicy()
    with pytest.raises(ConvergenceError):
        translate_V_decay(1, 0, (1.2, 0, 0), (1.0, 0, 0), pol)
    with pytest.raises(SingularityError):
        translate_X(1, 0, (0.1, 0, 0), (0.0, 0, 0), pol)


def test_source_combination_cases():
    vals = {1: 2.0 + 1j, -1: 0.5 - 2j, 0: 3.0}
    f = vals.__getitem__
    assert combine_source(0, f) == 3.0
    assert combine_source(1, f) == pytest.approx(
        (vals[-1] - vals[1]) / math.sqrt(2)
    )
    assert combine_source(-1, f) == pytest.approx(
        1j * (vals[-1] + vals[1]) / math.sqrt(2)
    )


def _weight_keys(lam):
    """Every ``(q, m1)`` of one ``lam`` with the recoupling ``(k, j)`` and
    cross ``j`` degrees of the coupling rules."""
    for q in (-1, 0, 1):
        for m1 in (-1, 0, 1):
            pairs = [
                (k, j)
                for k in range(max(0, lam - 2), lam + 1)
                for j in range(abs(k - 1), k + 2)
            ]
            yield q, m1, pairs, range(max(0, lam - 2), lam + 1)


def _exact_cg_squared(j1, m1, j2, m2, j, m):
    """``(sign, cg^2)`` of ``cg(j1, m1, j2, m2, j, m)`` in exact
    arithmetic: Racah's single sum over integers."""
    if m != m1 + m2 or abs(m1) > j1 or abs(m2) > j2 or abs(m) > j:
        return 0, Fraction(0)
    if not abs(j1 - j2) <= j <= j1 + j2:
        return 0, Fraction(0)
    f = math.factorial
    pref = Fraction(
        (2 * j + 1) * f(j1 + j2 - j) * f(j1 - j2 + j) * f(-j1 + j2 + j)
        * f(j1 + m1) * f(j1 - m1) * f(j2 + m2) * f(j2 - m2) * f(j + m)
        * f(j - m),
        f(j1 + j2 + j + 1),
    )
    total = sum(
        Fraction((-1) ** k, f(k) * f(j1 + j2 - j - k) * f(j1 - m1 - k)
                 * f(j2 + m2 - k) * f(j - j2 + m1 + k) * f(j - j1 - m2 + k))
        for k in range(max(0, j2 - j - m1, j1 - j + m2),
                       min(j1 + j2 - j, j1 - m1, j2 + m2) + 1)
    )
    return (total > 0) - (total < 0), total * total * pref


@pytest.mark.parametrize("lam", [1, 2, 7, 30])
def test_array_weights_match_exact_values(lam):
    # both weights are a sign times the root of a rational: the arrays
    # agree with it to 1e-15 relative
    def exact(factors, root):
        sign, square = 1, Fraction(root)
        for args in factors:
            s, sq = _exact_cg_squared(*args)
            sign, square = sign * s, square * sq
        return sign * math.sqrt(square)

    worst = 0.0
    for q, m1, pairs, cross_js in _weight_keys(lam):
        for k, j in pairs:
            row = recoupling_weights(k, j, lam, m1, np.arange(-lam, lam + 1), q)
            for i, mu in enumerate(range(-lam, lam + 1)):
                want = (-1) ** q * exact(
                    [(lam - 1, mu - m1, 1, m1, lam, mu),
                     (1, q, lam - 1, mu - m1, k, q + mu - m1),
                     (1, 0, lam - 1, 0, k, 0),
                     (k, q + mu - m1, 1, m1, j, q + mu)],
                    Fraction(lam * (2 * lam + 1) * (2 * lam - 1), 2 * k + 1),
                )
                worst = max(worst, abs(row[i] - want) / max(abs(want), 1e-300))
        for j in cross_js:
            row = cross_weights(j, lam, q, m1, np.arange(-lam, lam + 1))
            sgn = (q > m1) - (q < m1)
            for i, mu in enumerate(range(-lam, lam + 1)):
                want = (-1) ** q * sgn * exact(
                    [(lam - 1, mu - m1, 1, m1, lam, mu),
                     (lam - 1, mu - m1, 1, q + m1, j, mu + q)],
                    lam * (2 * lam + 1),
                )
                worst = max(worst, abs(row[i] - want) / max(abs(want), 1e-300))
    assert worst <= 1e-15


@lru_cache(maxsize=None)
def _exact_cg(j1, m1, j2, m2, j, m):
    return _exact_cg_squared(j1, m1, j2, m2, j, m)


def _exact_term(sign, root, factors):
    """``(value, |value|)`` of ``sign * sqrt(root)`` times the product of
    the Clebsch-Gordan coefficients of ``factors``, at the working
    precision."""
    square = Fraction(root)
    for args in factors:
        s, sq = _exact_cg(*args)
        sign, square = sign * s, square * sq
    value = sign * mp.sqrt(mpf(square.numerator) / square.denominator)
    return value, abs(value)


def test_trace_row_weights_match_exact_values():
    # every row of weights that assembly._terms reads from the stacked
    # weight tables, for row degrees lp <= 16: -AXIS_COMPONENT[qq] times a
    # sum over m1 of terms at (lam, mu - qq), against the exact sum, to
    # 2e-15 of the sum of the terms' magnitudes (exactly 0 where every term is)
    from sphelast.assembly import _rows
    from sphelast.coupling import _weight_tables

    tables = _weight_tables(20)

    def recoupling(k, j, lam, qq, m1, mu):
        return _exact_term(
            (-1) ** qq, Fraction(lam * (2 * lam + 1) * (2 * lam - 1), 2 * k + 1),
            [(lam - 1, mu - m1, 1, m1, lam, mu),
             (1, qq, lam - 1, mu - m1, k, qq + mu - m1),
             (1, 0, lam - 1, 0, k, 0),
             (k, qq + mu - m1, 1, m1, j, qq + mu)])

    def radial(k, j, qq, m1, mu):
        # a single coupling: the term of m1 = 0 alone
        if m1:
            return mpf(0), mpf(0)
        return _exact_term((-1) ** qq, 1, [(k, mu, 1, qq, j, mu + qq)])

    def cross(j, lam, qq, m1, mu):
        return _exact_term(
            (-1) ** qq * ((qq > m1) - (qq < m1)), lam * (2 * lam + 1),
            [(lam - 1, mu - m1, 1, m1, lam, mu),
             (lam - 1, mu - m1, 1, qq + m1, j, mu + qq)])

    worst = 0.0
    with mp.workdps(40):
        for lp in range(17):
            # (table, lam, term) as _terms reads them, for row families
            # V (k = lp + 1), X (k = lp) and W (k = lp - 1)
            rows = []
            for k, lams in ((lp + 1, (lp + 1, lp + 3)), (lp, (lp, lp + 2)),
                            (lp - 1, (lp - 1, lp + 1))):
                if lp == 0 and k != 1:
                    continue
                for lam in lams:
                    if lam >= 1:
                        table = tables.recoupling[:, :, (lam - k) // 2]
                        rows.append((table, lam, lp - k + 1, partial(recoupling, k, lp, lam)))
                rows.append((tables.radial, k, lp - k + 1, partial(radial, k, lp)))
            for lam in (lp, lp + 1, lp + 2) if lp else (2,):
                rows.append((tables.cross, lam, lp - lam + 2, partial(cross, lp, lam)))
            for table, lam, j, term in rows:
                for qq in (-1, 1):
                    got = _rows(tables, table, np.array([[lam]]), j, qq, lp)[0]
                    for mu, value in zip(range(-lp, lp + 1), got):
                        parts = [term(qq, m1, mu - qq) for m1 in (-1, 0, 1)]
                        want = qq / mp.sqrt(2) * sum(v for v, _ in parts)   # -AXIS_COMPONENT[qq]
                        scale = sum(a for _, a in parts) / mp.sqrt(2)
                        if scale == 0:
                            assert value == 0.0
                        else:
                            worst = max(worst, float(abs(value - want) / scale))
    assert worst <= 2e-15


def test_vector_series_check_parallel_to_the_shift():
    # the truncation tail of the decaying series peaks for r parallel to a
    a = np.array([1.0, 0.0, 0.0])
    assert vector_series_residual(0.3 * a, a) <= 1e-9
    assert vector_series_residual(-0.3 * a, a) <= 1e-9


def test_vector_series_check_calls_the_module_attributes(monkeypatch):
    # a wrapper put on the module (as a tracer does) is the function the
    # check calls, and the growing series still gets no truncation policy
    import sphelast.translation as translation

    calls = []
    for name in ("translate_W", "translate_X"):
        def wrapped(*args, _fn=getattr(translation, name), _name=name):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(translation, name, wrapped)
    a = np.array([1.0, 0.0, 0.0])
    assert vector_series_residual(0.3 * a, a) <= 1e-9
    assert calls == ["translate_W", "translate_X"]


def test_translation_suite_passes_at_its_worst_known_seed():
    # the seed whose random r came nearly parallel to a (1.8e-9 against
    # the tolerance 1e-9 with the series cut at lam_max = 24)
    rows = suite_translation(np.random.default_rng(845589051))
    assert [name for name, residual, tol in rows if not residual <= tol] == []


def test_growing_check_margin_at_its_worst_known_seed():
    # the worst of 1500 seeds for the finite growing re-expansion: 6.2e-13
    # of the 1e-12 tolerance against the angle route solid_regular, whose
    # own error was most of it; solid_regular_table leaves 8.6e-14
    rows = suite_translation(np.random.default_rng(488520556))
    ((residual, tol),) = [
        (residual, tol) for name, residual, tol in rows
        if name == "finite growing re-expansion"
    ]
    assert tol == 1e-12
    assert residual <= 2e-13


def test_growing_table_check_catches_a_sign_the_addition_theorem_keeps(
    monkeypatch,
):
    # a factor (-1)^m on every growing solid harmonic leaves the addition
    # theorem true, so the re-expansion check cannot see it; the check of
    # the table against the angle route solid_regular does
    from sphelast import sphharm, translation

    good = sphharm.solid_regular_table

    def faulty(lmax, r):
        return good(lmax, r) * (-1.0) ** np.arange(-lmax, lmax + 1)

    monkeypatch.setattr(sphharm, "solid_regular_table", faulty)
    monkeypatch.setattr(translation, "solid_regular_table", faulty)
    rows = {name: (res, tol) for name, res, tol in
            suite_translation(np.random.default_rng(0))}
    residual, tol = rows["finite growing re-expansion"]
    assert residual <= tol
    residual, tol = rows["growing table vs scalar l<=4"]
    assert residual > 1e3 * tol


def test_translation_suite_takes_one_series_call_per_degree(monkeypatch):
    # the solid series run once per degree and sample over every order, and
    # the four decaying vector series at one point and shift share one
    # build of their tables
    from sphelast import translation

    calls = []
    for name in ("translate_solid_regular", "translate_solid_irregular"):
        def counted(l, m, *args, _fn=getattr(translation, name), _name=name):
            calls.append((_name, l, tuple(np.ravel(m))))
            return _fn(l, m, *args)

        monkeypatch.setattr(translation, name, counted)
    translation._series_tables.cache_clear()
    rows = suite_translation(np.random.default_rng(0))
    assert all(res <= tol for _name, res, tol in rows)
    growing = [call for call in calls if call[0] == "translate_solid_regular"]
    decaying = [call for call in calls if call[0] == "translate_solid_irregular"]
    assert len(growing) == 4 * 5 and len(decaying) == 4
    assert all(m == tuple(range(-l, l + 1)) for _name, l, m in calls)
    # the growing series and the four decaying ones
    assert translation._series_tables.cache_info().misses == 2
    translation._series_tables.cache_clear()
    r, a = np.array([0.1, -0.2, 0.15]), np.array([0.2, 0.9, -0.3])
    for fn in (translate_V_decay, translate_V_neg_l, translate_W_neg_l, translate_X):
        fn(2, 1, r, a)
    assert translation._series_tables.cache_info().misses == 1


def test_decaying_checks_fail_on_faulty_prefactors(monkeypatch):
    # a relative error of 1e-6 in the decay prefactors shows in the scalar
    # and in the vector decaying series
    from sphelast import translation

    good = translation.decay_prefactors
    monkeypatch.setattr(translation, "decay_prefactors",
                        lambda l, lam: good(l, lam) * (1 + 1e-6))
    rows = {name: (res, tol) for name, res, tol in
            suite_translation(np.random.default_rng(0))}
    for name in ("decaying re-expansion at ratio 0.3", "vector re-expansion series"):
        residual, tol = rows[name]
        assert residual > 10 * tol, name
