import math

import numpy as np
import pytest

from sphelast.coupling import binom_safe, cg, cg_spin1
from sphelast.translation import _growing_binomials, decay_prefactors


def test_trivial_coupling():
    assert cg(0, 0, 3, -2, 3, -2) == pytest.approx(1.0)


def test_spin_one_value():
    assert cg(1, 1, 1, 0, 2, 1) == pytest.approx(1 / math.sqrt(2))


def test_stretched_state():
    assert cg(1, 1, 1, 1, 2, 2) == pytest.approx(1.0)


def test_selection_rules_exact_zero():
    assert cg(1, 1, 1, 1, 2, 1) == 0.0          # m != m1 + m2
    assert cg(1, 0, 1, 0, 3, 0) == 0.0          # triangle violated
    assert cg(1, 0, 2, 3, 3, 3) == 0.0          # projection out of range


def test_known_table_values():
    # a handful of standard spin-coupling values
    assert cg(1, 0, 1, 0, 2, 0) == pytest.approx(math.sqrt(2 / 3))
    assert cg(1, 0, 1, 0, 0, 0) == pytest.approx(-1 / math.sqrt(3))
    assert cg(1, 1, 1, -1, 0, 0) == pytest.approx(1 / math.sqrt(3))
    assert cg(2, 0, 1, 0, 1, 0) == pytest.approx(-math.sqrt(2 / 5))


def test_orthogonality_sum():
    # sum over the coupled labels of products of two couplings
    for l in range(1, 7):
        for k in range(-l, l + 1):
            for kp in range(-l, l + 1):
                for s in (-1, 0, 1):
                    for sp in (-1, 0, 1):
                        total = 0.0
                        for j in range(l - 1, l + 2):
                            if j < 0:
                                continue
                            m = k + s
                            if m != kp + sp or abs(m) > j:
                                continue
                            total += cg(l, k, 1, s, j, m) * cg(
                                l, kp, 1, sp, j, m
                            )
                        expect = 1.0 if (k == kp and s == sp) else 0.0
                        assert total == pytest.approx(expect, abs=1e-13)


@pytest.mark.parametrize("l", range(11))
def test_closed_forms_match_general_formula(l):
    # the binomial forms of the stretched couplings, as the re-expansion
    # weights hold them: <lam mu; l-lam m-mu | l m> from the growing
    # binomials, <lam mu; l+lam m-mu | l m> from the decay prefactors
    for lam in range(l + 1):
        for m in range(-l, l + 1):
            got = np.sqrt(_growing_binomials(l, m, lam) / math.comb(2 * l, 2 * lam))
            want = [cg(lam, mu, l - lam, m - mu, l, m) for mu in range(-lam, lam + 1)]
            assert got == pytest.approx(want, abs=1e-13)
    for lam in range(5):
        scale = math.sqrt((2 * lam + 1) / (2 * l + 1) / math.comb(2 * l + 2 * lam + 1, 2 * lam))
        for m in range(-l, l + 1):
            got = decay_prefactors(l, lam)[:, m + l] * scale
            want = [cg(lam, mu, l + lam, m - mu, l, m) for mu in range(-lam, lam + 1)]
            assert got == pytest.approx(want, abs=1e-13)


def test_binom_safe_ranges():
    assert binom_safe(5, 2) == 10.0
    assert binom_safe(5, -1) == 0.0
    assert binom_safe(3, 4) == 0.0
    assert binom_safe(-2, 0) == 0.0


def test_factorial_overflow_guard():
    from sphelast.coupling import FactorialOverflow

    with pytest.raises(FactorialOverflow):
        cg(200, 0, 200, 0, 400, 0)


def test_spin_one_closed_forms_match_general_formula():
    # every projection, in range or not, and degrees past the triangle, in
    # one call broadcast over all four arguments
    j1 = np.arange(21)[:, None, None, None]
    args = np.broadcast_arrays(
        j1, np.arange(-22, 23)[:, None, None], np.arange(-2, 3)[:, None],
        j1 + np.arange(-2, 3))
    got = cg_spin1(*args)
    want = np.zeros(got.shape)
    for index in np.ndindex(got.shape):
        a, b, c, d = (int(x[index]) for x in args)
        want[index] = cg(a, b, 1, c, d, b + c)
    assert got == pytest.approx(want, rel=1e-13, abs=1e-15)
    assert np.array_equal(got == 0.0, np.abs(want) < 1e-15)
