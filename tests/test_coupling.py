import math

import numpy as np
import pytest

from sphelast.coupling import (
    binom_safe,
    cg,
    cg_irregular_closed,
    cg_regular_closed,
    cg_spin1,
)


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


def test_regular_closed_form_examples():
    assert cg_regular_closed(1, 0, 0, 0) == pytest.approx(1.0)
    assert cg_regular_closed(2, 1, 1, 1) == pytest.approx(1 / math.sqrt(2))


def test_irregular_closed_form_example():
    # equals the general coupling <1,0; 2,0 | 1,0> = -sqrt(2/5)
    val = cg_irregular_closed(1, 1, 0, 0)
    assert val == pytest.approx(-math.sqrt(2 / 5))
    assert val == pytest.approx(cg(1, 0, 2, 0, 1, 0))


@pytest.mark.parametrize("l", range(11))
def test_closed_forms_match_general_formula(l):
    for lam in range(l + 1):
        for m in range(-l, l + 1):
            for mu in range(-lam, lam + 1):
                assert cg_regular_closed(l, lam, m, mu) == pytest.approx(
                    cg(lam, mu, l - lam, m - mu, l, m), abs=1e-13
                )
    for lam in range(5):
        for m in range(-l, l + 1):
            for mu in range(-lam, lam + 1):
                assert cg_irregular_closed(l, lam, m, mu) == pytest.approx(
                    cg(lam, mu, l + lam, m - mu, l, m), abs=1e-13
                )


def test_out_of_range_closed_forms_are_zero():
    assert cg_regular_closed(2, 3, 0, 0) == 0.0
    assert cg_irregular_closed(2, -1, 0, 0) == 0.0
    assert cg_regular_closed(2, 1, 2, -1) == pytest.approx(
        cg(1, -1, 1, 3, 2, 2)
    )  # both zero


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
    # every projection, in range or not, and degrees past the triangle
    for j1 in range(12):
        m1 = np.arange(-j1 - 2, j1 + 3)
        for q in (-2, -1, 0, 1, 2):
            for j in range(max(0, j1 - 2), j1 + 3):
                got = cg_spin1(j1, m1, q, j)
                want = [cg(j1, int(x), 1, q, j, int(x) + q) for x in m1]
                assert got == pytest.approx(want, rel=1e-13, abs=1e-15)
                assert np.array_equal(got == 0.0, np.abs(want) < 1e-15)
