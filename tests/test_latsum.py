import functools
import itertools
import math

import numpy as np
import pytest

from sphelast import latsum
from sphelast.assembly import _DegreeBlocks, _contract, _per_copy_values
from sphelast.latsum import (
    AXIS_COMPONENT,
    DimerGeometry,
    LatticeSumOverflow,
    QuasiMomentumSingular,
    _product,
    dimer_values,
    lerch_orders,
    line_values,
    polylog_orders,
    reduce_alpha,
)
from sphelast.oracle import lerch_ref, polylog_ref
from sphelast.translation import cross_coeff, decay_coeff
from sphelast.vsh import rhat_dot_a_expand

from conftest import kernel_coef

GEOM = DimerGeometry(0.2, 0.1)
S_MAX = 8
BLOCKS = _DegreeBlocks(S_MAX)


def _closed(method, *args, alpha, block=None):
    """Closed-form phased sum of one coefficient family: its trace
    coefficients contracted with the polylog (or, for a dimer block, Lerch)
    values, the real and imaginary parts of a cross kernel's coefficients
    one at a time."""
    order, coef = kernel_coef(BLOCKS, method, *args)
    if block is None:
        vals = line_values(alpha, S_MAX)
    else:
        vals = dimer_values(alpha, GEOM, S_MAX)[("21", "12").index(block)]
    order, coef = np.array([order]), coef[None]
    return complex(_contract(order, coef.real, vals)[0]
                   + 1j * _contract(order, coef.imag, vals)[0])


def _polylog(s, alpha):
    """``Li_s(e^{i alpha})``, the last value of the shortest vector holding
    order ``s``."""
    return complex(polylog_orders(alpha, s)[s - 1])


def _lerch(s, alpha, sign, offset):
    """``Phi(e^{i sign alpha}, s, offset)``, read like ``_polylog``."""
    value = complex(lerch_orders(alpha, offset, s)[s - 1])
    return value if sign > 0 else value.conjugate()


def _chunked_polylog_sum(s, alpha, sign, terms):
    total = 0.0 + 0.0j
    for start in range(1, terms + 1, 10**6):
        k = np.arange(start, min(start + 10**6, terms + 1), dtype=float)
        total += np.sum(np.exp(sign * 1j * alpha * k) / k**s)
    return total


class TestPolylog:
    def test_log_value(self):
        assert _polylog(1, math.pi) == pytest.approx(-math.log(2))

    def test_dilog_value(self):
        assert abs(_polylog(2, math.pi) + math.pi**2 / 12) <= 1e-12

    def test_long_truncation(self):
        brute = _chunked_polylog_sum(3, math.pi / 2, 1, 10**7)
        assert abs(_polylog(3, math.pi / 2) - brute) <= 1e-12

    def test_singular_phase(self):
        with pytest.raises(QuasiMomentumSingular):
            polylog_orders(0.0, 1)
        with pytest.raises(QuasiMomentumSingular):
            polylog_orders(2 * math.pi, 2)


class TestLerch:
    def test_index_shift_identity(self):
        for s in (2, 3, 5):
            z = complex(math.cos(1.3), math.sin(1.3))
            assert abs(
                _lerch(s, 1.3, 1, 1.0) * z - _polylog(s, 1.3)
            ) <= 1e-12

    def test_truncation_match(self):
        k = np.arange(0, 10**6, dtype=float)
        brute = np.sum(np.exp(1j * math.pi * k) / (k + 0.5) ** 2)
        assert abs(_lerch(2, math.pi, 1, 0.5) - brute) <= 1e-9

    def test_order_one_offsets(self):
        # conditionally convergent case against a long smoothed truncation
        alpha, dd = 1.0, 0.4
        n = 2 * 10**6
        k = np.arange(0, n, dtype=float)
        terms = np.exp(1j * alpha * k) / (k + dd)
        partial = np.cumsum(terms)
        tail_window = partial[-200_000:]
        brute = tail_window.mean()
        assert abs(_lerch(1, alpha, 1, dd) - brute) <= 1e-10

    def test_offset_validation(self):
        with pytest.raises(ValueError):
            lerch_orders(1.0, 0.0, 2)
        with pytest.raises(ValueError):
            lerch_orders(1.0, 1.5, 2)


class TestValueVectors:
    def test_line_layout(self):
        # one value per order, Li_s(e^{i alpha}) + (-1)^(s+1) Li_s(e^{-i
        # alpha}): exactly real at odd orders and exactly imaginary at even
        for alpha in (1.7, math.pi, -0.3, 2 * math.pi - 1e-6):
            plus = polylog_orders(alpha, 9)
            vals = line_values(alpha, 9)
            assert vals.shape == (9,)
            for s in range(1, 10):
                assert vals[s - 1] == plus[s - 1] + (-1) ** (s + 1) * plus[s - 1].conjugate()
            assert np.all(vals[0::2].imag == 0)
            assert np.array_equal(vals[0::2].real, 2 * plus[0::2].real)
            assert np.all(vals[1::2].real == 0)
            assert np.array_equal(vals[1::2].imag, 2 * plus[1::2].imag)

    def test_dimer_phase_factors(self):
        # u21 = far + (-1)^(s+1) conj(near), u12 = near + (-1)^(s+1)
        # conj(far), exactly; far carries the Bloch factor e^{i alpha}
        alpha = 1.7
        z = complex(math.cos(alpha), math.sin(alpha))
        near = lerch_orders(alpha, 2 * GEOM.d, 6)
        far = _product(lerch_orders(alpha, 1 - 2 * GEOM.d, 6), z)
        v21, v12 = dimer_values(alpha, GEOM, 6)
        for s in range(1, 7):
            n_s, f_s = near[s - 1], far[s - 1]
            if s % 2:
                assert v21[s - 1] == f_s + n_s.conjugate()
                assert v12[s - 1] == n_s + f_s.conjugate()
            else:
                assert v21[s - 1] == f_s - n_s.conjugate()
                assert v12[s - 1] == n_s - f_s.conjugate()
            assert f_s == pytest.approx(z * _lerch(s, alpha, 1, 1 - 2 * GEOM.d))

    @pytest.mark.parametrize("alpha", [1e-6, 1.7, math.pi, -0.3, 7.5])
    def test_dimer_blocks_mirror_each_other(self, alpha):
        # u12 = (-1)^(s+1) conj u21, bit for bit
        v21, v12 = dimer_values(alpha, DimerGeometry(0.3, 0.1), 35)
        sign = (-1.0) ** np.arange(35)
        assert np.array_equal(v12.real, sign * v21.real)
        assert np.array_equal(v12.imag, -sign * v21.imag)

    def test_bad_phases(self):
        # the value functions validate the phase themselves
        for call in (
            lambda alpha: line_values(alpha, 3),
            lambda alpha: dimer_values(alpha, GEOM, 3),
        ):
            for alpha in (0.0, 2 * math.pi, -2 * math.pi):
                with pytest.raises(QuasiMomentumSingular):
                    call(alpha)
            for alpha in (math.nan, math.inf):
                with pytest.raises(ValueError, match="finite"):
                    call(alpha)


class TestCache:
    def test_determinism(self):
        alpha = 1.7
        vals = line_values(alpha, 6)
        v21, v12 = dimer_values(alpha, GEOM, 6)
        assert np.array_equal(line_values(alpha, 6), vals)
        for again, first in zip(dimer_values(alpha, GEOM, 6), (v21, v12)):
            assert np.array_equal(again, first)
        # each value equals the last value of the shortest vector holding
        # its order
        for s in range(1, 7):
            assert vals[s - 1] == line_values(alpha, s)[-1]
            for short, full in zip(dimer_values(alpha, GEOM, s), (v21, v12)):
                assert short[-1] == full[s - 1]

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            DimerGeometry(0.05, 0.1)           # overlapping inside the cell
        with pytest.raises(ValueError):
            DimerGeometry(0.45, 0.1)           # overlapping across cells
        with pytest.raises(ValueError):
            DimerGeometry(0.2, 0.6)


# Accuracy gate of the float64 values against the 30-digit mpmath oracle:
# orders 1..16 (a basis of degree <= 6 uses up to 2L + 3 = 15) and three far
# beyond, at phases next to the resonance, inside the zone and at its edge.
GATE_ORDERS = (*range(1, 17), 23, 40, 131)
GATE_ALPHAS = (1e-6, 0.3, 1.3, math.pi, 5.0, 2 * math.pi - 0.3)
GATE_OFFSETS = (0.02, 0.14, 0.5, 0.96, 1.0)
GATE = 1e-14
NEGATIVE_ALPHAS = (-1e-6, -1e-3, -0.3)


@functools.lru_cache(maxsize=None)
def _lerch_reference(s, alpha, offset):
    """``lerch_ref`` at sign +1, computed once per point: the negative-phase
    test reuses the positive phases of the gate by conjugation."""
    return lerch_ref(s, alpha, 1, offset)


def _gate_error(value, ref):
    return abs(value - ref) / max(1.0, abs(ref))


def _line_ref(s, alpha, plus):
    """The reference of ``line_values``: ``plus`` (the reference at sign +1)
    plus ``(-1)^(s+1)`` times the reference at sign -1."""
    return plus + (-1) ** (s + 1) * polylog_ref(s, alpha, -1)


class TestFloat64Values:
    def test_polylog_against_oracle(self):
        worst = 0.0
        for alpha in GATE_ALPHAS:
            plus = polylog_orders(alpha, GATE_ORDERS[-1])
            line = line_values(alpha, GATE_ORDERS[-1])
            for s in GATE_ORDERS:
                ref = polylog_ref(s, alpha, 1)
                worst = max(
                    worst,
                    _gate_error(plus[s - 1], ref),
                    _gate_error(line[s - 1], _line_ref(s, alpha, ref)),
                )
        assert worst <= GATE

    def test_polylog_at_negative_phases(self):
        # a negative phase is reduced from the raw input, not via 2 pi - |alpha|
        worst = 0.0
        for alpha in NEGATIVE_ALPHAS:
            plus = polylog_orders(alpha, GATE_ORDERS[-1])
            line = line_values(alpha, GATE_ORDERS[-1])
            for s in GATE_ORDERS:
                ref = polylog_ref(s, alpha, 1)
                worst = max(
                    worst,
                    _gate_error(plus[s - 1], ref),
                    _gate_error(line[s - 1], _line_ref(s, alpha, ref)),
                )
        assert worst <= GATE

    def test_lerch_against_oracle(self):
        # Phi(conj z, s, a) = conj Phi(z, s, a) for real s and a, so one
        # reference per phase serves both signs
        worst = 0.0
        for alpha in GATE_ALPHAS:
            for offset in GATE_OFFSETS:
                plus = lerch_orders(alpha, offset, GATE_ORDERS[-1])
                for s in GATE_ORDERS:
                    ref = _lerch_reference(s, alpha, offset)
                    worst = max(
                        worst,
                        _gate_error(plus[s - 1], ref),
                        _gate_error(
                            _lerch(s, alpha, -1, offset), ref.conjugate()
                        ),
                    )
        assert worst <= GATE

    def test_lerch_at_negative_phases(self):
        worst = 0.0
        for alpha in NEGATIVE_ALPHAS:
            # at d = 1/4 both coupling blocks read the gated offset 1/2
            v21, v12 = dimer_values(alpha, DimerGeometry(0.25, 0.1), GATE_ORDERS[-1])
            for offset in GATE_OFFSETS:
                plus = lerch_orders(alpha, offset, GATE_ORDERS[-1])
                for s in GATE_ORDERS:
                    ref = _lerch_reference(s, -alpha, offset).conjugate()
                    worst = max(
                        worst,
                        _gate_error(plus[s - 1], ref),
                        _gate_error(
                            _lerch(s, alpha, -1, offset), ref.conjugate()
                        ),
                    )
                    if offset == 0.5:
                        # both sides of both blocks read the offset 1/2
                        sign, z = (-1) ** (s + 1), complex(math.cos(alpha), math.sin(alpha))
                        worst = max(
                            worst,
                            _gate_error(v12[s - 1], ref + sign * (z * ref).conjugate()),
                            _gate_error(v21[s - 1], z * ref + sign * ref.conjugate()),
                        )
        assert worst <= GATE

    def test_longer_vectors_repeat_shorter_ones(self):
        # what lets a value read from a vector of any length agree bit for
        # bit
        for alpha in (0.3, 5.0):
            for offset in (None, 0.14, 1.0):
                if offset is None:
                    vecs = [polylog_orders(alpha, n) for n in range(1, 41)]
                else:
                    vecs = [lerch_orders(alpha, offset, n) for n in range(1, 41)]
                for n, vec in enumerate(vecs, 1):
                    assert np.array_equal(vec, vecs[-1][:n])

    def test_conjugate_phase_is_bitwise_conjugate(self):
        # dyadic phases, so that 2 pi - alpha is exact in float64
        for alpha in (0.25, 1.25, 2.75, 4.5):
            vals = line_values(alpha, 16)
            assert np.array_equal(line_values(2 * math.pi - alpha, 16), vals.conj())

    def test_values_beyond_float64_rejected(self):
        # (4e-30)^-10 is 1e293, (4e-30)^-11 past the float64 range
        assert np.isfinite(lerch_orders(1.3, 4e-30, 10)).all()
        with pytest.raises(LatticeSumOverflow):
            lerch_orders(1.3, 4e-30, 11)
        with pytest.raises(LatticeSumOverflow):
            dimer_values(1.3, DimerGeometry(2e-30, 1e-30), 11)


def _sequential_bernoulli_poly(a):
    """``latsum._bernoulli_poly`` with one Python Horner loop per degree."""
    low = []
    for m in range(1, latsum._POLY + 1):
        value = 0.0
        for k in range(m + 1):
            value = value * a + float(math.comb(m, k) * latsum._B[k])
        low.append(value)
    return np.concatenate([low, latsum._bernoulli_poly(a)[latsum._POLY:]])


def _sequential_bracket(theta, a, s_max):
    """``latsum._bracket`` as a loop over the zeta orders ``t``, each adding
    its term to every order ``s >= t``: the reference for the table pass."""
    tail = latsum._TAIL
    n_terms = s_max + tail
    magnitude = [1.0]
    for j in range(1, n_terms):
        magnitude.append(magnitude[-1] * theta / j)
    powers = np.array(magnitude) * np.resize([1, 1j, -1, -1j], n_terms)
    harmonic = np.cumsum(np.r_[0.0, 1.0 / np.arange(1, s_max)])[:s_max]
    log_mu = complex(math.log(theta), -math.pi / 2)
    pole = harmonic - latsum._EULER_GAMMA - latsum._digamma(a) - log_mu
    zeta = [
        *(-_sequential_bernoulli_poly(a)[::-1] / np.arange(tail, 0, -1)),
        pole,
        *(latsum._hurwitz(t, a) for t in range(2, s_max + 1)),
    ]
    total = np.zeros(s_max, dtype=complex)
    for t, coef in zip(range(1 - tail, s_max + 1), zeta):
        first = max(t, 1)   # the lowest order with a zeta(t, a) term
        total[first - 1:] += coef * powers[first - t:s_max + 1 - t]
    return total


def _bracket_cases():
    yield from itertools.product(
        (1, 2, 7, 9, 13, 35, 40, 131),
        (1e-9, 0.01, 0.3, 1.3, 3.1, math.pi),
        (1.0, 0.96, 0.37, 0.02, 1e-3),
    )
    rng = np.random.default_rng(15)
    for _ in range(300):
        yield (
            int(rng.integers(1, 132)),
            math.pi * (1.0 - rng.random()),
            10.0 ** rng.uniform(-4.0, 0.0),
        )


def test_bracket_matches_sequential_loop_bitwise():
    overflowed = 0
    for s_max, theta, a in _bracket_cases():
        with np.errstate(over="ignore", invalid="ignore"):
            ref = _sequential_bracket(theta, a, s_max)
            got = latsum._bracket(theta, a, s_max)
        finite = np.isfinite(ref)
        assert np.array_equal(got[finite], ref[finite]), (s_max, theta, a)
        if not finite.all():
            # so that lerch_orders still raises LatticeSumOverflow
            overflowed += 1
            assert not np.isfinite(got).all(), (s_max, theta, a)
    assert overflowed > 0   # the grid reaches past the float64 range


def _brute_line(coeff_fn, alpha, n_max):
    total = 0.0 + 0.0j
    for n in range(1, n_max + 1):
        total += coeff_fn(float(n)) * complex(
            math.cos(alpha * n), -math.sin(alpha * n)
        )
        total += coeff_fn(float(-n)) * complex(
            math.cos(alpha * n), math.sin(alpha * n)
        )
    return total


def _shell_sums(kernel_values, ns, alpha, n_max):
    """Cumulative phased shell sums S(1..n_max) from per-shift values."""
    phased = kernel_values * np.exp(-1j * alpha * ns)
    pos = phased[n_max:]
    neg = phased[:n_max][::-1]
    return np.cumsum(pos + neg)


def _kernel_series(method, args, alpha, n_max, shift=0.0):
    ns = np.arange(1, n_max + 1, dtype=float)
    allns = np.concatenate([-ns[::-1], ns])
    order, coef = kernel_coef(BLOCKS, method, *args)
    return _shell_sums(
        _per_copy_values(order, coef, shift + allns), allns, alpha, n_max)


def _windowed_limit(series, window=400):
    """Estimate the limit of an oscillating partial-sum sequence by a
    trailing-window mean."""
    return complex(series[-window:].mean())


def _shift_vec(nval):
    return np.array([-nval, 0.0, 0.0])


class TestBlochSums:
    # brute-force side built directly from the per-shift coefficients,
    # independent of the closed forms under test

    def test_plain_sum_scalar_route(self):
        # small scalar-loop sum straight from the coefficient definition
        alpha = math.pi / 2
        l, lam, m, mu = 1, 1, 0, 0
        brute = _brute_line(
            lambda n: decay_coeff(l, lam, m, mu, _shift_vec(n)), alpha, 3000
        )
        closed = _closed("plain", l, lam, m, mu, alpha=alpha)
        assert abs(closed - brute) <= 1e-8

    def test_plain_sum(self):
        alpha = math.pi / 2
        for l, lam, m, mu in [(1, 1, 0, 0), (2, 1, 1, 0), (1, 2, -1, 1)]:
            series = _kernel_series(
                "plain", (l, lam, m, mu), alpha, 20000
            )
            closed = _closed("plain", l, lam, m, mu, alpha=alpha)
            assert abs(closed - series[-1]) <= 1e-8

    def test_axis_sum_scalar_route(self):
        alpha = 0.9
        q, (l, lam, m, mu) = 1, (1, 1, 0, 0)
        brute = _brute_line(
            lambda n: rhat_dot_a_expand(_shift_vec(n))[q]
            * decay_coeff(l, lam, m, mu, _shift_vec(n)),
            alpha, 3000,
        )
        closed = _closed("axis", l, lam, m, mu, q, alpha=alpha)
        assert abs(closed - brute) <= 1e-6

    def test_axis_sum(self):
        alpha = 0.9
        for q in (-1, 1):
            for l, lam, m, mu in [(1, 1, 0, 0), (2, 2, 1, -1)]:
                series = _kernel_series(
                    "axis", (l, lam, m, mu, q), alpha, 20000
                )
                closed = _closed("axis", l, lam, m, mu, q, alpha=alpha)
                assert abs(closed - _windowed_limit(series)) <= 1e-9
        assert _closed("axis", 1, 1, 0, 0, 0, alpha=alpha) == 0.0

    def test_moment_sum(self):
        alpha = 2.3
        for l, lam, m, mu in [(1, 1, 0, 0), (1, 2, 0, 0), (2, 2, 1, 1)]:
            series = _kernel_series(
                "moment", (l, lam, m, mu), alpha, 40000
            )
            closed = _closed("moment", l, lam, m, mu, alpha=alpha)
            assert abs(closed - _windowed_limit(series)) <= 1e-7

    def test_cross_sum_scalar_route(self):
        alpha = 1.1
        l, j, lam, m, mu, q, m1 = 1, 1, 1, 0, 0, 1, 0
        brute = _brute_line(
            lambda n: cross_coeff(l, j, lam, m, mu, q, m1, _shift_vec(n)),
            alpha, 3000,
        )
        closed = _closed("cross", l, j, lam, m, mu, q, m1, alpha=alpha)
        assert abs(closed - brute) <= 1e-6

    def test_cross_sum(self):
        alpha = 1.1
        for l, j, lam, m, mu, q, m1 in [
            (1, 1, 1, 0, 0, 1, 0),
            (2, 1, 1, 1, 0, -1, 0),
            (1, 2, 2, 0, 1, 1, -1),
        ]:
            series = _kernel_series(
                "cross", (l, j, lam, m, mu, q, m1), alpha, 20000
            )
            closed = _closed("cross", l, j, lam, m, mu, q, m1, alpha=alpha)
            assert abs(closed - _windowed_limit(series)) <= 1e-9

    def test_cross_sum_zero_axis_order(self):
        assert _closed("cross", 1, 1, 1, 0, 0, 0, 1, alpha=1.0) == 0.0

    def test_convergence_order(self):
        # the truncation-error envelope decays with the predicted power;
        # single checkpoints oscillate, so the envelope is taken as the max
        # over a trailing shell window
        alpha = 1.3
        window = 40
        for (l, lam, m, mu), fn, closed, predicted in [
            ((1, 1, 0, 0), "plain", _closed("plain", 1, 1, 0, 0, alpha=alpha), 3),
            ((1, 1, 0, 0), "moment", _closed("moment", 1, 1, 0, 0, alpha=alpha), 1),
            ((2, 2, 1, 1), "moment", _closed("moment", 2, 2, 1, 1, alpha=alpha), 3),
        ]:
            series = _kernel_series(
                fn, (l, lam, m, mu), alpha, 10000
            )
            err = np.abs(closed - series)
            env3 = err[1000 - window:1000].max()
            env4 = err[-window:].max()
            if env4 <= 1e-13:
                continue
            observed = math.log10(env3 / env4)
            assert observed >= predicted - 0.2

    def test_conjugation_swap(self):
        # flipping the phase sign conjugates the sum whenever the equator
        # harmonics involved are real (even l+lam+m-mu)
        alpha = 0.8
        for l, lam, m, mu in [(1, 1, 0, 0), (2, 2, 1, 1), (1, 3, 0, 0)]:
            if (l + lam + m - mu) % 2 != 0:
                continue
            a = _closed("plain", l, lam, m, mu, alpha=alpha)
            b = _closed("plain", l, lam, m, mu, alpha=2 * math.pi - alpha)
            assert abs(b - np.conj(a)) <= 1e-13


class TestDimerSums:
    def test_against_shifted_truncation(self):
        alpha = 1.3
        for block, off in (("21", 2 * GEOM.d), ("12", -2 * GEOM.d)):
            for l, lam, m, mu in [(1, 1, 0, 0), (2, 1, 1, 0)]:
                series = _kernel_series(
                    "plain", (l, lam, m, mu), alpha, 20000, shift=off
                )
                brute = (
                    decay_coeff(l, lam, m, mu, _shift_vec(off)) + series[-1]
                )
                closed = _closed(
                    "plain", l, lam, m, mu, alpha=alpha, block=block
                )
                assert abs(closed - brute) <= 1e-7

    def test_axis_and_moment_variants(self):
        alpha = 0.7
        l, lam, m, mu = 1, 1, 0, 0
        for block, off in (("21", 2 * GEOM.d), ("12", -2 * GEOM.d)):
            series = _kernel_series(
                "axis", (l, lam, m, mu, -1), alpha, 20000, shift=off
            )
            center = rhat_dot_a_expand(_shift_vec(off))[-1] * decay_coeff(
                l, lam, m, mu, _shift_vec(off)
            )
            closed = _closed("axis", l, lam, m, mu, -1, alpha=alpha, block=block)
            assert abs(closed - (center + _windowed_limit(series))) <= 1e-8
            series = _kernel_series(
                "moment", (l, lam, m, mu), alpha, 40000, shift=off
            )
            center = off * off * decay_coeff(l, lam, m, mu, _shift_vec(off))
            closed = _closed("moment", l, lam, m, mu, alpha=alpha, block=block)
            # first-order tail: the windowed mean itself carries O(K/N^2) bias
            assert abs(closed - (center + _windowed_limit(series))) <= 5e-6

    def test_cross_variant(self):
        alpha = 2.1
        l, j, lam, m, mu, q, m1 = 1, 1, 1, 0, 0, 1, 0
        for block, off in (("21", 2 * GEOM.d), ("12", -2 * GEOM.d)):
            series = _kernel_series(
                "cross", (l, j, lam, m, mu, q, m1),
                alpha, 20000, shift=off,
            )
            center = cross_coeff(l, j, lam, m, mu, q, m1, _shift_vec(off))
            closed = _closed(
                "cross", l, j, lam, m, mu, q, m1, alpha=alpha, block=block
            )
            assert abs(closed - (center + _windowed_limit(series))) <= 1e-8

    def test_blocks_cover_full_shifted_lattice(self):
        # the two coupling sums together run over every copy of the
        # half-offset lattice {2d + n} union {-2d + n}
        alpha = 1.3
        l, lam, m, mu = 1, 1, 0, 0
        both = _closed(
            "plain", l, lam, m, mu, alpha=alpha, block="21"
        ) + _closed("plain", l, lam, m, mu, alpha=alpha, block="12")
        brute = 0.0 + 0.0j
        for off in (2 * GEOM.d, -2 * GEOM.d):
            series = _kernel_series(
                "plain", (l, lam, m, mu), alpha, 20000, shift=off
            )
            brute += decay_coeff(l, lam, m, mu, _shift_vec(off)) + series[-1]
        assert abs(both - brute) <= 1e-7


def test_order_one_sum_requires_nonzero_phase():
    # the lowest-degree squared-moment sum hits the logarithmic series
    with pytest.raises(QuasiMomentumSingular):
        _closed("moment", 1, 1, 0, 0, alpha=0.0)
    val = _closed("moment", 1, 1, 0, 0, alpha=1.0)
    assert np.isfinite(val)


def test_reduce_alpha():
    assert reduce_alpha(2 * math.pi + 1.0) == pytest.approx(1.0)
    with pytest.raises(QuasiMomentumSingular):
        reduce_alpha(4 * math.pi)


def test_non_finite_inputs_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            reduce_alpha(bad)
        with pytest.raises(ValueError):
            DimerGeometry(bad, 0.1)
        with pytest.raises(ValueError):
            DimerGeometry(0.2, bad)


def test_axis_component_table():
    assert AXIS_COMPONENT[-1] == pytest.approx(1 / math.sqrt(2))
    assert AXIS_COMPONENT[0] == 0.0
    assert AXIS_COMPONENT[1] == pytest.approx(-1 / math.sqrt(2))
