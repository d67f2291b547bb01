import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from sphelast.assembly import BasisMap
from sphelast import oracle, verify
from sphelast.oracle import (
    _lerch_direct,
    _lerch_plan,
    basis_samples,
    brute_lattice_entry,
    brute_potential,
    build_quadrature,
    finite_diff_gradient,
    inner_product_S2,
    lerch_ref,
)
from sphelast.sphharm import solid_irregular, solid_regular, ylm_complex
from sphelast.vsh import Family


class TestQuadrature:
    def test_weight_total(self):
        quad = build_quadrature(8)
        assert quad.weights.sum() == pytest.approx(4 * math.pi, abs=1e-13)

    def test_constant_integral(self):
        quad = build_quadrature(8)
        vals = np.array([ylm_complex(0, 0, d) for d in quad.directions()])
        assert np.sum(vals * quad.weights) == pytest.approx(
            2 * math.sqrt(math.pi), abs=1e-14
        )

    def test_unit_norm(self):
        quad = build_quadrature(8)
        vals = np.array([ylm_complex(3, 2, d) for d in quad.directions()])
        assert np.sum(np.abs(vals) ** 2 * quad.weights) == pytest.approx(
            1.0, abs=1e-13
        )

    def test_exactness_gate(self):
        # exact for harmonic products up to the declared degree
        quad = build_quadrature(12)
        worst = 0.0
        vals = {}
        for l in range(7):
            for m in range(-l, l + 1):
                vals[(l, m)] = np.array(
                    [ylm_complex(l, m, d) for d in quad.directions()]
                )
        for (l, m), f in vals.items():
            for (lp, mp), g in vals.items():
                if l + lp > 12:
                    continue
                ip = np.sum(f * g.conjugate() * quad.weights)
                expect = 1.0 if (l, m) == (lp, mp) else 0.0
                worst = max(worst, abs(ip - expect))
        assert worst <= 1e-13

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            build_quadrature(0)


class TestInnerProduct:
    def test_phase_extraction(self, quad16, rng):
        f = rng.normal(size=(quad16.n_nodes, 3))
        g = rng.normal(size=(quad16.n_nodes, 3))
        plain = inner_product_S2(f, g, quad16)
        phase = complex(math.cos(0.8), math.sin(0.8))
        assert inner_product_S2(f, phase * g, quad16) == pytest.approx(
            np.conj(phase) * plain
        )

    def test_shape_guard(self, quad16):
        with pytest.raises(ValueError):
            inner_product_S2(np.zeros((3, 3)), np.zeros((3, 3)), quad16)


class TestBrutePotential:
    @staticmethod
    def _samples(c, quad):
        # the density with coefficients c over BasisMap(1), on the grid
        return np.tensordot(c, basis_samples(BasisMap(1), quad), axes=(0, 0))

    def test_zero_density(self, params, quad16):
        basis = BasisMap(1)
        out = brute_potential(
            (1.0, 0, 0), self._samples(np.zeros(basis.n_eff), quad16),
            (0, 0, 0), 0.2, params, quad16,
        )
        assert np.abs(out).max() == 0.0

    def test_linearity(self, params, quad16, rng):
        basis = BasisMap(1)
        c1 = rng.normal(size=basis.n_eff)
        c2 = rng.normal(size=basis.n_eff)
        x = (0.9, 0.1, -0.2)

        def pot(c):
            return brute_potential(
                x, self._samples(c, quad16), (0, 0, 0), 0.2, params, quad16
            )

        out = pot(c1 + 2 * c2)
        parts = pot(c1) + 2 * pot(c2)
        assert np.abs(out - parts).max() <= 1e-14

    def test_proximity_guard(self, params, quad16):
        basis = BasisMap(1)
        with pytest.raises(ValueError):
            brute_potential(
                (0.201, 0, 0), self._samples(np.ones(basis.n_eff), quad16),
                (0, 0, 0), 0.2, params, quad16,
            )

    def test_multiple_targets(self, params, quad16):
        basis = BasisMap(1)
        c = np.ones(basis.n_eff)
        xs = np.array([[1.0, 0, 0], [0, 1.0, 0]])
        out = brute_potential(
            xs, self._samples(c, quad16), (0, 0, 0), 0.2, params, quad16
        )
        assert out.shape == (2, 3)

    def test_matches_direct_tensor(self, params, quad16, rng):
        # the pairwise sum against one kelvin_tensor product per target and
        # node, for a complex density on an off-centre ball
        from sphelast.kelvin import kelvin_tensor

        center, rho = np.array([0.3, -0.1, 0.2]), 0.2
        targets = center + rng.normal(size=(7, 3)) + np.array([3.0, 0, 0])
        density = rng.normal(size=(quad16.n_nodes, 3)) + 1j * rng.normal(
            size=(quad16.n_nodes, 3))
        out = brute_potential(targets, density, center, rho, params, quad16)
        sources = center + rho * quad16.nodes
        direct = np.zeros_like(out)
        for i, x in enumerate(targets):
            for y, w, f in zip(sources, rho * rho * quad16.weights, density):
                direct[i] += w * kelvin_tensor(x - y, params) @ f
        assert np.abs(out - direct).max() <= 1e-13


class TestBruteLatticeEntry:
    def test_zero_cut(self, params):
        assert brute_lattice_entry(
            Family.W, 1, 0, Family.W, 1, 0, 1.0, 0.1, params, 0
        ) == 0

    def test_phase_reflection_conjugates(self, params):
        alpha = 1.1
        a = brute_lattice_entry(Family.W, 1, 0, Family.W, 1, 0, alpha, 0.1, params, 300)
        b = brute_lattice_entry(
            Family.W, 1, 0, Family.W, 1, 0, 2 * math.pi - alpha, 0.1, params, 300
        )
        assert b == pytest.approx(np.conj(a), abs=1e-14)

    def test_partial_sums(self, params):
        total, partials = brute_lattice_entry(
            Family.W, 1, 0, Family.V, 1, 0, 1.0, 0.1, params, 100,
            checkpoints=[10, 100],
        )
        assert partials[100] == total
        assert partials[10] != total

    @pytest.mark.parametrize("shift, include_zero", [(0.0, False), (0.4, True)])
    def test_against_the_per_shell_sum(self, params, shift, include_zero):
        # every shell 0 < |n| <= 6 (and n = 0 for the dimer's coupling
        # copies), one per_copy_entries call each
        from sphelast.assembly import per_copy_entries

        alpha, rho, n_cut = 0.9, 0.1, 6
        ns = [n for n in range(-n_cut, n_cut + 1) if include_zero or n != 0]
        for label in [(Family.W, 1, 0, Family.V, 1, 0), (Family.X, 2, 1, Family.W, 1, -1)]:
            terms = {
                n: per_copy_entries(*label, [shift + n], rho, params)[0]
                * np.exp(-1j * alpha * n)
                for n in ns
            }
            total, partials = brute_lattice_entry(
                *label, alpha, rho, params, n_cut, shift=shift,
                include_zero=include_zero, checkpoints=[2, n_cut],
            )
            scale = max(abs(t) for t in terms.values())
            assert abs(total - sum(terms.values())) <= 1e-15 * scale
            assert partials[n_cut] == total
            low = sum(t for n, t in terms.items() if abs(n) <= 2)
            assert abs(partials[2] - low) <= 1e-15 * scale


class TestFiniteDifferences:
    def test_inverse_distance(self):
        grad = finite_diff_gradient(lambda p: 1.0 / np.linalg.norm(p), (1.0, 0, 0))
        assert np.abs(grad - [-1.0, 0, 0]).max() <= 1e-8

    def test_linear_harmonic(self):
        grad = finite_diff_gradient(
            lambda p: solid_regular(1, 0, p), (0.3, -0.2, 0.5)
        )
        assert np.abs(grad - [0, 0, 1.0]).max() <= 1e-9

    def test_decaying_harmonic(self):
        x = np.array([0.5, 0.4, -0.3])
        grad = finite_diff_gradient(lambda p: solid_irregular(0, 0, p), x)
        r = np.linalg.norm(x)
        assert np.abs(grad - (-x / r**3)).max() <= 1e-8


# The direct Lerch route against mpmath's lerchphi quadrature at 30 digits:
# orders 1..16 and three far beyond, phases from next to the resonance to
# the zone edge, offsets off the two polylog reductions (1 and 1/2).  The
# lerchphi values are recorded in lerch_reference.json
# (make_lerch_reference.py), and one column is recomputed live.
LERCH_ORDERS = (*range(1, 17), 23, 40, 131)
LERCH_PHASES = (0.05, 0.3, 1.3, math.pi, 5.0, 2 * math.pi - 0.05)
LERCH_OFFSETS = (0.02, 0.14, 0.37, 0.96)
LERCH_REFERENCE = Path(__file__).with_name("lerch_reference.json")


@lru_cache(maxsize=1)
def _lerch_record() -> dict:
    """The recorded lerchphi values, ``[re, im]`` strings keyed by ``repr``
    of the phase and of the offset, then by the order."""
    with open(LERCH_REFERENCE) as fh:
        return json.load(fh)["values"]


def _recorded(alpha, offset, s):
    import mpmath

    return mpmath.mpc(*_lerch_record()[repr(alpha)][repr(offset)][str(s)])


class TestLerchReference:
    @pytest.mark.parametrize("alpha", LERCH_PHASES)
    def test_direct_route_against_lerchphi(self, alpha):
        # Phi(conj z, s, a) = conj Phi(z, s, a) for real s and a, so one
        # lerchphi value serves both signs of the phase
        import mpmath

        worst = 0.0
        with mpmath.workdps(30):
            for offset in LERCH_OFFSETS:
                for s in LERCH_ORDERS:
                    ref = _recorded(alpha, offset, s)
                    plus = _lerch_direct(s, alpha, offset)
                    minus = _lerch_direct(s, -alpha, offset)
                    assert plus is not None and minus is not None, (s, offset)
                    scale = max(1, abs(ref))
                    worst = max(worst, abs(plus - ref) / scale,
                                abs(minus - mpmath.conj(ref)) / scale)
        assert worst <= 1e-25

    def test_record_is_lerchphi(self):
        # one column of the record recomputed: a record written for another
        # grid, or by another lerchphi, fails here
        import mpmath
        from make_lerch_reference import lerchphi_column

        alpha, offset = 1.3, 0.37
        with mpmath.workdps(30):
            for s, value in lerchphi_column(alpha, offset).items():
                ref = _recorded(alpha, offset, s)
                assert abs(value - ref) <= 1e-28 * max(1, abs(ref)), s

    @pytest.mark.parametrize("s", (1, 7, 131))
    @pytest.mark.parametrize("alpha", (0.05, math.pi))
    def test_plan_meets_the_remainder_bound(self, s, alpha):
        # 2 (s)_K (N + a)^-(s+K) / |1 - z|^(K+1), evaluated at 40 digits
        import mpmath

        gap = abs(2 * math.sin(alpha / 2))
        for offset in LERCH_OFFSETS:
            n, k = _lerch_plan(s, gap, offset)
            with mpmath.workdps(40):
                bound = (2 * mpmath.rf(s, k) * (n + mpmath.mpf(offset)) ** -(s + k)
                         / mpmath.mpf(gap) ** (k + 1))
            assert bound <= oracle._LERCH_TOL / 2

    def test_lerchphi_next_to_the_resonance(self, monkeypatch):
        # where |1 - z| is tiny the direct route would need tens of thousands
        # of terms or more, and lerchphi's quadrature is cheaper
        import mpmath

        calls = []
        lerchphi = mpmath.lerchphi
        monkeypatch.setattr(
            mpmath, "lerchphi", lambda *args: calls.append(args) or lerchphi(*args))
        for alpha in (1e-6, -1e-3):
            for s in (1, 2, 4):
                assert _lerch_plan(s, abs(2 * math.sin(alpha / 2)), 0.37) is None
                lerch_ref(s, alpha, 1, 0.37)
        assert len(calls) == 6


def test_latsum_suite_needs_no_lerchphi(monkeypatch):
    # verify's seeded phases stay 0.05 from the resonance, where every Lerch
    # reference takes the direct route
    import mpmath

    def refuse(*args):
        raise AssertionError("lerchphi called")

    monkeypatch.setattr(mpmath, "lerchphi", refuse)
    for seed in range(10):
        rows = verify.run_suites(["latsum"], seed)
        assert all(row[-1] for row in rows), (seed, rows)


def test_kelvin_suite_samples_each_label_in_one_call(monkeypatch):
    # the surface samples are one vsh_real call per label over all 1891
    # nodes (3 calls); the closed side evaluates vsh_real at one direction
    # (18 calls)
    calls = []
    scalar = verify.vsh_real
    monkeypatch.setattr(
        verify, "vsh_real", lambda *args: calls.append(args) or scalar(*args))
    rows = verify.suite_kelvin(np.random.default_rng(0))
    assert all(res <= tol for _name, res, tol in rows)
    assert len(calls) <= 24


def test_harmonic_samples_take_one_vsh_real_call_per_family(monkeypatch):
    # basis_samples and verify's "table vs scalar" evaluate vsh_real once
    # per family over all their labels and nodes, and the samples are the
    # one-point values at each node
    calls = []
    scalar = oracle.vsh_real
    counted = lambda *args: calls.append(args) or scalar(*args)
    monkeypatch.setattr(oracle, "vsh_real", counted)
    basis, quad = BasisMap(3), build_quadrature(8)
    samples = basis_samples(basis, quad)
    assert len(calls) == 3
    dirs = quad.directions()
    for i, (l, m, fam) in enumerate(basis):
        assert np.array_equal(
            samples[i], np.array([scalar(fam, l, m, d) for d in dirs]))
    calls.clear()
    monkeypatch.setattr(verify, "vsh_real", counted)
    rows = verify.suite_vsh(np.random.default_rng(0))
    assert all(res <= tol for _name, res, tol in rows)
    assert 0 < len(calls) <= BasisMap(8).n_eff
